"""Gradient correctness and executor behavior for the autodiff core.

Every backward rule is checked against the central-difference oracle.
The oracle itself is validated first on a quadratic where the exact
derivative is known in closed form.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrf import diffcore
from wrf.diffcore import Executor, Graph, finite_diff_gradient
from wrf.errors import ConfigError, NumericError, ShapeError, StateError
from wrf.model import ModelConfig, RetrievalModel
from wrf.params import ParameterSet, carve
from wrf.synthcir import TripletBatch

from oracles import (
    NodeByNodeExecutor,
    l2norm_rows_backward,
    l2norm_rows_forward,
    pack,
    softmax_xent_backward,
    softmax_xent_forward,
    value_and_grad,
)

FD_H = 1e-5
FD_RTOL = 1e-6


def max_rel_err(analytic, oracle, spans):
    """Largest error per layer, relative to that layer's largest oracle entry."""
    worst = 0.0
    for _, a, b, _ in spans:
        g_o = oracle[a:b]
        scale = max(np.abs(g_o).max(), 1e-10)
        worst = max(worst, np.abs(analytic[a:b] - g_o).max() / scale)
    return worst


def quadratic_loss(ps):
    return 0.5 * sum(float((ps[n] ** 2).sum()) for n in ps.trainable_names)


def test_finite_diff_oracle_on_quadratic():
    ps = ParameterSet({"theta": np.array([2.0, -1.5, 0.25])})
    grad = finite_diff_gradient(quadratic_loss, ps, h=FD_H)
    np.testing.assert_allclose(grad, ps["theta"], rtol=0, atol=1e-9)


def test_finite_diff_rejects_bad_step():
    ps = ParameterSet({"theta": np.array([1.0])})
    with pytest.raises(ConfigError):
        finite_diff_gradient(quadratic_loss, ps, h=0.0)
    with pytest.raises(ConfigError):
        finite_diff_gradient(quadratic_loss, ps, h=-1e-5)


def test_finite_diff_leaves_params_untouched():
    ps = ParameterSet({"theta": np.array([2.0, 3.0])})
    before = ps["theta"].copy()
    finite_diff_gradient(quadratic_loss, ps, h=FD_H)
    assert np.array_equal(ps["theta"], before)


def weighted_scalar(graph, out_node, m, n):
    """Reduce an (m, n) node to a scalar via fixed row/column weights."""
    u = graph.input("uvec")
    v = graph.input("vvec")
    return graph.matmul(graph.matmul(u, out_node), v)


def run_fd_check(build, param_arrays, inputs, seed=0):
    """build(graph, param_nodes) -> (out_node, (m, n)) for the weighted reduction,
    or (out_node, None) when the node is already scalar."""
    graph = Graph()
    pnodes = {name: graph.param(name) for name in param_arrays}
    out, shape = build(graph, pnodes)
    if shape is not None:
        rng = np.random.default_rng(seed)
        m, n = shape
        inputs = dict(inputs)
        inputs["uvec"] = rng.normal(size=(1, m))
        inputs["vvec"] = rng.normal(size=(n, 1))
        out = weighted_scalar(graph, out, m, n)
    ps = ParameterSet(param_arrays)
    _, analytic = value_and_grad(graph, inputs, ps)

    def loss_fn(p):
        return float(np.ravel(Executor(graph).forward(inputs, p, out))[0])

    oracle = finite_diff_gradient(loss_fn, ps, h=FD_H)
    err = max_rel_err(analytic, oracle, ps.spans)
    assert err <= FD_RTOL, f"gradient mismatch {err:.3e}"


def rand(shape, seed, low=None):
    arr = np.random.default_rng(seed).normal(size=shape)
    if low is not None:
        # Push entries away from zero (relu kink, norm guard).
        arr = np.sign(arr) * (np.abs(arr) + low)
    return arr


@pytest.mark.parametrize("seed", range(5))
def test_matmul_gradient(seed):
    run_fd_check(
        lambda g, p: (g.matmul(p["a"], p["b"]), (3, 4)),
        {"a": rand((3, 5), seed), "b": rand((5, 4), seed + 100)},
        {},
        seed,
    )


@pytest.mark.parametrize("seed", range(5))
def test_add_gradient(seed):
    run_fd_check(
        lambda g, p: (g.add(p["a"], p["b"]), (3, 4)),
        {"a": rand((3, 4), seed), "b": rand((3, 4), seed + 100)},
        {},
        seed,
    )


@pytest.mark.parametrize("seed", range(5))
def test_bias_add_gradient(seed):
    run_fd_check(
        lambda g, p: (g.bias_add(p["x"], p["b"]), (3, 4)),
        {"x": rand((3, 4), seed), "b": rand((4,), seed + 100)},
        {},
        seed,
    )


@pytest.mark.parametrize("seed", range(5))
def test_tanh_gradient(seed):
    run_fd_check(
        lambda g, p: (g.tanh(p["x"]), (3, 4)),
        {"x": rand((3, 4), seed)},
        {},
        seed,
    )


@pytest.mark.parametrize("seed", range(5))
def test_relu_gradient(seed):
    run_fd_check(
        lambda g, p: (g.relu(p["x"]), (3, 4)),
        {"x": rand((3, 4), seed, low=0.1)},
        {},
        seed,
    )


@pytest.mark.parametrize("seed", range(5))
def test_row_concat_gradient(seed):
    run_fd_check(
        lambda g, p: (g.row_concat(p["a"], p["b"]), (3, 7)),
        {"a": rand((3, 4), seed), "b": rand((3, 3), seed + 100)},
        {},
        seed,
    )


@pytest.mark.parametrize("seed", range(5))
def test_l2norm_rows_gradient(seed):
    run_fd_check(
        lambda g, p: (g.l2norm_rows(p["x"]), (3, 4)),
        {"x": rand((3, 4), seed, low=0.2)},
        {},
        seed,
    )


@pytest.mark.parametrize("seed", range(5))
def test_pairwise_dot_gradient(seed):
    run_fd_check(
        lambda g, p: (g.pairwise_dot(p["u"], p["v"]), (3, 3)),
        {"u": rand((3, 4), seed), "v": rand((3, 4), seed + 100)},
        {},
        seed,
    )


@pytest.mark.parametrize("seed", range(5))
def test_scalar_mul_gradient(seed):
    run_fd_check(
        lambda g, p: (g.scalar_mul(p["x"], 1.7), (3, 4)),
        {"x": rand((3, 4), seed)},
        {},
        seed,
    )


@pytest.mark.parametrize("seed", range(5))
def test_softmax_xent_gradient(seed):
    run_fd_check(
        lambda g, p: (g.softmax_xent(g.scalar_mul(g.pairwise_dot(p["u"], p["v"]), 3.0)), None),
        {"u": rand((4, 5), seed), "v": rand((4, 5), seed + 100)},
        {},
        seed,
    )


@pytest.mark.parametrize("seed", range(5))
def test_composite_graph_gradient(seed):
    # A miniature of the real model: concat -> affine -> tanh -> affine
    # -> row normalization -> pairwise scores -> scaled cross-entropy.
    def build(g, p):
        x = g.row_concat(g.input("r"), g.input("m"))
        h = g.tanh(g.bias_add(g.matmul(x, p["w0"]), p["b0"]))
        q = g.l2norm_rows(g.bias_add(g.matmul(h, p["w1"]), p["b1"]))
        t = g.l2norm_rows(g.matmul(g.input("t"), p["wt"]))
        return g.softmax_xent(g.scalar_mul(g.pairwise_dot(q, t), 5.0)), None

    rng = np.random.default_rng(seed + 500)
    run_fd_check(
        build,
        {
            "w0": rand((6, 5), seed),
            "b0": rand((5,), seed + 1) * 0.1,
            "w1": rand((5, 3), seed + 2),
            "b1": rand((3,), seed + 3) * 0.1,
            "wt": rand((4, 3), seed + 4),
        },
        {"r": rng.normal(size=(3, 4)), "m": rng.normal(size=(3, 2)), "t": rng.normal(size=(3, 4))},
        seed,
    )


def test_frozen_params_get_no_gradient():
    g = Graph()
    out = g.matmul(g.param("a"), g.param("b"))
    g2 = g.softmax_xent(g.pairwise_dot(out, out))
    ps = ParameterSet(
        {"a": rand((3, 4), 0), "b": rand((4, 4), 1)}, trainable=["a"]
    )
    _, grad = value_and_grad(g, {}, ps)
    assert grad.shape == ps.flat.shape == (ps["a"].size,)


def test_unused_trainable_param_gets_zero_gradient():
    g = Graph()
    u = g.param("u")
    g.softmax_xent(g.pairwise_dot(u, u))
    ps = ParameterSet({"u": rand((3, 4), 0), "spare": np.ones((2, 2))})
    _, grad = value_and_grad(g, {}, ps)
    assert np.array_equal(carve(grad, ps.spans)["spare"], np.zeros((2, 2)))


def test_backward_before_forward_raises():
    g = Graph()
    u = g.param("u")
    loss = g.softmax_xent(g.pairwise_dot(u, u))
    with pytest.raises(StateError):
        Executor(g).backward()


def test_backward_on_nonscalar_raises():
    g = Graph()
    u = g.param("u")
    scores = g.pairwise_dot(u, u)
    ex = Executor(g)
    ex.forward({}, ParameterSet({"u": rand((3, 4), 0)}), scores)
    with pytest.raises(ShapeError):
        ex.backward()


def test_shape_mismatch_names_node():
    g = Graph()
    out = g.matmul(g.param("a"), g.param("b"))
    ps = ParameterSet({"a": np.ones((3, 4)), "b": np.ones((3, 4))})
    with pytest.raises(ShapeError, match="node"):
        Executor(g).forward({}, ps, out)


def test_overflow_names_node():
    g = Graph()
    x = g.input("x")
    out = g.scalar_mul(g.scalar_mul(x, 1e200), 1e200)
    with pytest.raises(NumericError, match="node"):
        Executor(g).forward({"x": np.array([[1e200]])}, ParameterSet({"w": np.ones(1)}), out)


def test_nonfinite_input_rejected():
    g = Graph()
    out = g.scalar_mul(g.input("x"), 2.0)
    with pytest.raises(NumericError):
        Executor(g).forward({"x": np.array([[np.nan]])}, ParameterSet({"w": np.ones(1)}), out)


def test_missing_and_unknown_inputs_rejected():
    g = Graph()
    out = g.scalar_mul(g.input("x"), 2.0)
    ps = ParameterSet({"w": np.ones(1)})
    with pytest.raises(ConfigError):
        Executor(g).forward({}, ps, out)
    with pytest.raises(ConfigError):
        Executor(g).forward({"x": np.ones((1, 1)), "bogus": np.ones(1)}, ps, out)


def test_leaf_name_collision_rejected():
    g = Graph()
    g.input("x")
    with pytest.raises(ConfigError):
        g.param("x")


@pytest.mark.parametrize("kind", ["input", "param"])
def test_a_repeated_leaf_name_is_rejected(kind):
    # A leaf used twice is bound once and passed to both consumers.
    g = Graph()
    getattr(g, kind)("w")
    with pytest.raises(ConfigError, match="'w' is already a leaf"):
        getattr(g, kind)("w")
    assert len(g.nodes) == 1


def test_forward_backward_deterministic():
    g = Graph()
    q = g.l2norm_rows(g.matmul(g.input("x"), g.param("w")))
    g.softmax_xent(g.scalar_mul(g.pairwise_dot(q, q), 2.0))
    ps = ParameterSet({"w": rand((4, 3), 7)})
    x = rand((3, 4), 8)
    l1, g1 = value_and_grad(g, {"x": x}, ps)
    l2, g2 = value_and_grad(g, {"x": x}, ps)
    assert l1 == l2
    assert g1.tobytes() == g2.tobytes()


def test_pass_counters_track_executions():
    g = Graph()
    u = g.param("u")
    g.softmax_xent(g.pairwise_dot(u, u))
    ps = ParameterSet({"u": rand((3, 4), 0)})
    before = diffcore.pass_counts()
    value_and_grad(g, {}, ps)
    after = diffcore.pass_counts()
    assert after["forward"] - before["forward"] == 1
    assert after["backward"] - before["backward"] == 1


def test_l2norm_zero_row_maps_to_zero():
    g = Graph()
    y = g.l2norm_rows(g.input("x"))
    x = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
    out = Executor(g).forward({"x": x}, ParameterSet({"w": np.ones(1)}), y)
    assert np.array_equal(out[0], np.zeros(3))
    np.testing.assert_allclose(out[1], [0.6, 0.8, 0.0], atol=1e-15)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10_000), st.floats(1e-16, 1e-13))
def test_l2norm_guard_never_produces_nonfinite(seed, scale):
    # Rows at or below the guard threshold come out as zeros, and the
    # gradient through them is zero rather than an overflow.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 3))
    x[0] *= scale / max(np.linalg.norm(x[0]), 1e-300)
    x[1] = 0.0
    g = Graph()
    n = g.l2norm_rows(g.param("x"))
    g.softmax_xent(g.scalar_mul(g.pairwise_dot(n, n), 2.0))
    ps = ParameterSet({"x": x})
    loss, grad = value_and_grad(g, {}, ps)
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grad))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.integers(2, 8), st.integers(1, 6))
def test_l2norm_rows_are_unit_or_zero(seed, rows, cols):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, cols))
    x[0] = 0.0
    g = Graph()
    y = g.l2norm_rows(g.input("x"))
    out = Executor(g).forward({"x": x}, ParameterSet({"w": np.ones(1)}), y)
    norms = np.linalg.norm(out, axis=1)
    for val in norms:
        assert abs(val - 1.0) <= 1e-12 or val == 0.0


# ------------------------------------ pruned executor vs node-by-node


def _model_case(activation, mode, seed):
    cfg = ModelConfig(d_ref=6, d_mod=3, hidden=(8, 5), d_out=4, activation=activation, seed=seed)
    model = RetrievalModel(cfg, mode=mode, lora_rank=2 if mode == "lora" else None)
    ps = model.init_params()
    rng = np.random.default_rng(seed)
    for name in ps.trainable_names:  # move off the init (lora_b starts at zero)
        ps[name][...] += 0.3 * rng.standard_normal(ps[name].shape)
    batch = {
        "refs": rng.normal(size=(7, 6)),
        "mods": rng.normal(size=(7, 3)),
        "targets": rng.normal(size=(7, 6)),
    }
    return model, ps, batch


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("mode", ["full", "lora"])
def test_plan_matches_node_by_node_bit_for_bit(activation, mode):
    for seed in range(3):
        model, ps, batch = _model_case(activation, mode, seed)
        g, out = model._graph, model._loss_node(5.0)
        ex, ref = Executor(g), NodeByNodeExecutor(g)
        for _ in range(2):  # the second pass reuses the cached plan
            assert ex.forward(batch, ps, out) == ref.forward(batch, ps, out)
            got, want = ex.backward(), ref.backward()
            assert got.tobytes() == pack(ps, want).tobytes()
        queries = model.embed_queries(ps, batch["refs"], batch["mods"])
        want_q = NodeByNodeExecutor(g).forward(batch, ps, model._query_out)
        assert queries.tobytes() == want_q.tobytes()


def test_backward_gradients_are_fresh_arrays():
    g = Graph()
    w = g.param("w")
    loss = g.softmax_xent(g.pairwise_dot(g.add(w, w), g.input("v")))
    ps = ParameterSet({"w": rand((3, 2), 1)})
    ex = Executor(g)
    ex.forward({"v": rand((3, 2), 2)}, ps, loss)
    grad = ex.backward()
    assert not np.shares_memory(grad, ps.flat)
    assert all(not np.shares_memory(grad, v) for v in ex._values if isinstance(v, np.ndarray))


def test_plan_follows_appended_nodes_and_trainable_sets():
    g = Graph()
    a, b, x_leaf = g.param("a"), g.param("b"), g.input("x")
    s = g.pairwise_dot(g.matmul(x_leaf, a), g.matmul(x_leaf, b))
    loss = g.softmax_xent(s)
    x = {"x": rand((3, 2), 3)}
    layers = {"a": rand((2, 2), 4), "b": rand((2, 2), 5)}

    def both_backwards(ps, loss_node):
        ex, ref = Executor(g), NodeByNodeExecutor(g)
        ex.forward(x, ps, loss_node)
        ref.forward(x, ps, loss_node)
        got, want = ex.backward(), ref.backward()
        assert got.tobytes() == pack(ps, want).tobytes()
        return got

    sets = [ParameterSet(layers, trainable) for trainable in (None, ["a"], ["b"])]
    before = [(g.plan(loss, ps.trainable_names), both_backwards(ps, loss)) for ps in sets]
    assert len({plan[1] for plan, _ in before}) == 3  # one backward per trainable set
    # A node depends only on lower ids, so appending nodes leaves the
    # cached plan and the gradients of the old loss as they were.
    second = g.softmax_xent(g.scalar_mul(s, 2.0))
    for ps, (plan, grad) in zip(sets, before):
        assert g.plan(loss, ps.trainable_names) is plan
        assert both_backwards(ps, loss).tobytes() == grad.tobytes()
        both_backwards(ps, second)


def test_overflow_names_the_same_node_as_node_by_node():
    # relu(-inf) is 0, so the loss would be finite: only a per-node check
    # catches the overflow at node 2.
    g = Graph()
    h = g.relu(g.scalar_mul(g.scalar_mul(g.input("x"), -1e200), 1e200))
    loss = g.softmax_xent(g.pairwise_dot(h, g.param("w")))
    assert _donations(g, loss)[2] == 1  # node 2 overflows in node 1's buffer
    args = ({"x": np.ones((2, 2))}, ParameterSet({"w": np.ones((2, 2))}), loss)
    messages = []
    for ex in (Executor(g), NodeByNodeExecutor(g)):
        with pytest.raises(NumericError, match="node 2 \\(scalar_mul\\)") as err:
            ex.forward(*args)
        messages.append(str(err.value))
    assert messages[0] == messages[1]

    model, ps, batch = _model_case("relu", "full", 0)
    batch["refs"] = np.full_like(batch["refs"], 1e200)
    ps["fusion.0.w"][...] = 1e200  # the first fusion matmul overflows
    g, out = model._graph, model._loss_node(5.0)
    messages = []
    for ex in (Executor(g), NodeByNodeExecutor(g)):
        with pytest.raises(NumericError) as err:
            ex.forward(batch, ps, out)
        messages.append(str(err.value))
    assert messages[0] == messages[1] and "(matmul)" in messages[0]


# ------------------------------------------------- the per-node finite check


def test_finite_entries_whose_sum_of_squares_overflows_pass():
    x = np.array([[1e200, -1e200], [3e199, 1e-300]])
    r = x.ravel()
    with np.errstate(over="ignore"):
        assert not np.isfinite(r.dot(r))  # the cheap test alone would reject x
    g = Graph()
    y = g.bias_add(g.scalar_mul(g.input("x"), 1.0), g.param("b"))
    out = Executor(g).forward({"x": x}, ParameterSet({"b": np.zeros(2)}), y)
    assert out.tobytes() == x.tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        assert diffcore._all_finite(x) and diffcore._all_finite(np.full(4, 1e300))
        for bad in (np.inf, -np.inf, np.nan):
            assert not diffcore._all_finite(np.array([1e200, bad]))


def _poison(op, value):
    """op's forward with one output entry (the last) replaced by value."""
    original = diffcore._OPS[op]

    def forward(i, *args, **kwargs):
        out, ctx = original.forward(i, *args, **kwargs)
        if np.ndim(out) == 0:
            return np.float64(value), ctx
        out = np.array(out)
        out.flat[-1] = value
        return out, ctx

    return original._replace(forward=forward)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("activation,mode", [("tanh", "lora"), ("relu", "full")])
def test_a_nonfinite_value_at_any_node_names_that_node(monkeypatch, activation, mode, value):
    model, ps, batch = _model_case(activation, mode, 0)
    g, out = model._graph, model._loss_node(5.0)
    ops = {node.op for node in g.nodes if node.op in diffcore._OPS}
    assert len(ops) == (9 if mode == "lora" else 8)
    for op in sorted(ops):
        first = next(i for i, node in enumerate(g.nodes) if node.op == op)
        with monkeypatch.context() as m:
            m.setitem(diffcore._OPS, op, _poison(op, value))
            with pytest.raises(NumericError) as err:
                Executor(g).forward(batch, ps, out)
        assert str(err.value) == f"node {first} ({op}) produced non-finite values"


@pytest.mark.parametrize("zero_rows", [0, 1, 3])
def test_l2norm_rows_fast_path_is_the_where_form_bit_for_bit(zero_rows):
    rng = np.random.default_rng(zero_rows)
    op = diffcore._OPS["l2norm_rows"]
    for scale in (1e-6, 1.0, 1e150):
        x = rng.normal(size=(9, 5)) * scale
        x[:zero_rows] = 0.0
        y, ctx = op.forward(0, x)
        want_y, want_ctx = l2norm_rows_forward(0, x)
        assert y.tobytes() == want_y.tobytes()
        assert (ctx[2] is None) == (zero_rows == 0)  # None marks the all-safe path
        g = rng.normal(size=x.shape)
        (gx,) = op.backward(0, g, ctx)
        (want_gx,) = l2norm_rows_backward(0, g, want_ctx)
        assert gx.tobytes() == want_gx.tobytes()


# ------------------------------------- softmax_xent vs the reference kernel


@pytest.mark.parametrize("n", [2, 3, 64, 65, 512])
def test_softmax_xent_matches_the_reference_kernel_bit_for_bit(n):
    op = diffcore._OPS["softmax_xent"]
    rng = np.random.default_rng(n)
    for scale in (1.0, 10.0, 50.0):
        logits = scale * rng.standard_normal((n, n))
        logits[0] = logits[0, 0]  # a row of ties: uniform probabilities
        logits[-1, : (n + 1) // 2] = logits[-1].max()  # ties at the row max
        want_loss, want_ctx = softmax_xent_forward(0, logits)
        got_loss, got_ctx = op.forward(0, logits)
        assert got_loss.tobytes() == want_loss.tobytes(), scale
        for upstream in (np.float64(1.0), np.float64(0.7)):
            (want,) = softmax_xent_backward(0, upstream, want_ctx)
            (got,) = op.backward(0, upstream, got_ctx)
            assert got.tobytes() == want.tobytes(), (scale, upstream)


@pytest.mark.parametrize("mode", ["full", "lora"])
def test_backward_twice_on_one_tape_is_bit_identical(mode):
    model, ps, batch = _model_case("tanh", mode, 1)
    ex = Executor(model._graph)
    ex.forward(batch, ps, model._loss_node(5.0))
    first, second = ex.backward(), ex.backward()
    assert first.tobytes() == second.tobytes() and first is not second


# ------------------------------------------------------- buffer donation


def _donations(g, output, trainable=()):
    """{node id: the input id whose buffer it overwrites} in a pass to output."""
    forward, _ = g.plan(output, trainable)
    return {i: j for i, _, _, _, j in forward if j is not None}


def _full_size_case(activation, mode, rows):
    """The default model dimensions at a training (64) or landscape (512) batch."""
    cfg = ModelConfig(activation=activation, init_scale=3.0, seed=rows)
    model = RetrievalModel(cfg, mode=mode, lora_rank=4 if mode == "lora" else None)
    ps = model.init_params()
    rng = np.random.default_rng(rows)
    for name in ps.trainable_names:  # move off the init (lora_b starts at zero)
        ps[name][...] += 0.3 * rng.standard_normal(ps[name].shape)
    batch = {
        "refs": rng.normal(size=(rows, cfg.d_ref)),
        "mods": rng.normal(size=(rows, cfg.d_mod)),
        "targets": rng.normal(size=(rows, cfg.d_ref)),
    }
    return model, ps, batch


def _same_pass(g, inputs, ps, output):
    """Forward on both executors; asserts equal bytes of the result and of
    every value the executor kept, returns both."""
    ex, ref = Executor(g), NodeByNodeExecutor(g)
    got, want = ex.forward(inputs, ps, output), ref.forward(inputs, ps, output)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    for j, value in enumerate(ex._values):
        if value is not None:
            assert np.asarray(value).tobytes() == np.asarray(ref._values[j]).tobytes(), j
    return ex, ref


def _same_grads(ex, ref):
    assert ex.backward().tobytes() == pack(ex._params, ref.backward()).tobytes()


@pytest.mark.parametrize("rows", [64, 512])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("mode", ["full", "lora"])
def test_donating_forward_matches_node_by_node_bit_for_bit(activation, mode, rows):
    model, ps, batch = _full_size_case(activation, mode, rows)
    g, out = model._graph, model._loss_node(10.0)
    plan = _donations(g, out)
    # bias_add reuses the matmul products, scalar_mul the scores and
    # softmax_xent the logits; tanh reuses bias_add's outputs, relu does not.
    producers = {g.nodes[j].op for j in plan.values()}
    assert {"matmul", "pairwise_dot", "scalar_mul"} <= producers
    assert ("bias_add" in producers) is (activation == "tanh")
    if mode == "lora":  # add writes over the adapter product, its second input
        assert any(g.nodes[i].op == "add" and j == g.nodes[i].inputs[1] for i, j in plan.items())
    params_before = {name: ps[name].tobytes() for name in ps.names}
    inputs_before = {name: arr.tobytes() for name, arr in batch.items()}
    for _ in range(2):  # the second pass reuses the cached plan
        ex, ref = _same_pass(g, batch, ps, out)
        assert all(ex._values[j] is None for j in plan.values())
        _same_grads(ex, ref)
    assert {name: ps[name].tobytes() for name in ps.names} == params_before
    assert {name: arr.tobytes() for name, arr in batch.items()} == inputs_before
    queries = model.embed_queries(ps, batch["refs"], batch["mods"])
    want_q = NodeByNodeExecutor(g).forward(batch, ps, model._query_out)
    assert queries.tobytes() == want_q.tobytes()


def _donation_graph():
    """Every rule that keeps a buffer from being donated, plus the donations.
    Returns the graph, its node ids by name, the expected plan, inputs and params."""
    g = Graph()
    ids = {}
    ids["mm"] = g.matmul(g.input("x"), g.param("w"))
    ids["h"] = g.bias_add(ids["mm"], g.param("b"))
    ids["t"] = g.tanh(ids["h"])  # h has two consumers
    ids["s"] = g.scalar_mul(ids["t"], 0.5)  # tanh keeps its output
    ids["n"] = g.scalar_mul(g.l2norm_rows(ids["h"]), 2.0)  # so does l2norm_rows
    ids["d"] = g.add(ids["s"], ids["s"])  # one node, two uses of s
    ids["e"] = g.add(ids["d"], ids["n"])
    ids["adapter"] = g.matmul(g.param("a"), g.param("c"))
    ids["w_eff"] = g.add(g.param("v"), ids["adapter"])  # writes over its second input
    ids["mm2"] = g.matmul(ids["e"], ids["w_eff"])  # e has two consumers
    ids["k"] = g.tanh(g.tanh(ids["mm2"]))
    ids["scores"] = g.pairwise_dot(ids["e"], ids["k"])
    ids["logits"] = g.scalar_mul(ids["scores"], 3.0)
    ids["loss"] = g.softmax_xent(ids["logits"])
    g.scalar_mul(ids["loss"], 0.25)  # softmax_xent's output is a scalar
    plan = {ids["h"]: ids["mm"], ids["e"]: ids["d"], ids["w_eff"]: ids["adapter"],
            ids["mm2"] + 1: ids["mm2"], ids["logits"]: ids["scores"],
            ids["loss"]: ids["logits"]}
    layers = {"w": rand((4, 3), 1), "b": rand((3,), 2), "v": rand((3, 3), 3),
              "a": rand((3, 2), 4), "c": rand((2, 3), 5)}
    return g, ids, plan, {"x": rand((5, 4), 6)}, ParameterSet(layers)


def test_donation_plan_follows_the_four_rules():
    g, ids, expected, inputs, ps = _donation_graph()
    last = len(g.nodes) - 1
    plan = g.plan(last, ps.trainable_names)
    assert _donations(g, last, ps.trainable_names) == expected
    _same_grads(*_same_pass(g, inputs, ps, last))
    # The pass to an intermediate ends at it, so nothing writes over its
    # buffer, and the plan is cached per output.
    assert max(step[0] for step in g.plan(ids["scores"], ())[0]) == ids["scores"]
    assert g.plan(last, ps.trainable_names) is plan
    for name in ("scores", "mm", "d", "adapter"):
        _same_pass(g, inputs, ps, ids[name])


def test_forward_to_an_intermediate_returns_its_bytes():
    model, ps, batch = _full_size_case("tanh", "full", 64)
    g, out = model._graph, model._loss_node(10.0)
    for k in sorted(_donations(g, out).values()):  # each buffer a full pass donates
        assert max(step[0] for step in g.plan(k, ps.trainable_names)[0]) == k
        _same_pass(g, batch, ps, k)


def test_a_forward_to_an_intermediate_leaves_later_nodes_unrun():
    g = Graph()
    mid = g.scalar_mul(g.input("x"), 2.0)
    g.scalar_mul(mid, 1e308)  # overflows for any entry above 0.5 in magnitude
    x = {"x": np.array([[1.0, -3.0]])}
    ps = ParameterSet({"w": np.ones(1)})
    ex, _ = _same_pass(g, x, ps, mid)
    assert ex._values[mid].tobytes() == (2.0 * x["x"]).tobytes()
    with pytest.raises(NumericError, match="node 2 \\(scalar_mul\\)"):
        ex.forward(x, ps, len(g.nodes) - 1)


def test_a_second_consumer_appended_after_a_pass_turns_donation_off():
    g, ids, _, inputs, ps = _donation_graph()
    loss = ids["loss"]
    _same_grads(*_same_pass(g, inputs, ps, loss))
    # Two more readers of the scores: a pass that runs them may not write
    # over the scores.
    flipped = g.scalar_mul(ids["scores"], -1.0)
    last = g.softmax_xent(g.add(ids["scores"], flipped))
    plan = _donations(g, last)
    assert flipped not in plan and plan[flipped + 1] == flipped
    _same_grads(*_same_pass(g, inputs, ps, last))


def test_appending_consumers_leaves_an_existing_plan_and_its_bytes():
    g, ids, _, inputs, ps = _donation_graph()
    loss = ids["loss"]
    plan = g.plan(loss, ps.trainable_names)
    ex, ref = _same_pass(g, inputs, ps, loss)
    values = [None if v is None else np.asarray(v).tobytes() for v in ex._values]
    grad = ex.backward().tobytes()
    flipped = g.scalar_mul(ids["scores"], -1.0)  # the scores gain two consumers
    g.softmax_xent(g.add(ids["scores"], flipped))
    assert g.plan(loss, ps.trainable_names) is plan
    assert _donations(g, loss, ps.trainable_names)[ids["logits"]] == ids["scores"]
    ex, ref = _same_pass(g, inputs, ps, loss)
    assert [None if v is None else np.asarray(v).tobytes() for v in ex._values[: loss + 1]] \
        == values[: loss + 1]
    assert ex.backward().tobytes() == grad


def test_embedding_one_branch_runs_only_its_ops(monkeypatch):
    model, ps, batch = _model_case("tanh", "lora", 0)
    model.batch_loss(ps, TripletBatch(**batch), tau=5.0)  # a loss head after both branches
    g, q, t = model._graph, model._query_out, model._target_out
    want_q = NodeByNodeExecutor(g).forward(batch, ps, q)
    calls = []
    for op, entry in list(diffcore._OPS.items()):
        def counted(i, *args, _forward=entry.forward, **kwargs):
            calls.append(i)
            return _forward(i, *args, **kwargs)

        monkeypatch.setitem(diffcore._OPS, op, entry._replace(forward=counted))
    queries = model.embed_queries(ps, batch["refs"], batch["mods"])
    assert queries.tobytes() == want_q.tobytes()
    assert calls == [i for i in range(q + 1) if g.nodes[i].op in diffcore._OPS]
    calls.clear()
    model.embed_targets(ps, batch["targets"])
    assert calls == [i for i in range(q + 1, t + 1) if g.nodes[i].op in diffcore._OPS]
