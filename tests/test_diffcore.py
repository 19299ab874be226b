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
from wrf.params import ParameterSet

from oracles import NodeByNodeExecutor, value_and_grad

FD_H = 1e-5
FD_RTOL = 1e-6


def max_rel_err(analytic, oracle):
    worst = 0.0
    for name, g_o in oracle.items():
        g_a = analytic[name]
        scale = max(np.abs(g_o).max(), 1e-10)
        worst = max(worst, np.abs(g_a - g_o).max() / scale)
    return worst


def quadratic_loss(ps):
    return 0.5 * sum(float((ps[n] ** 2).sum()) for n in ps.trainable_names)


def test_finite_diff_oracle_on_quadratic():
    ps = ParameterSet({"theta": np.array([2.0, -1.5, 0.25])})
    grads = finite_diff_gradient(quadratic_loss, ps, h=FD_H)
    np.testing.assert_allclose(grads["theta"], ps["theta"], rtol=0, atol=1e-9)


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
        return float(np.ravel(Executor(graph).forward(inputs, p))[0])

    oracle = finite_diff_gradient(loss_fn, ps, h=FD_H)
    err = max_rel_err(analytic, oracle)
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
    _, grads = value_and_grad(g, {}, ps)
    assert set(grads) == {"a"}


def test_unused_trainable_param_gets_zero_gradient():
    g = Graph()
    g.softmax_xent(g.pairwise_dot(g.param("u"), g.param("u")))
    ps = ParameterSet({"u": rand((3, 4), 0), "spare": np.ones((2, 2))})
    _, grads = value_and_grad(g, {}, ps)
    assert np.array_equal(grads["spare"], np.zeros((2, 2)))


def test_backward_before_forward_raises():
    g = Graph()
    g.softmax_xent(g.pairwise_dot(g.param("u"), g.param("u")))
    with pytest.raises(StateError):
        Executor(g).backward()


def test_backward_on_nonscalar_raises():
    g = Graph()
    g.pairwise_dot(g.param("u"), g.param("u"))
    ex = Executor(g)
    ex.forward({}, ParameterSet({"u": rand((3, 4), 0)}))
    with pytest.raises(ShapeError):
        ex.backward()


def test_shape_mismatch_names_node():
    g = Graph()
    g.matmul(g.param("a"), g.param("b"))
    ps = ParameterSet({"a": np.ones((3, 4)), "b": np.ones((3, 4))})
    with pytest.raises(ShapeError, match="node"):
        Executor(g).forward({}, ps)


def test_overflow_names_node():
    g = Graph()
    x = g.input("x")
    g.scalar_mul(g.scalar_mul(x, 1e200), 1e200)
    with pytest.raises(NumericError, match="node"):
        Executor(g).forward({"x": np.array([[1e200]])}, ParameterSet({"w": np.ones(1)}))


def test_nonfinite_input_rejected():
    g = Graph()
    g.scalar_mul(g.input("x"), 2.0)
    with pytest.raises(NumericError):
        Executor(g).forward({"x": np.array([[np.nan]])}, ParameterSet({"w": np.ones(1)}))


def test_missing_and_unknown_inputs_rejected():
    g = Graph()
    g.scalar_mul(g.input("x"), 2.0)
    ps = ParameterSet({"w": np.ones(1)})
    with pytest.raises(ConfigError):
        Executor(g).forward({}, ps)
    with pytest.raises(ConfigError):
        Executor(g).forward({"x": np.ones((1, 1)), "bogus": np.ones(1)}, ps)


def test_leaf_name_collision_rejected():
    g = Graph()
    g.input("x")
    with pytest.raises(ConfigError):
        g.param("x")


def test_repeated_leaves_are_deduplicated():
    g = Graph()
    assert g.param("w") == g.param("w")
    assert g.input("x") == g.input("x")


def test_forward_backward_deterministic():
    g = Graph()
    q = g.l2norm_rows(g.matmul(g.input("x"), g.param("w")))
    g.softmax_xent(g.scalar_mul(g.pairwise_dot(q, q), 2.0))
    ps = ParameterSet({"w": rand((4, 3), 7)})
    x = rand((3, 4), 8)
    l1, g1 = value_and_grad(g, {"x": x}, ps)
    l2, g2 = value_and_grad(g, {"x": x}, ps)
    assert l1 == l2
    for name in g1:
        assert np.array_equal(g1[name], g2[name])


def test_pass_counters_track_executions():
    g = Graph()
    g.softmax_xent(g.pairwise_dot(g.param("u"), g.param("u")))
    ps = ParameterSet({"u": rand((3, 4), 0)})
    before = diffcore.pass_counts()
    value_and_grad(g, {}, ps)
    after = diffcore.pass_counts()
    assert after["forward"] - before["forward"] == 1
    assert after["backward"] - before["backward"] == 1


def test_l2norm_zero_row_maps_to_zero():
    g = Graph()
    g.l2norm_rows(g.input("x"))
    x = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
    out = Executor(g).forward({"x": x}, ParameterSet({"w": np.ones(1)}))
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
    loss, grads = value_and_grad(g, {}, ps)
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grads["x"]))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.integers(2, 8), st.integers(1, 6))
def test_l2norm_rows_are_unit_or_zero(seed, rows, cols):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, cols))
    x[0] = 0.0
    g = Graph()
    g.l2norm_rows(g.input("x"))
    out = Executor(g).forward({"x": x}, ParameterSet({"w": np.ones(1)}))
    norms = np.linalg.norm(out, axis=1)
    for val in norms:
        assert abs(val - 1.0) <= 1e-12 or val == 0.0


# -------------------------------------------- compiled plan vs node-by-node


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
        g, out = model._loss_graph(5.0)
        ex, ref = Executor(g), NodeByNodeExecutor(g)
        for _ in range(2):  # the second pass reuses the cached plan
            assert ex.forward(batch, ps, out) == ref.forward(batch, ps, out)
            got, want = ex.backward(out), ref.backward(out)
            assert list(got) == list(want)  # same key order, not only same keys
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), name
        queries = model.embed_queries(ps, batch["refs"], batch["mods"])
        q_graph, q_out = model._query_graph, model._query_out
        want_q = NodeByNodeExecutor(q_graph).forward(batch, ps, q_out)
        assert queries.tobytes() == want_q.tobytes()


def test_backward_gradients_are_fresh_arrays():
    g = Graph()
    w = g.param("w")
    g.softmax_xent(g.pairwise_dot(g.add(w, w), g.input("v")))
    ps = ParameterSet({"w": rand((3, 2), 1)})
    ex = Executor(g)
    ex.forward({"v": rand((3, 2), 2)}, ps)
    grads = ex.backward()
    assert not np.shares_memory(grads["w"], ps["w"])
    assert all(not np.shares_memory(grads["w"], v) for v in ex._values if isinstance(v, np.ndarray))


def test_plan_follows_appended_nodes_and_trainable_sets():
    g = Graph()
    a, b = g.param("a"), g.param("b")
    s = g.pairwise_dot(g.matmul(g.input("x"), a), g.matmul(g.input("x"), b))
    g.softmax_xent(s)
    x = {"x": rand((3, 2), 3)}
    layers = {"a": rand((2, 2), 4), "b": rand((2, 2), 5)}
    for trainable in (None, ["a"], ["b"]):
        ps = ParameterSet(layers, trainable)
        ex, ref = Executor(g), NodeByNodeExecutor(g)
        ex.forward(x, ps)
        ref.forward(x, ps)
        got, want = ex.backward(), ref.backward()
        assert list(got) == list(want)
        assert all(got[n].tobytes() == want[n].tobytes() for n in want)
    first = g.plan()
    assert g.plan() is first
    g.scalar_mul(s, 2.0)
    assert g.plan() is not first and g.plan().size == len(g.nodes)


def test_overflow_names_the_same_node_as_node_by_node():
    # relu(-inf) is 0, so the loss would be finite: only a per-node check
    # catches the overflow at node 2.
    g = Graph()
    h = g.relu(g.scalar_mul(g.scalar_mul(g.input("x"), -1e200), 1e200))
    g.softmax_xent(g.pairwise_dot(h, g.param("w")))
    args = ({"x": np.ones((2, 2))}, ParameterSet({"w": np.ones((2, 2))}))
    messages = []
    for ex in (Executor(g), NodeByNodeExecutor(g)):
        with pytest.raises(NumericError, match="node 2 \\(scalar_mul\\)") as err:
            ex.forward(*args)
        messages.append(str(err.value))
    assert messages[0] == messages[1]

    model, ps, batch = _model_case("relu", "full", 0)
    batch["refs"] = np.full_like(batch["refs"], 1e200)
    ps["fusion.0.w"][...] = 1e200  # the first fusion matmul overflows
    g, out = model._loss_graph(5.0)
    messages = []
    for ex in (Executor(g), NodeByNodeExecutor(g)):
        with pytest.raises(NumericError) as err:
            ex.forward(batch, ps, out)
        messages.append(str(err.value))
    assert messages[0] == messages[1] and "(matmul)" in messages[0]
