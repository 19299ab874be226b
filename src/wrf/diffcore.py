"""Reverse-mode differentiation over a small fixed operation set.

Graphs are declarative: build once with Graph methods, then run any
number of times through an Executor bound to concrete inputs and a
ParameterSet. Everything is dense float64 numpy; every node's output is
checked finite so a blow-up is reported at the node that produced it
instead of surfacing later as a silent NaN. The check stays per node
because a non-finite intermediate can vanish before the loss
(relu(-inf) is 0).

A graph compiles once into a flat plan (Graph.plan) that every Executor
of it reuses: one step per node for the forward pass and, per set of
trainable names, backward steps that skip every node unable to reach a
trainable parameter, so no gradient is formed for inputs or frozen
layers. Pruning changes no bit of the gradients that remain.

The op set is deliberately tiny (ten ops). Each op is a (forward,
backward) pair in the _OPS registry, looked up on every pass rather
than bound into the plan; the selfcheck command relies on that registry
to inject a broken backward rule and prove the gradient suite catches
it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, NumericError, ShapeError, StateError
from .params import GradientSet, ParameterSet

# Rows with L2 norm below this are mapped to zero by l2norm_rows instead
# of dividing by ~0. Their gradient is zero as well.
NORM_EPS = 1e-12

# Forward/backward invocation counters, package-wide. The trainer's
# two-pass structure is asserted against these in tests.
_PASS_COUNTS = {"forward": 0, "backward": 0}


def pass_counts() -> dict[str, int]:
    return dict(_PASS_COUNTS)


def reset_pass_counts() -> None:
    _PASS_COUNTS["forward"] = 0
    _PASS_COUNTS["backward"] = 0


class _Op(NamedTuple):
    # forward: (node_id, *input_arrays) -> (output, ctx)
    # backward: (node_id, grad_out, ctx) -> tuple of input gradients
    forward: Callable
    backward: Callable


def _require_2d(node_id: int, op: str, arr: np.ndarray, role: str) -> None:
    if arr.ndim != 2:
        raise ShapeError(f"node {node_id} ({op}): {role} must be 2-d, got shape {arr.shape}")


def _fw_matmul(i, a, b):
    _require_2d(i, "matmul", a, "left input")
    _require_2d(i, "matmul", b, "right input")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"node {i} (matmul): inner dims {a.shape} x {b.shape}")
    return a @ b, (a, b)


def _bw_matmul(i, g, ctx):
    a, b = ctx
    return g @ b.T, a.T @ g


def _fw_add(i, a, b):
    if a.shape != b.shape:
        raise ShapeError(f"node {i} (add): shapes {a.shape} vs {b.shape}")
    return a + b, None


def _bw_add(i, g, ctx):
    return g, g


def _fw_bias_add(i, x, b):
    _require_2d(i, "bias_add", x, "input")
    if b.ndim != 1 or b.shape[0] != x.shape[1]:
        raise ShapeError(f"node {i} (bias_add): bias {b.shape} vs input {x.shape}")
    return x + b, None


def _bw_bias_add(i, g, ctx):
    return g, g.sum(axis=0)


def _fw_tanh(i, x):
    y = np.tanh(x)
    return y, y


def _bw_tanh(i, g, y):
    return (g * (1.0 - y * y),)


def _fw_relu(i, x):
    return np.maximum(x, 0.0), x


def _bw_relu(i, g, x):
    return (g * (x > 0.0),)


def _fw_row_concat(i, a, b):
    _require_2d(i, "row_concat", a, "left input")
    _require_2d(i, "row_concat", b, "right input")
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"node {i} (row_concat): row counts {a.shape[0]} vs {b.shape[0]}")
    return np.concatenate([a, b], axis=1), a.shape[1]


def _bw_row_concat(i, g, split):
    return g[:, :split], g[:, split:]


def _fw_l2norm_rows(i, x):
    _require_2d(i, "l2norm_rows", x, "input")
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    safe = norms > NORM_EPS
    y = np.where(safe, x / np.where(safe, norms, 1.0), 0.0)
    return y, (y, norms, safe)


def _bw_l2norm_rows(i, g, ctx):
    y, norms, safe = ctx
    # d/dx of x/|x| pushes g onto the tangent of the unit sphere.
    inner = (g * y).sum(axis=1, keepdims=True)
    gx = np.where(safe, (g - inner * y) / np.where(safe, norms, 1.0), 0.0)
    return (gx,)


def _fw_pairwise_dot(i, u, v):
    _require_2d(i, "pairwise_dot", u, "left input")
    _require_2d(i, "pairwise_dot", v, "right input")
    if u.shape != v.shape:
        raise ShapeError(f"node {i} (pairwise_dot): shapes {u.shape} vs {v.shape}")
    return u @ v.T, (u, v)


def _bw_pairwise_dot(i, g, ctx):
    u, v = ctx
    return g @ v, g.T @ u


def _fw_scalar_mul(i, x, c):
    return c * x, c


def _bw_scalar_mul(i, g, c):
    return (c * g,)


def _fw_softmax_xent(i, logits):
    _require_2d(i, "softmax_xent", logits, "logits")
    n, m = logits.shape
    if n != m:
        raise ShapeError(f"node {i} (softmax_xent): logits must be square, got {logits.shape}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=1, keepdims=True)
    lse = np.log(expd.sum(axis=1)) + logits.max(axis=1)
    loss = np.float64((lse - np.diag(logits)).mean())
    return loss, (probs, n)


def _bw_softmax_xent(i, g, ctx):
    probs, n = ctx
    return ((probs - np.eye(n)) * (float(g) / n),)


_OPS: dict[str, _Op] = {
    "matmul": _Op(_fw_matmul, _bw_matmul),
    "add": _Op(_fw_add, _bw_add),
    "bias_add": _Op(_fw_bias_add, _bw_bias_add),
    "tanh": _Op(_fw_tanh, _bw_tanh),
    "relu": _Op(_fw_relu, _bw_relu),
    "row_concat": _Op(_fw_row_concat, _bw_row_concat),
    "l2norm_rows": _Op(_fw_l2norm_rows, _bw_l2norm_rows),
    "pairwise_dot": _Op(_fw_pairwise_dot, _bw_pairwise_dot),
    "scalar_mul": _Op(_fw_scalar_mul, _bw_scalar_mul),
    "softmax_xent": _Op(_fw_softmax_xent, _bw_softmax_xent),
}


class Node(NamedTuple):
    op: str  # one of _OPS, or the leaf kinds "input" / "param"
    inputs: tuple[int, ...]
    name: str | None = None  # leaf name
    const: float | None = None  # scalar_mul coefficient


class Graph:
    """Append-only computation graph. Node ids are topological by construction."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._input_ids: dict[str, int] = {}
        self._param_ids: dict[str, int] = {}
        self._plan: _Plan | None = None

    def _push(self, node: Node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def _check_id(self, i: int) -> int:
        if not (0 <= i < len(self.nodes)):
            raise ConfigError(f"unknown node id {i}")
        return i

    def input(self, name: str) -> int:
        if name in self._input_ids:
            return self._input_ids[name]
        if name in self._param_ids:
            raise ConfigError(f"{name!r} already used as a param leaf")
        i = self._push(Node("input", (), name=name))
        self._input_ids[name] = i
        return i

    def param(self, name: str) -> int:
        if name in self._param_ids:
            return self._param_ids[name]
        if name in self._input_ids:
            raise ConfigError(f"{name!r} already used as an input leaf")
        i = self._push(Node("param", (), name=name))
        self._param_ids[name] = i
        return i

    def matmul(self, a: int, b: int) -> int:
        return self._push(Node("matmul", (self._check_id(a), self._check_id(b))))

    def add(self, a: int, b: int) -> int:
        return self._push(Node("add", (self._check_id(a), self._check_id(b))))

    def bias_add(self, x: int, b: int) -> int:
        return self._push(Node("bias_add", (self._check_id(x), self._check_id(b))))

    def tanh(self, x: int) -> int:
        return self._push(Node("tanh", (self._check_id(x),)))

    def relu(self, x: int) -> int:
        return self._push(Node("relu", (self._check_id(x),)))

    def row_concat(self, a: int, b: int) -> int:
        return self._push(Node("row_concat", (self._check_id(a), self._check_id(b))))

    def l2norm_rows(self, x: int) -> int:
        return self._push(Node("l2norm_rows", (self._check_id(x),)))

    def pairwise_dot(self, u: int, v: int) -> int:
        return self._push(Node("pairwise_dot", (self._check_id(u), self._check_id(v))))

    def scalar_mul(self, x: int, c: float) -> int:
        c = float(c)
        if not np.isfinite(c):
            raise ConfigError(f"scalar_mul coefficient must be finite, got {c}")
        return self._push(Node("scalar_mul", (self._check_id(x),), const=c))

    def softmax_xent(self, logits: int) -> int:
        return self._push(Node("softmax_xent", (self._check_id(logits),)))

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(self._input_ids)

    def plan(self) -> "_Plan":
        """The compiled plan, rebuilt only after nodes were appended."""
        if self._plan is None or self._plan.size != len(self.nodes):
            self._plan = _Plan(self)
        return self._plan


class _Plan:
    """A graph compiled once: flat forward steps, plus backward steps per trainable set.

    A forward step is (node id, op, input ids, leaf name or scalar_mul
    coefficient). A backward step keeps only nodes that can reach a
    trainable parameter, and marks each input that cannot with None, so
    no adjoint is built for refs, mods, targets or frozen layers. Kernels
    are not bound here: every pass looks them up in _OPS, the registry
    selfcheck's fault injection patches.
    """

    __slots__ = ("size", "steps", "input_names", "_backward")

    def __init__(self, graph: "Graph"):
        self.size = len(graph.nodes)
        self.steps = tuple(
            (i, n.op, n.inputs, n.const if n.name is None else n.name)
            for i, n in enumerate(graph.nodes)
        )
        self.input_names = frozenset(graph.input_names)
        self._backward: dict[tuple[int, tuple[str, ...]], tuple] = {}

    def backward_steps(self, loss_node: int, trainable: tuple[str, ...]) -> tuple:
        key = (loss_node, trainable)
        steps = self._backward.get(key)
        if steps is None:
            wanted = set(trainable)
            live = [False] * self.size
            for i, op, ins, arg in self.steps:
                live[i] = arg in wanted if op == "param" else any(live[j] for j in ins)
            steps = tuple(
                (i, op, arg, tuple(j if live[j] else None for j in ins))
                for i, op, ins, arg in reversed(self.steps[: loss_node + 1])
                if live[i]
            )
            self._backward[key] = steps
        return steps


class Executor:
    """Runs a graph forward and, from the stored tape, backward.

    backward() before forward() is a StateError; forward() invalidates
    any previous tape, so grads always correspond to the latest values.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self._values: list | None = None
        self._ctx: list | None = None
        self._params: ParameterSet | None = None

    def forward(
        self,
        inputs: dict[str, np.ndarray],
        params: ParameterSet,
        output: int | None = None,
    ) -> np.ndarray:
        plan = self.graph.plan()
        if output is None:
            output = plan.size - 1
        if not (0 <= output < plan.size):
            raise ConfigError(f"output node id {output} out of range")
        unknown = set(inputs) - plan.input_names
        if unknown:
            raise ConfigError(f"unexpected inputs: {sorted(unknown)}")
        values: list = [None] * plan.size
        ctxs: list = [None] * plan.size
        ops = _OPS
        # Overflow is not a warning here: non-finite outputs raise below.
        with np.errstate(over="ignore", invalid="ignore"):
            for i, op, ins, arg in plan.steps:
                if op == "input":
                    if arg not in inputs:
                        raise ConfigError(f"missing input {arg!r}")
                    out = np.asarray(inputs[arg], dtype=np.float64)
                    if not np.isfinite(out).all():
                        raise NumericError(f"input {arg!r} has non-finite entries")
                elif op == "param":
                    if arg not in params:
                        raise ConfigError(f"missing param {arg!r}")
                    out = params[arg]
                else:
                    args = [values[j] for j in ins]
                    if arg is not None:  # the scalar_mul coefficient
                        args.append(arg)
                    out, ctxs[i] = ops[op].forward(i, *args)
                    if not np.isfinite(out).all():
                        raise NumericError(f"node {i} ({op}) produced non-finite values")
                values[i] = out
        self._values = values
        self._ctx = ctxs
        self._params = params
        _PASS_COUNTS["forward"] += 1
        return values[output]

    def backward(self, loss_node: int | None = None) -> GradientSet:
        if self._values is None or self._params is None:
            raise StateError("backward called before forward")
        plan = self.graph.plan()
        if loss_node is None:
            loss_node = plan.size - 1
        loss_val = self._values[loss_node]
        if np.ndim(loss_val) != 0 and np.size(loss_val) != 1:
            raise ShapeError(
                f"loss node {loss_node} is not scalar (shape {np.shape(loss_val)})"
            )
        params = self._params
        adjoints: list = [None] * plan.size
        adjoints[loss_node] = np.ones_like(loss_val)
        ctxs = self._ctx
        ops = _OPS
        grads: GradientSet = {}
        for i, op, arg, ins in plan.backward_steps(loss_node, params.trainable_names):
            g = adjoints[i]
            if g is None:
                continue
            if op == "param":
                grads[arg] = np.array(g, dtype=np.float64)
                continue
            in_grads = ops[op].backward(i, g, ctxs[i])
            for j, gj in zip(ins, in_grads):
                if j is None or gj is None:
                    continue
                # Adjoints are never updated in place, so aliasing gj is safe.
                prev = adjoints[j]
                adjoints[j] = gj if prev is None else prev + gj
        for name in params.trainable_names:
            if name not in grads:
                grads[name] = np.zeros_like(params[name])
        _PASS_COUNTS["backward"] += 1
        return grads


def finite_diff_gradient(
    loss_fn: Callable[[ParameterSet], float],
    params: ParameterSet,
    h: float = 1e-5,
) -> GradientSet:
    """Central-difference gradient of loss_fn over the trainable layers.

    Independent of the graph machinery on purpose: this is the oracle
    the backward rules are checked against. loss_fn must be a pure
    function of the parameter values.
    """
    if not (h > 0.0 and np.isfinite(h)):
        raise ConfigError(f"step size h must be positive and finite, got {h}")
    work = params.copy()
    grads: GradientSet = {}
    for name in params.trainable_names:
        flat = work[name].reshape(-1)
        out = np.zeros_like(flat)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = loss_fn(work)
            flat[k] = orig - h
            down = loss_fn(work)
            flat[k] = orig
            out[k] = (up - down) / (2.0 * h)
        grads[name] = out.reshape(work[name].shape)
    return grads
