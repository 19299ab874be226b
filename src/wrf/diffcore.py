"""Reverse-mode differentiation over a small fixed operation set.

Graphs are declarative: build once with Graph methods, then run any
number of times through an Executor bound to concrete inputs and a
ParameterSet. A leaf name is bound once: a second input or param of
one name is a ConfigError, so a leaf used twice is one node with two
consumers. Everything is dense float64 numpy; every node a pass runs
is checked finite so a blow-up is reported at the node that produced it
instead of surfacing later as a silent NaN. The check stays per node
because a non-finite intermediate can vanish before the loss
(relu(-inf) is 0). It takes r.dot(r) over the output's ravel, which is
finite only when every entry is, and runs np.isfinite only when it is
not, to tell a sum of squares that overflows from a non-finite entry.

Below the entry points a check exists only where a misuse or an
overflow would otherwise give a wrong number without an error: a leaf
name bound twice, an unknown node id (a negative one indexes from the
end), the op shapes, the finite checks, l2norm_rows' row norms (x / inf
is a zero row) and backward of a non-scalar output.

A pass follows one plan, Graph.plan(output, trainable): forward steps
over only the nodes output needs, and backward steps over those of
them that can reach a trainable parameter, so no gradient is formed
for inputs or frozen layers. A forward to an intermediate node neither
computes nor checks the nodes after it, and Executor.backward
differentiates the forward's output. The graph caches one plan per
(output, trainable names); a node depends only on lower ids, so
appending nodes never changes an existing output's plan. Pruning
changes no bit of the gradient, one float64 array laid out like
ParameterSet.flat.

Softmax cross-entropy takes each row reduction once: forward keeps
exp(logits - row max) and its row sums, and the probabilities are
formed only in backward, so forward-only passes never divide.

Forward donates buffers: when a value's only consumer runs, it writes
its output into that value's buffer (add into either input; bias_add,
tanh, scalar_mul and softmax_xent into the first) with the same ufunc
and out=, so no byte changes and every node is still checked finite.
Uses are counted among the pass's own nodes. Node i takes input j only
when j is an intermediate (not an input or param leaf), i is j's only
consumer in the pass (add(x, x) is two uses), j is not the pass's
output (which has no consumer in its own pass, so the count keeps it),
and j's producer does not pin it (tanh and l2norm_rows keep it in
their ctx; softmax_xent's is a scalar). Backward never writes, so it
is untouched.

The op set is deliberately tiny (ten ops). Each op is a (forward,
backward, donates, pins_output) entry in the _OPS registry, looked up on
every pass rather than bound into the plan; the selfcheck command relies
on that registry to inject a broken backward rule and prove the gradient
suite catches it.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .params import ParameterSet, carve

# Rows with L2 norm below this are mapped to zero by l2norm_rows instead
# of dividing by ~0. Their gradient is zero as well.
NORM_EPS = 1e-12

# Forward/backward invocation counters, package-wide. The trainer's
# two-pass structure is asserted against these in tests.
_PASS_COUNTS = {"forward": 0, "backward": 0}


def pass_counts() -> dict[str, int]:
    return dict(_PASS_COUNTS)


class _Op(NamedTuple):
    # forward: (node_id, *input_arrays, out=None) -> (output, ctx); given
    #   out (the buffer of an input named in donates), it writes its output
    #   there with the same ufunc
    # backward: (node_id, grad_out, ctx) -> tuple of input gradients
    # donates: positions of the inputs forward may overwrite
    # pins_output: the output must stay as produced, because the ctx keeps
    #   it or it is a numpy scalar with no buffer
    forward: Callable
    backward: Callable
    donates: tuple[int, ...]
    pins_output: bool


def _all_finite(a) -> bool:
    r = a.ravel()
    return math.isfinite(r.dot(r)) or bool(np.isfinite(r).all())


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


def _fw_add(i, a, b, out=None):
    if a.shape != b.shape:
        raise ShapeError(f"node {i} (add): shapes {a.shape} vs {b.shape}")
    return np.add(a, b, out=out), None


def _bw_add(i, g, ctx):
    return g, g


def _fw_bias_add(i, x, b, out=None):
    _require_2d(i, "bias_add", x, "input")
    if b.ndim != 1 or b.shape[0] != x.shape[1]:
        raise ShapeError(f"node {i} (bias_add): bias {b.shape} vs input {x.shape}")
    return np.add(x, b, out=out), None


def _bw_bias_add(i, g, ctx):
    return g, g.sum(axis=0)


def _fw_tanh(i, x, out=None):
    y = np.tanh(x, out=out)
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
    if not math.isfinite(norms.sum()):  # norms are >= 0: exact
        raise NumericError(f"node {i} (l2norm_rows) produced non-finite row norms")
    safe = norms > NORM_EPS
    if safe.all():  # the np.where form is x / norms, bit for bit; None marks it
        y, safe = x / norms, None
    else:
        y = np.where(safe, x / np.where(safe, norms, 1.0), 0.0)
    return y, (y, norms, safe)


def _bw_l2norm_rows(i, g, ctx):
    y, norms, safe = ctx
    # d/dx of x/|x| pushes g onto the tangent of the unit sphere.
    inner = (g * y).sum(axis=1, keepdims=True)
    gx = (g - inner * y) / (norms if safe is None else np.where(safe, norms, 1.0))
    return (gx if safe is None else np.where(safe, gx, 0.0),)


def _fw_pairwise_dot(i, u, v):
    _require_2d(i, "pairwise_dot", u, "left input")
    _require_2d(i, "pairwise_dot", v, "right input")
    if u.shape != v.shape:
        raise ShapeError(f"node {i} (pairwise_dot): shapes {u.shape} vs {v.shape}")
    return u @ v.T, (u, v)


def _bw_pairwise_dot(i, g, ctx):
    u, v = ctx
    return g @ v, g.T @ u


def _fw_scalar_mul(i, x, c, out=None):
    return np.multiply(c, x, out=out), c


def _bw_scalar_mul(i, g, c):
    return (c * g,)


def _fw_softmax_xent(i, logits, out=None):
    _require_2d(i, "softmax_xent", logits, "logits")
    n, m = logits.shape
    if n != m:
        raise ShapeError(f"node {i} (softmax_xent): logits must be square, got {logits.shape}")
    row_max = logits.max(axis=1, keepdims=True)
    diag = logits.diagonal().copy()  # out may be the logits' own buffer
    expd = np.subtract(logits, row_max, out=out)
    np.exp(expd, out=expd)
    sums = expd.sum(axis=1, keepdims=True)
    lse = np.log(sums[:, 0]) + row_max[:, 0]
    loss = np.float64((lse - diag).mean())
    return loss, (expd, sums)


def _bw_softmax_xent(i, g, ctx):
    # A fresh array: backward may run more than once on one tape, so ctx
    # is never written. Off the diagonal p - 0 is p exactly, so this is
    # (probs - eye(n)) * (g / n) bit for bit.
    expd, sums = ctx
    n = expd.shape[0]
    grad = expd / sums
    grad.flat[:: n + 1] -= 1.0
    grad *= float(g) / n
    return (grad,)


_OPS: dict[str, _Op] = {
    "matmul": _Op(_fw_matmul, _bw_matmul, (), False),
    "add": _Op(_fw_add, _bw_add, (0, 1), False),
    "bias_add": _Op(_fw_bias_add, _bw_bias_add, (0,), False),
    "tanh": _Op(_fw_tanh, _bw_tanh, (0,), True),
    "relu": _Op(_fw_relu, _bw_relu, (), False),
    "row_concat": _Op(_fw_row_concat, _bw_row_concat, (), False),
    "l2norm_rows": _Op(_fw_l2norm_rows, _bw_l2norm_rows, (), True),
    "pairwise_dot": _Op(_fw_pairwise_dot, _bw_pairwise_dot, (), False),
    "scalar_mul": _Op(_fw_scalar_mul, _bw_scalar_mul, (0,), False),
    "softmax_xent": _Op(_fw_softmax_xent, _bw_softmax_xent, (0,), True),
}


class Node(NamedTuple):
    op: str  # one of _OPS, or the leaf kinds "input" / "param"
    inputs: tuple[int, ...]
    arg: str | float | None = None  # leaf name, or the scalar_mul coefficient


class Graph:
    """Append-only computation graph. Node ids are topological by construction."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._leaves: dict[str, str] = {}  # leaf name -> "input" or "param"; one leaf per name
        self._plans: dict[tuple[int, tuple[str, ...]], tuple] = {}

    def _push(self, node: Node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def _check_id(self, i: int) -> int:
        if not (0 <= i < len(self.nodes)):
            raise ConfigError(f"unknown node id {i}")
        return i

    def _leaf(self, kind: str, name: str) -> int:
        if name in self._leaves:
            raise ConfigError(f"{name!r} is already a leaf of this graph ({self._leaves[name]})")
        self._leaves[name] = kind
        return self._push(Node(kind, (), name))

    def input(self, name: str) -> int:
        return self._leaf("input", name)

    def param(self, name: str) -> int:
        return self._leaf("param", name)

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
        return self._push(Node("scalar_mul", (self._check_id(x),), float(c)))

    def softmax_xent(self, logits: int) -> int:
        return self._push(Node("softmax_xent", (self._check_id(logits),)))

    def plan(self, output: int, trainable: tuple[str, ...]) -> tuple[tuple, tuple]:
        """(forward steps, backward steps) of one pass to output, over only
        the nodes output needs. A forward step is (node id, op, leaf name or
        coefficient, input ids, the input id whose buffer it overwrites or
        None); a backward step, from output down, keeps only nodes that can
        reach a trainable parameter, and an input that cannot is None, so
        no adjoint is built for refs, mods, targets or frozen layers.
        Kernels are not bound here: every pass looks them up in _OPS, the
        registry selfcheck's fault injection patches."""
        key = (self._check_id(output), trainable)
        plan = self._plans.get(key)
        if plan is None:
            nodes = self.nodes[: output + 1]
            needed = [False] * output + [True]
            for i in range(output, -1, -1):
                if needed[i]:
                    for j in nodes[i].inputs:
                        needed[j] = True
            steps = [(i, *node) for i, node in enumerate(nodes) if needed[i]]
            uses = Counter(j for _, _, ins, _ in steps for j in ins)

            def free(j):
                op = nodes[j].op
                return op in _OPS and uses[j] == 1 and not _OPS[op].pins_output

            forward = tuple(
                (i, op, arg, ins, next((ins[k] for k in _OPS[op].donates if free(ins[k])), None)
                 if op in _OPS else None)
                for i, op, ins, arg in steps
            )
            wanted, live = set(trainable), {}
            for i, op, ins, arg in steps:
                live[i] = arg in wanted if op == "param" else any(live[j] for j in ins)
            backward = tuple(
                (i, op, arg, tuple(j if live[j] else None for j in ins))
                for i, op, ins, arg in reversed(steps)
                if live[i]
            )
            plan = self._plans[key] = forward, backward
        return plan


class Executor:
    """Runs a graph forward to one output and, from the stored tape,
    backward from that output; each pass follows the graph's plan for
    (output, params.trainable_names).

    forward() replaces the tape, so backward() differentiates its latest pass.
    """

    def __init__(self, graph: Graph):
        self.graph = graph

    def forward(
        self,
        inputs: dict[str, np.ndarray],
        params: ParameterSet,
        output: int,
    ) -> np.ndarray:
        """The value of output; inputs it does not need are ignored."""
        forward, backward = self.graph.plan(output, params.trainable_names)
        values: list = [None] * len(self.graph.nodes)
        ctxs: list = [None] * len(values)
        ops = _OPS
        # Overflow is not a warning here: non-finite outputs raise below.
        with np.errstate(over="ignore", invalid="ignore"):
            for i, op, arg, ins, j in forward:
                if op == "input":
                    out = np.asarray(inputs[arg], dtype=np.float64)
                    if not _all_finite(out):
                        raise NumericError(f"input {arg!r} has non-finite entries")
                elif op == "param":
                    out = params[arg]
                else:
                    args = [values[k] for k in ins]
                    if arg is not None:  # the scalar_mul coefficient
                        args.append(arg)
                    if j is None:
                        out, ctxs[i] = ops[op].forward(i, *args)
                    else:
                        out, ctxs[i] = ops[op].forward(i, *args, out=values[j])
                        values[j] = None
                    if not _all_finite(out):
                        raise NumericError(f"node {i} ({op}) produced non-finite values")
                values[i] = out
        self._values, self._ctx, self._params = values, ctxs, params
        self._output, self._backward_steps = output, backward
        _PASS_COUNTS["forward"] += 1
        return values[output]

    def backward(self) -> np.ndarray:
        """The gradient of forward's output, laid out like params.flat; a
        trainable layer the output does not reach keeps its zeros."""
        out = self._output
        loss_val = self._values[out]
        if np.ndim(loss_val) != 0 and np.size(loss_val) != 1:
            raise ShapeError(f"loss node {out} is not scalar (shape {np.shape(loss_val)})")
        params = self._params
        adjoints: list = [None] * len(self._values)
        adjoints[out] = np.ones_like(loss_val)
        ctxs = self._ctx
        ops = _OPS
        grad = np.zeros(params.flat.size)
        views = carve(grad, params.spans)
        # Every step's node reaches out through steps before it, so its adjoint is set.
        for i, op, arg, ins in self._backward_steps:
            g = adjoints[i]
            if op == "param":
                views[arg][...] = g
                continue
            for j, gj in zip(ins, ops[op].backward(i, g, ctxs[i])):
                if j is not None:
                    # Adjoints are never updated in place, so aliasing gj is safe.
                    prev = adjoints[j]
                    adjoints[j] = gj if prev is None else prev + gj
        _PASS_COUNTS["backward"] += 1
        return grad


def finite_diff_gradient(
    loss_fn: Callable[[ParameterSet], float],
    params: ParameterSet,
    h: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of loss_fn over the trainable layers,
    laid out like params.flat.

    Independent of the graph machinery on purpose: this is the oracle
    the backward rules are checked against. loss_fn must be a pure
    function of the parameter values.
    """
    work = params.copy()
    flat, out = work.flat, np.zeros(work.flat.size)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        up = loss_fn(work)
        flat[k] = orig - h
        down = loss_fn(work)
        flat[k] = orig
        out[k] = (up - down) / (2.0 * h)
    return out
