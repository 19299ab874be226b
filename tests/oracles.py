"""Reference forms the tests check the package against.

Each function here is the plain, full-materialization version of
something the package computes a cheaper way: a full gallery sort for
the rank-of-target counting in ``wrf.evalkit`` and for the nearest
neighbour subsets in ``wrf.synthcir``, the contrastive loss on plain
arrays for the graph form in ``wrf.loss``, a node-by-node executor for
the compiled plan in ``wrf.diffcore``, and one forward plus one
backward through a graph's final node.
"""

import numpy as np

from wrf import diffcore
from wrf.diffcore import Executor, Graph
from wrf.errors import ConfigError, DataError, NumericError, ShapeError
from wrf.params import GradientSet, ParameterSet

# How far a row norm may drift from 1 before contrastive_q2t rejects it.
UNIT_NORM_ATOL = 1e-6


def rank_gallery(queries: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """(Q, G) gallery indices per query, best first; ties by ascending index."""
    if queries.ndim != 2 or gallery.ndim != 2 or queries.shape[1] != gallery.shape[1]:
        raise ShapeError(f"embedding dims do not match: {queries.shape} vs {gallery.shape}")
    scores = queries @ gallery.T
    return np.argsort(-scores, axis=1, kind="stable")


def target_ranks_by_sort(queries, gallery, targets, subsets=None):
    """Rank of each target in the full sorted gallery, and within its subset."""
    rankings = rank_gallery(queries, gallery)
    targets = np.asarray(targets)
    ranks = 1 + np.argmax(rankings == targets[:, None], axis=1)
    if subsets is None:
        return ranks
    sub_ranks = np.array([
        1 + [g for g in row if g in set(members.tolist())].index(t)
        for row, members, t in zip(rankings, subsets, targets)
    ])
    return ranks, sub_ranks


def nearest_subsets_by_sort(gallery: np.ndarray, targets: np.ndarray, subset_size: int) -> np.ndarray:
    """Target first, then the head of a full stable sort of its gallery scores."""
    scores = gallery[targets] @ gallery.T
    scores[np.arange(len(targets)), targets] = -np.inf
    order = np.argsort(-scores, axis=1, kind="stable")
    return np.concatenate(
        [targets[:, None], order[:, : subset_size - 1]], axis=1
    ).astype(np.uint32)


class NodeByNodeExecutor:
    """Walks the graph's node list on every pass, kernels from ``diffcore._OPS``.

    Same interface as ``Executor`` for forward and backward; it does no
    pass counting, checks every node, and backpropagates through every
    node, reachable from a trainable parameter or not.
    """

    def __init__(self, graph: Graph):
        self.graph = graph

    def forward(self, inputs, params, output=None):
        nodes = self.graph.nodes
        if output is None:
            output = len(nodes) - 1
        values: list = [None] * len(nodes)
        ctxs: list = [None] * len(nodes)
        for i, node in enumerate(nodes):
            if node.op == "input":
                values[i] = np.asarray(inputs[node.name], dtype=np.float64)
                continue
            if node.op == "param":
                values[i] = params[node.name]
                continue
            args = [values[j] for j in node.inputs]
            if node.op == "scalar_mul":
                args.append(node.const)
            with np.errstate(over="ignore", invalid="ignore"):
                out, ctx = diffcore._OPS[node.op].forward(i, *args)
            if not np.all(np.isfinite(out)):
                raise NumericError(f"node {i} ({node.op}) produced non-finite values")
            values[i], ctxs[i] = out, ctx
        self._values, self._ctx, self._params = values, ctxs, params
        return values[output]

    def backward(self, loss_node=None):
        nodes = self.graph.nodes
        if loss_node is None:
            loss_node = len(nodes) - 1
        adjoints: list = [None] * len(nodes)
        adjoints[loss_node] = np.ones_like(self._values[loss_node])
        params = self._params
        grads = {}
        for i in range(loss_node, -1, -1):
            g = adjoints[i]
            node = nodes[i]
            if g is None or node.op == "input":
                continue
            if node.op == "param":
                if params.is_trainable(node.name):
                    grads[node.name] = np.array(g, dtype=np.float64)
                continue
            in_grads = diffcore._OPS[node.op].backward(i, g, self._ctx[i])
            for j, gj in zip(node.inputs, in_grads):
                if adjoints[j] is None:
                    adjoints[j] = gj.copy() if isinstance(gj, np.ndarray) else np.asarray(gj)
                else:
                    adjoints[j] = adjoints[j] + gj
        for name in params.trainable_names:
            if name not in grads:
                grads[name] = np.zeros_like(params[name])
        return grads


def recall_at_k(rankings: np.ndarray, targets: np.ndarray, k: int) -> float:
    if k < 1:
        raise ConfigError(f"K must be >= 1, got {k}")
    if k > rankings.shape[1]:
        raise ConfigError(f"K={k} exceeds gallery size {rankings.shape[1]}")
    hits = (rankings[:, :k] == np.asarray(targets)[:, None]).any(axis=1)
    return float(100.0 * hits.mean())


def recall_subset_at_k(
    rankings: np.ndarray, subsets: np.ndarray, targets: np.ndarray, k: int
) -> float:
    """Recall after restricting each query's ranking to its candidate subset."""
    if not (1 <= k <= subsets.shape[1]):
        raise ConfigError(f"K must lie in [1, subset_size], got {k}")
    targets = np.asarray(targets)
    if not (subsets == targets[:, None]).any(axis=1).all():
        raise DataError("a candidate subset is missing its query's target")
    q, g = rankings.shape
    inv = np.empty_like(rankings)
    np.put_along_axis(inv, rankings, np.broadcast_to(np.arange(g), (q, g)), axis=1)
    member_pos = np.take_along_axis(inv, subsets.astype(np.int64), axis=1)
    target_pos = np.take_along_axis(inv, targets[:, None].astype(np.int64), axis=1)
    subset_rank = 1 + (member_pos < target_pos).sum(axis=1)
    return float(100.0 * (subset_rank <= k).mean())


def contrastive_q2t(queries: np.ndarray, targets: np.ndarray, tau: float = 10.0) -> float:
    """Contrastive loss on plain arrays.

    queries, targets: (B, d) with unit rows, B >= 2. Stabilized with the
    row-max trick so large tau stays finite.
    """
    tau = float(tau)
    if not (np.isfinite(tau) and tau > 0.0):
        raise ConfigError(f"temperature must be positive and finite, got {tau}")
    u = np.asarray(queries, dtype=np.float64)
    v = np.asarray(targets, dtype=np.float64)
    if u.ndim != 2 or v.ndim != 2 or u.shape != v.shape:
        raise ShapeError(f"expected matching (B, d) embeddings, got {u.shape} and {v.shape}")
    if u.shape[0] < 2:
        raise ValueError("contrastive loss needs a batch of at least two pairs")
    for role, mat in (("query", u), ("target", v)):
        norms = np.linalg.norm(mat, axis=1)
        drift = np.abs(norms - 1.0).max()
        if drift > UNIT_NORM_ATOL:
            raise ValueError(f"{role} rows are not unit-normalized (max drift {drift:.3e})")
    logits = tau * (u @ v.T)
    row_max = logits.max(axis=1)
    lse = row_max + np.log(np.exp(logits - row_max[:, None]).sum(axis=1))
    return float((lse - np.diag(logits)).mean())


def value_and_grad(
    graph: Graph, inputs: dict[str, np.ndarray], params: ParameterSet
) -> tuple[float, GradientSet]:
    """One forward plus one backward through the final (scalar) node."""
    ex = Executor(graph)
    loss = ex.forward(inputs, params)
    return float(np.ravel(loss)[0]), ex.backward()
