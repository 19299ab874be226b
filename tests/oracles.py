"""Reference forms the tests check the package against.

Each function here is the plain, full-materialization version of
something the package computes a cheaper way: a full gallery sort for
the rank-of-target counting in ``wrf.evalkit``, the contrastive loss on
plain arrays for the graph form in ``wrf.loss``, and one forward plus
one backward through a graph's final node.
"""

import numpy as np

from wrf.diffcore import Executor, Graph
from wrf.errors import ConfigError, DataError, ShapeError
from wrf.params import GradientSet, ParameterSet

# How far a row norm may drift from 1 before contrastive_q2t rejects it.
UNIT_NORM_ATOL = 1e-6


def rank_gallery(queries: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """(Q, G) gallery indices per query, best first; ties by ascending index."""
    if queries.ndim != 2 or gallery.ndim != 2 or queries.shape[1] != gallery.shape[1]:
        raise ShapeError(f"embedding dims do not match: {queries.shape} vs {gallery.shape}")
    scores = queries @ gallery.T
    return np.argsort(-scores, axis=1, kind="stable")


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
