"""Retrieval metrics and loss-landscape probes.

Ranking is by descending dot product with ties broken by ascending
gallery index, everywhere, including inside candidate subsets (the
global order restricted to the subset). recall_report counts the rank
of each query's target instead of materializing full rankings, and
takes the global and the subset ranks from one Q x G score matrix; the
index-ordered tie count runs only on rows where another entry ties the
target's score. The tests check the ranks against a full-sort
reference ranking.

A landscape direction is a random perturbation at budget 1: standard
normal entries per trainable layer, rescaled to that layer's weight
norm, drawn from a stream seeded per direction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import worker
from .errors import ConfigError, DataError, NumericError, ShapeError
from .params import ParameterSet
from .perturb import random_perturbation

_DIR_TAG = 0x51


@dataclass(frozen=True)
class MetricReport:
    split: str
    recall_at: dict[int, float]
    rmean: float
    recall_subset_at: dict[int, float] | None = None


def _check_embeddings(queries: np.ndarray, gallery: np.ndarray) -> None:
    if queries.ndim != 2 or gallery.ndim != 2 or queries.shape[1] != gallery.shape[1]:
        raise ShapeError(
            f"embedding dims do not match: {queries.shape} vs {gallery.shape}"
        )


def _count_rows(mask: np.ndarray) -> np.ndarray:
    """True entries per row of a 2-d bool array, summed over its bytes.

    A uint16 accumulator is exact below 2**16 columns and several times
    faster than a bool sum; wider arrays fall back to int64.
    """
    acc = np.uint16 if mask.shape[1] < 2**16 else np.int64
    return mask.view(np.uint8).sum(axis=1, dtype=acc).astype(np.int64)


def _ranks(scores: np.ndarray, own: np.ndarray, index: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """1 + entries scoring above own + entries tied with own at a lower gallery index.

    index holds each column's gallery index (broadcastable to scores).
    The target itself always ties with own, so only rows with a second
    tie need the index-ordered count.
    """
    ranks = 1 + _count_rows(scores > own)
    tied = scores == own
    rows = np.flatnonzero(_count_rows(tied) > 1)
    if rows.size:
        index = np.broadcast_to(index, scores.shape)[rows]
        ranks[rows] += _count_rows(tied[rows] & (index < targets[rows, None]))
    return ranks


def target_ranks(
    query_embs: np.ndarray,
    gallery_embs: np.ndarray,
    targets: np.ndarray,
    subsets: np.ndarray | None = None,
):
    """1-based global rank of each query's target; ties by ascending index.

    With candidate subsets, returns (global ranks, subset ranks), both
    counted from one Q x G score matrix; a subset rank is the target's
    rank within its subset, global order preserved.
    """
    _check_embeddings(query_embs, gallery_embs)
    targets = np.asarray(targets, dtype=np.int64)
    if subsets is not None and not (subsets == targets[:, None]).any(axis=1).all():
        raise DataError("a candidate subset is missing its query's target")
    scores = query_embs @ gallery_embs.T
    own = np.take_along_axis(scores, targets[:, None], axis=1)
    ranks = _ranks(scores, own, np.arange(scores.shape[1]), targets)
    if subsets is None:
        return ranks
    sub = np.take_along_axis(scores, subsets.astype(np.int64), axis=1)
    return ranks, _ranks(sub, own, subsets, targets)


def subset_target_ranks(
    query_embs: np.ndarray,
    gallery_embs: np.ndarray,
    subsets: np.ndarray,
    targets: np.ndarray,
) -> np.ndarray:
    """1-based rank of the target within its subset, global order preserved."""
    return target_ranks(query_embs, gallery_embs, targets, subsets)[1]


def recall_report(
    query_embs: np.ndarray,
    gallery_embs: np.ndarray,
    targets: np.ndarray,
    subsets: np.ndarray | None,
    ks: Sequence[int],
    split: str,
    subset_ks: Sequence[int] = (1,),
) -> MetricReport:
    if not ks:
        raise ConfigError("need at least one K value")
    _check_embeddings(query_embs, gallery_embs)
    for k in ks:
        if not (1 <= int(k) <= gallery_embs.shape[0]):
            raise ConfigError(f"K={int(k)} outside [1, gallery size]")
    if subsets is None:
        ranks, recall_subset_at = target_ranks(query_embs, gallery_embs, targets), None
    else:
        ranks, sub_ranks = target_ranks(query_embs, gallery_embs, targets, subsets)
        recall_subset_at = {
            int(k): float(100.0 * (sub_ranks <= k).mean()) for k in subset_ks
        }
    recall_at = {int(k): float(100.0 * (ranks <= k).mean()) for k in ks}
    rmean = float(np.mean(list(recall_at.values())))
    return MetricReport(split, recall_at, rmean, recall_subset_at)


def generalization_gap(train_report: MetricReport, val_report: MetricReport) -> float:
    """Train rmean minus val rmean; both reports must use the same K set."""
    if set(train_report.recall_at) != set(val_report.recall_at):
        raise ConfigError("reports use different K sets")
    return train_report.rmean - val_report.rmean


@dataclass(frozen=True)
class LandscapeCurve:
    direction_id: int
    alphas: np.ndarray
    losses: np.ndarray  # may contain nan/inf where the loss blew up


def default_alpha_grid(alpha_max: float = 0.1, half_steps: int = 10) -> np.ndarray:
    """Symmetric grid with an exact 0 at the center (21 points by default)."""
    if not (alpha_max > 0 and half_steps >= 1):
        raise ConfigError("need alpha_max > 0 and half_steps >= 1")
    return np.arange(-half_steps, half_steps + 1) * (alpha_max / half_steps)


def _check_alphas(alphas: np.ndarray) -> np.ndarray:
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.ndim != 1 or len(alphas) < 1:
        raise ConfigError("alpha grid must be a 1-d sequence")
    if np.any(np.diff(alphas) <= 0):
        raise ConfigError("alpha grid must be strictly increasing")
    if not np.any(alphas == 0.0):
        raise ConfigError("alpha grid must include 0")
    return alphas


def landscape_probe(
    loss_fn: Callable[[ParameterSet], float],
    params: ParameterSet,
    n_directions: int,
    alphas: Iterable[float],
    seed: int = 0,
) -> list[LandscapeCurve]:
    """Loss slices along seeded random directions, one curve per direction.

    Directions are rescaled per trainable layer to match that layer's
    weight norm, so slices are comparable across checkpoints. A
    non-finite loss is recorded as nan in the curve rather than raised,
    but non-finite params raise NumericError: every curve would be nan.
    The input params are never modified.

    With two or more directions and worker.available(), the directions
    from ceil(n/2) on run in a forked worker while this process runs the
    rest, so loss_fn may run in a forked child: its side effects, and
    the diffcore.pass_counts() of its passes, stay there. Each direction
    has its own stream, so the curves are the same on either path.
    """
    if n_directions < 1:
        raise ConfigError("n_directions must be >= 1")
    alphas = _check_alphas(alphas)
    params.require_finite()

    def curves(d_ids: range) -> list[LandscapeCurve]:
        out = []
        for d_id in d_ids:
            pert = random_perturbation(params, 1.0, np.random.default_rng([_DIR_TAG, seed, d_id]))
            losses = np.empty(len(alphas))
            for j, alpha in enumerate(alphas):
                if alpha == 0.0:
                    probe = params  # the alpha=0 row is the exact base loss
                else:
                    probe = params.copy()
                    for name, d_l in pert.deltas.items():
                        arr = probe[name]
                        arr += alpha * d_l
                try:
                    val = float(loss_fn(probe))
                except NumericError:
                    val = float("nan")
                losses[j] = val if np.isfinite(val) else float("nan")
            out.append(LandscapeCurve(d_id, alphas.copy(), losses))
        return out

    half = (n_directions + 1) // 2
    if half == n_directions:
        return curves(range(n_directions))
    with worker.forked(curves, "landscape worker") as submit:
        rest = submit(range(half, n_directions))
        return curves(range(half)) + rest()


def flatness_score(curves: Sequence[LandscapeCurve], alpha: float = 0.05) -> float:
    """Mean over directions of loss(alpha) - loss(0)."""
    if not curves:
        raise ConfigError("need at least one curve")
    increases = []
    for curve in curves:
        at = int(np.argmin(np.abs(curve.alphas - alpha)))
        if abs(curve.alphas[at] - alpha) > 1e-9:
            raise ConfigError(f"alpha={alpha} not on the probe grid")
        zero = int(np.argmin(np.abs(curve.alphas)))
        increases.append(curve.losses[at] - curve.losses[zero])
    return float(np.mean(increases))


def landscape_to_csv(curves: Sequence[LandscapeCurve], path: str | os.PathLike) -> None:
    lines = ["direction_id,alpha,loss"]
    for curve in curves:
        for alpha, val in zip(curve.alphas, curve.losses):
            lines.append(f"{curve.direction_id},{repr(float(alpha))},{repr(float(val))}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
