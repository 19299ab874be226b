"""Seeded synthetic composed-retrieval data.

Each modification code m owns a fixed random linear edit map A_m
(columns normalized), the first draw of the dataset's seeded stream.
A triplet is a reference vector drawn uniformly on the sphere, a code,
and the normalized image of the reference under that code's map plus
isotropic noise. Targets are edited one code group at a time through
that code's map, with no per-row copy of the maps; each row's
contraction, and so each byte, is what such a copy gives. The maps are
not kept, since neither training nor evaluation reads them; the tests
redraw them to check the noise-free targets. The gallery holds every
train and val target plus distractor targets built the same way from
held-out references, so distractors live on the same manifold and
retrieval is not trivially easy.

Candidate subsets (for subset recall) are built on first read, by one
neighbor search over all train and val targets, so wrf landscape never
builds them: each target plus its nearest gallery neighbors by dot
product, ties by ascending index, picked by subset_size - 1 rounds of
row argmax rather than a full sort of each row; the tests check them
against the full stable sort.
Fractional subsampling takes a prefix of one seeded permutation, so the
fractions used in data-size sweeps are nested.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError

_GEN_TAG = 0x41
_SUB_TAG = 0x42
# Score rows per argmax block in _nearest_subsets: 64 x 2048 float64 is
# 1 MiB, which stays in a 2 MiB per-core L2 across the k rounds.
_SUBSET_BLOCK = 64


@dataclass(frozen=True)
class DatasetConfig:
    d_ref: int = 32
    d_mod: int = 8
    n_mods: int = 8
    n_train: int = 512
    n_val: int = 512
    gallery_size: int = 2048
    noise_sigma: float = 0.1
    subset_size: int = 6
    seed: int = 0

    def __post_init__(self):
        if self.d_ref < 1 or self.d_mod < 1:
            raise ConfigError("d_ref and d_mod must be >= 1")
        if self.n_mods < 2:
            raise ConfigError("n_mods must be >= 2")
        if self.n_train < 1 or self.n_val < 1:
            raise ConfigError("n_train and n_val must be >= 1")
        if self.gallery_size < self.n_train + self.n_val:
            raise ConfigError(
                f"gallery_size must be >= n_train + n_val, got "
                f"{self.gallery_size} < {self.n_train + self.n_val}"
            )
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise ConfigError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not (2 <= self.subset_size <= self.gallery_size):
            raise ConfigError("subset_size must lie in [2, gallery_size]")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TripletTable:
    """Column-wise triplet storage; one row per query."""

    refs: np.ndarray  # (n, d_ref) float64, unit rows
    mod_codes: np.ndarray  # (n,) uint32
    target_indices: np.ndarray  # (n,) uint32

    def __post_init__(self):
        for arr in (self.refs, self.mod_codes, self.target_indices):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return self.refs.shape[0]

    def take(self, idx: np.ndarray) -> "TripletTable":
        return TripletTable(
            self.refs[idx].copy(),
            self.mod_codes[idx].copy(),
            self.target_indices[idx].copy(),
        )


class TripletBatch(NamedTuple):
    refs: np.ndarray
    mods: np.ndarray
    targets: np.ndarray


@dataclass(frozen=True)
class SynthDataset:
    train: TripletTable
    val: TripletTable
    gallery: np.ndarray  # (gallery_size, d_ref), unit rows
    mod_embeddings: np.ndarray  # (n_mods, d_mod), unit rows
    subset_size: int
    n_queries: int  # n_train + n_val: gallery rows 0..n_queries-1 are their targets

    def __post_init__(self):
        self.gallery.flags.writeable = False
        self.mod_embeddings.flags.writeable = False

    @functools.cached_property
    def candidates(self) -> np.ndarray:
        """Row t is target t's candidate subset; a table reads candidates[table.target_indices]."""
        subsets = _nearest_subsets(
            self.gallery, np.arange(self.n_queries, dtype=np.uint32), self.subset_size)
        subsets.flags.writeable = False
        return subsets

    def batch(self, table: TripletTable, rows) -> TripletBatch:
        """The model inputs of table's rows (an index array or a slice)."""
        return TripletBatch(
            table.refs[rows],
            self.mod_embeddings[table.mod_codes[rows]],
            self.gallery[table.target_indices[rows]],
        )


def _unit_rows(arr: np.ndarray, what: str, cause: str = "") -> np.ndarray:
    norms = np.linalg.norm(arr, axis=1, keepdims=True)
    if not np.all(np.isfinite(norms)):
        raise DataError(f"degenerate {what}: non-finite row norm while normalizing{cause}")
    if np.any(norms < 1e-12):
        raise DataError(f"degenerate {what}: zero-norm row while normalizing")
    return arr / norms


def _nearest_subsets(gallery: np.ndarray, targets: np.ndarray, subset_size: int) -> np.ndarray:
    """Target first, then its (subset_size - 1) nearest gallery rows.

    Nearest is by descending dot product, ties by ascending gallery
    index. After one score GEMM, each block of _SUBSET_BLOCK rows masks
    its targets' scores to -inf, then fills columns 1..subset_size-1 by
    one round of row argmax each, masking every winner to -inf. argmax
    returns the first of equal maxima, so round c picks the lowest index
    among the best scores not yet picked: entry c of a full stable
    descending sort of the row.
    """
    scores = gallery[targets] @ gallery.T
    subsets = np.empty((len(targets), subset_size), dtype=np.uint32)
    subsets[:, 0] = targets
    for start in range(0, len(targets), _SUBSET_BLOCK):
        block = scores[start : start + _SUBSET_BLOCK]
        out = subsets[start : start + _SUBSET_BLOCK]
        rows = np.arange(len(block))
        block[rows, out[:, 0]] = -np.inf
        for c in range(1, subset_size):
            out[:, c] = block.argmax(axis=1)
            block[rows, out[:, c]] = -np.inf
    return subsets


# Overflow is not a warning here: _unit_rows rejects a non-finite row
# norm with a DataError that names noise_sigma.
@np.errstate(over="ignore")
def generate(config: DatasetConfig) -> SynthDataset:
    """Build the full dataset from the config seed."""
    rng = np.random.default_rng([_GEN_TAG, config.seed])
    d, m = config.d_ref, config.n_mods
    maps = rng.standard_normal((m, d, d))
    maps /= np.linalg.norm(maps, axis=1, keepdims=True)  # unit columns
    mod_embeddings = _unit_rows(rng.standard_normal((m, config.d_mod)), "mod embedding")

    total = config.gallery_size  # train + val + distractors, all built alike
    refs = _unit_rows(rng.standard_normal((total, d)), "reference")
    codes = rng.integers(0, m, size=total).astype(np.uint32)
    noise = rng.standard_normal((total, d))
    raw = np.empty((total, d))
    for c in range(m):  # one map per code group: no per-row copy of the maps
        rows = np.flatnonzero(codes == c)
        raw[rows] = np.einsum("ij,nj->ni", maps[c], refs[rows])
    raw += config.noise_sigma * noise
    # Unit refs and unit-column maps bound ||A r|| by sqrt(d), so only the noise can overflow.
    gallery = _unit_rows(raw, "target", f" (noise_sigma={config.noise_sigma!r} is too large)")

    n_tr, n_va = config.n_train, config.n_val
    all_idx = np.arange(total, dtype=np.uint32)
    train = TripletTable(refs[:n_tr].copy(), codes[:n_tr].copy(), all_idx[:n_tr].copy())
    val = TripletTable(
        refs[n_tr : n_tr + n_va].copy(),
        codes[n_tr : n_tr + n_va].copy(),
        all_idx[n_tr : n_tr + n_va].copy(),
    )
    return SynthDataset(train, val, gallery, mod_embeddings, config.subset_size, n_tr + n_va)


def subsample_dataset(dataset: SynthDataset, fraction: float, seed: int) -> SynthDataset:
    """Same dataset with a seeded sample of ceil(fraction * n) train rows.

    Shared seed gives nested subsets: the sample is a prefix of one
    permutation, so fraction 0.2 is contained in fraction 0.4. Row order
    of the train table is preserved; val and gallery are untouched.
    """
    if fraction == 1.0:
        return dataset
    n = len(dataset.train)
    perm = np.random.default_rng([_SUB_TAG, seed]).permutation(n)
    train = dataset.train.take(np.sort(perm[: math.ceil(fraction * n)]))
    return replace(dataset, train=train)
