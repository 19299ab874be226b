"""Seeded synthetic composed-retrieval data.

Each modification code m owns a fixed random linear edit map A_m
(columns normalized). A triplet is a reference vector drawn uniformly
on the sphere, a code, and the normalized image of the reference under
that code's map plus isotropic noise. The gallery holds every train and
val target plus distractor targets built the same way from held-out
references, so distractors live on the same manifold and retrieval is
not trivially easy.

Per-query candidate subsets (for subset recall) are the target plus its
nearest gallery neighbors by dot product, ties by ascending index,
found by partial selection rather than a full sort of each row; the
tests check them against the full stable sort. Fractional subsampling takes
a prefix of one seeded permutation, so the fractions used in data-size
sweeps are nested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

_GEN_TAG = 0x41
_SUB_TAG = 0x42


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


@dataclass(frozen=True)
class TripletTable:
    """Column-wise triplet storage; one row per query.

    subsets[i] is query i's candidate list for subset recall: its
    target first, then the nearest gallery neighbors of that target.
    """

    refs: np.ndarray  # (n, d_ref) float64, unit rows
    mod_codes: np.ndarray  # (n,) uint32
    target_indices: np.ndarray  # (n,) uint32
    subsets: np.ndarray  # (n, subset_size) uint32

    def __post_init__(self):
        n = self.refs.shape[0]
        if self.refs.ndim != 2:
            raise DataError("refs must be 2-d")
        for name in ("mod_codes", "target_indices"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise DataError(f"{name} must have shape ({n},), got {arr.shape}")
        if self.subsets.ndim != 2 or self.subsets.shape[0] != n:
            raise DataError("subsets must be (n, subset_size)")
        if n and not (self.subsets == self.target_indices[:, None]).any(axis=1).all():
            raise DataError("every subset must contain its query's target index")
        for arr in (self.refs, self.mod_codes, self.target_indices, self.subsets):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return self.refs.shape[0]

    def take(self, idx: np.ndarray) -> "TripletTable":
        return TripletTable(
            self.refs[idx].copy(),
            self.mod_codes[idx].copy(),
            self.target_indices[idx].copy(),
            self.subsets[idx].copy(),
        )


@dataclass(frozen=True)
class SynthDataset:
    config: DatasetConfig
    train: TripletTable
    val: TripletTable
    gallery: np.ndarray  # (gallery_size, d_ref), unit rows
    mod_embeddings: np.ndarray  # (n_mods, d_mod), unit rows
    edit_maps: np.ndarray | None = None  # kept in memory only; oracle access

    def __post_init__(self):
        self.gallery.flags.writeable = False
        self.mod_embeddings.flags.writeable = False


def _unit_rows(arr: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(arr, axis=1, keepdims=True)
    if np.any(norms < 1e-12):
        raise DataError(f"degenerate {what}: zero-norm row while normalizing")
    return arr / norms


def _nearest_subsets(gallery: np.ndarray, targets: np.ndarray, subset_size: int) -> np.ndarray:
    """Target first, then its (subset_size - 1) nearest gallery rows.

    Nearest is by descending dot product, ties by ascending gallery
    index. Each row keeps as candidates every column scoring at least
    its k-th best score (k = subset_size - 1, found by np.partition, so
    every tie at that threshold is kept) and sorts only those, stably;
    this picks exactly the first k columns of a full stable sort.
    """
    k = subset_size - 1
    neg = -(gallery[targets] @ gallery.T)  # ascending neg = descending score
    neg[np.arange(len(targets)), targets] = np.inf
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1 : k]
    candidate = neg <= kth
    rows, cols = np.nonzero(candidate)  # row-major: columns ascend within a row
    order = np.lexsort((neg[rows, cols], rows))
    counts = np.count_nonzero(candidate, axis=1)
    starts = np.cumsum(counts) - counts
    nearest = cols[order][starts[:, None] + np.arange(k)]
    return np.concatenate([targets[:, None], nearest], axis=1).astype(np.uint32)


def generate(config: DatasetConfig, edit_maps: np.ndarray | None = None) -> SynthDataset:
    """Build the full dataset from the config seed.

    edit_maps overrides the drawn maps (shape (n_mods, d_ref, d_ref));
    it exists so tests can install identity edits and check the
    noise-free oracle.
    """
    rng = np.random.default_rng([_GEN_TAG, config.seed])
    d, m = config.d_ref, config.n_mods
    if edit_maps is None:
        maps = rng.standard_normal((m, d, d))
        maps /= np.linalg.norm(maps, axis=1, keepdims=True)  # unit columns
    else:
        maps = np.asarray(edit_maps, dtype=np.float64)
        if maps.shape != (m, d, d):
            raise ConfigError(f"edit_maps must have shape {(m, d, d)}, got {maps.shape}")
    mod_embeddings = _unit_rows(rng.standard_normal((m, config.d_mod)), "mod embedding")

    total = config.gallery_size  # train + val + distractors, all built alike
    refs = _unit_rows(rng.standard_normal((total, d)), "reference")
    codes = rng.integers(0, m, size=total).astype(np.uint32)
    noise = rng.standard_normal((total, d))
    raw = np.einsum("nij,nj->ni", maps[codes], refs) + config.noise_sigma * noise
    gallery = _unit_rows(raw, "target")

    n_tr, n_va = config.n_train, config.n_val
    all_idx = np.arange(total, dtype=np.uint32)
    subsets = _nearest_subsets(gallery, all_idx[: n_tr + n_va], config.subset_size)
    train = TripletTable(
        refs[:n_tr].copy(), codes[:n_tr].copy(), all_idx[:n_tr].copy(), subsets[:n_tr]
    )
    val = TripletTable(
        refs[n_tr : n_tr + n_va].copy(),
        codes[n_tr : n_tr + n_va].copy(),
        all_idx[n_tr : n_tr + n_va].copy(),
        subsets[n_tr:],
    )
    return SynthDataset(config, train, val, gallery, mod_embeddings, edit_maps=maps)


def subsample(table: TripletTable, fraction: float, seed: int) -> TripletTable:
    """Seeded sample without replacement of ceil(fraction * n) rows.

    Shared seed gives nested subsets: the sample is a prefix of one
    permutation, so subsample(0.2) is contained in subsample(0.4).
    Row order of the original table is preserved.
    """
    if not (0.0 < fraction <= 1.0):
        raise ConfigError(f"fraction must lie in (0, 1], got {fraction}")
    if fraction == 1.0:
        return table
    n = len(table)
    count = math.ceil(fraction * n)
    perm = np.random.default_rng([_SUB_TAG, seed]).permutation(n)
    return table.take(np.sort(perm[:count]))


def subsample_dataset(dataset: SynthDataset, fraction: float, seed: int) -> SynthDataset:
    """Same dataset with a subsampled train table; val and gallery untouched."""
    if fraction == 1.0:
        return dataset
    return SynthDataset(
        dataset.config,
        subsample(dataset.train, fraction, seed),
        dataset.val,
        dataset.gallery,
        dataset.mod_embeddings,
        dataset.edit_maps,
    )
