"""Dataset generation and nested train subsampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrf.errors import ConfigError
from wrf.synthcir import (
    DatasetConfig,
    _nearest_subsets,
    generate,
    subsample,
    subsample_dataset,
)

from oracles import nearest_subsets_by_sort

SMALL = DatasetConfig(
    d_ref=8, d_mod=4, n_mods=3, n_train=40, n_val=30, gallery_size=120,
    noise_sigma=0.05, subset_size=4, seed=7,
)


@pytest.fixture(scope="module")
def small_ds():
    return generate(SMALL)


def test_counts_and_split_layout(small_ds):
    ds = small_ds
    assert len(ds.train) == 40 and len(ds.val) == 30
    assert ds.gallery.shape == (120, 8)
    assert ds.mod_embeddings.shape == (3, 4)
    # Train targets occupy the first gallery rows, then val, then distractors.
    assert np.array_equal(ds.train.target_indices, np.arange(40))
    assert np.array_equal(ds.val.target_indices, np.arange(40, 70))


def test_generation_is_deterministic(small_ds):
    again = generate(SMALL)
    assert np.array_equal(again.gallery, small_ds.gallery)
    assert np.array_equal(again.train.refs, small_ds.train.refs)
    assert np.array_equal(again.train.mod_codes, small_ds.train.mod_codes)
    assert np.array_equal(again.mod_embeddings, small_ds.mod_embeddings)
    different = generate(DatasetConfig(**{**SMALL.__dict__, "seed": 8}))
    assert not np.array_equal(different.gallery, small_ds.gallery)


def test_rows_are_unit_norm(small_ds):
    for mat in (small_ds.gallery, small_ds.train.refs, small_ds.val.refs, small_ds.mod_embeddings):
        np.testing.assert_allclose(np.linalg.norm(mat, axis=1), 1.0, atol=1e-12)


def test_edit_maps_have_unit_columns(small_ds):
    norms = np.linalg.norm(small_ds.edit_maps, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_subsets_contain_target_first(small_ds):
    for table in (small_ds.train, small_ds.val):
        assert table.subsets.shape[1] == SMALL.subset_size
        assert np.array_equal(table.subsets[:, 0], table.target_indices)
        assert len(set(map(tuple, table.subsets))) == len(table)  # rows distinct


@pytest.mark.parametrize("subset_size", [2, 4, 6, 120])
def test_generated_subsets_equal_a_full_stable_sort(subset_size):
    cfg = DatasetConfig(**{**SMALL.__dict__, "subset_size": subset_size})
    ds = generate(cfg)
    targets = np.arange(70, dtype=np.uint32)
    want = nearest_subsets_by_sort(ds.gallery, targets, subset_size)
    got = np.concatenate([ds.train.subsets, ds.val.subsets])
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_nearest_subsets_break_ties_like_a_full_stable_sort():
    # Duplicate rows of a few vectors tie at, above and below every
    # row's selection threshold.
    rng = np.random.default_rng(3)
    base = rng.normal(size=(4, 3))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    gallery = base[rng.integers(0, 4, size=40)]
    targets = np.arange(40, dtype=np.uint32)
    for subset_size in (2, 3, 7, 11, 25, 40):
        want = nearest_subsets_by_sort(gallery, targets, subset_size)
        got = _nearest_subsets(gallery, targets, subset_size)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), subset_size


def test_identity_edits_no_noise_recover_references():
    cfg = DatasetConfig(
        d_ref=6, d_mod=3, n_mods=2, n_train=20, n_val=20, gallery_size=64,
        noise_sigma=0.0, subset_size=3, seed=1,
    )
    eye = np.tile(np.eye(6), (2, 1, 1))
    ds = generate(cfg, edit_maps=eye)
    # Targets are the re-normalized references; equality holds to the
    # last-ulp wobble the extra normalization introduces.
    np.testing.assert_allclose(ds.gallery[:20], ds.train.refs, atol=1e-15, rtol=0)
    # And a model applying the true (identity) edit retrieves at R@1=100.
    scores = ds.train.refs @ ds.gallery.T
    top = scores.argmax(axis=1)
    assert np.array_equal(top, ds.train.target_indices)


def test_bayes_oracle_is_perfect_without_noise():
    cfg = DatasetConfig(
        d_ref=8, d_mod=4, n_mods=3, n_train=30, n_val=30, gallery_size=100,
        noise_sigma=0.0, subset_size=3, seed=3,
    )
    ds = generate(cfg)
    for table in (ds.train, ds.val):
        ideal = np.einsum("nij,nj->ni", ds.edit_maps[table.mod_codes], table.refs)
        ideal /= np.linalg.norm(ideal, axis=1, keepdims=True)
        top = (ideal @ ds.gallery.T).argmax(axis=1)
        assert np.array_equal(top, table.target_indices)


def test_config_validation():
    with pytest.raises(ConfigError):
        DatasetConfig(gallery_size=100, n_train=80, n_val=30)
    with pytest.raises(ConfigError):
        DatasetConfig(n_mods=1)
    with pytest.raises(ConfigError):
        DatasetConfig(noise_sigma=-0.1)
    with pytest.raises(ConfigError):
        DatasetConfig(subset_size=1)


def test_tables_are_read_only(small_ds):
    with pytest.raises(ValueError):
        small_ds.gallery[0, 0] = 5.0
    with pytest.raises(ValueError):
        small_ds.train.refs[0, 0] = 5.0


def test_subsample_counts_and_membership(small_ds):
    sub = subsample(small_ds.train, 0.5, seed=0)
    assert len(sub) == 20
    original = set(small_ds.train.target_indices.tolist())
    assert set(sub.target_indices.tolist()) <= original


def test_subsample_identity_and_validation(small_ds):
    assert subsample(small_ds.train, 1.0, seed=0) is small_ds.train
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ConfigError):
            subsample(small_ds.train, bad, seed=0)


def test_subsample_nesting(small_ds):
    fractions = [0.2, 0.4, 0.6, 0.8, 1.0]
    picks = [
        set(subsample(small_ds.train, f, seed=11).target_indices.tolist())
        for f in fractions
    ]
    for smaller, larger in zip(picks[:-1], picks[1:]):
        assert smaller <= larger


@settings(deadline=None, max_examples=30)
@given(
    st.integers(0, 10_000),
    st.floats(0.01, 1.0, exclude_max=True),
    st.floats(0.01, 1.0, exclude_max=True),
)
def test_subsample_properties(seed, f1, f2):
    ds = generate(SMALL)
    lo, hi = sorted((f1, f2))
    a = subsample(ds.train, lo, seed=seed)
    b = subsample(ds.train, hi, seed=seed)
    assert len(a) == int(np.ceil(lo * len(ds.train)))
    assert set(a.target_indices.tolist()) <= set(b.target_indices.tolist())


def test_subsample_dataset_keeps_val_and_gallery(small_ds):
    sub = subsample_dataset(small_ds, 0.5, seed=2)
    assert len(sub.train) == 20
    assert sub.val is small_ds.val
    assert sub.gallery is small_ds.gallery
