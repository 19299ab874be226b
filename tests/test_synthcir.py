"""Dataset generation and nested train subsampling."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrf.errors import ConfigError, DataError
from wrf.synthcir import (
    DatasetConfig,
    _nearest_subsets,
    generate,
    subsample_dataset,
)

from oracles import edit_maps, gallery_by_gather, nearest_subsets_by_sort

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


@pytest.mark.parametrize("noise_sigma", [1e300, 1e308])
def test_a_non_finite_target_norm_is_a_data_error_without_a_warning(noise_sigma):
    cfg = DatasetConfig(**{**SMALL.__dict__, "noise_sigma": noise_sigma})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError) as caught:
            generate(cfg)
    # Unit refs and unit-column maps keep ||A r|| <= sqrt(d_ref): only the noise overflows.
    assert str(caught.value) == ("degenerate target: non-finite row norm while normalizing "
                                 f"(noise_sigma={noise_sigma!r} is too large)")


def test_subsets_contain_target_first(small_ds):
    for table in (small_ds.train, small_ds.val):
        subsets = small_ds.candidates[table.target_indices]
        assert subsets.shape[1] == SMALL.subset_size
        assert np.array_equal(subsets[:, 0], table.target_indices)
        assert len(set(map(tuple, subsets))) == len(table)  # rows distinct


@pytest.mark.parametrize("subset_size", [2, 4, 6, 120])
def test_generated_subsets_equal_a_full_stable_sort(subset_size):
    cfg = DatasetConfig(**{**SMALL.__dict__, "subset_size": subset_size})
    ds = generate(cfg)
    targets = np.arange(70, dtype=np.uint32)
    want = nearest_subsets_by_sort(ds.gallery, targets, subset_size)
    got = np.concatenate([ds.candidates[t.target_indices] for t in (ds.train, ds.val)])
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_nearest_subsets_break_ties_like_a_full_stable_sort():
    # Duplicate rows of a few vectors tie in large groups in every row.
    # 150 rows fill two 64-row argmax blocks and part of a third.
    rng = np.random.default_rng(3)
    base = rng.normal(size=(4, 3))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    for n, subset_sizes in ((40, (2, 3, 7, 11, 25, 40)), (150, range(2, 151))):
        gallery = base[rng.integers(0, 4, size=n)]
        targets = np.arange(n, dtype=np.uint32)
        for subset_size in subset_sizes:
            want = nearest_subsets_by_sort(gallery, targets, subset_size)
            got = _nearest_subsets(gallery, targets, subset_size)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n, subset_size)


NOISE_FREE = DatasetConfig(
    d_ref=8, d_mod=4, n_mods=3, n_train=30, n_val=30, gallery_size=100,
    noise_sigma=0.0, subset_size=3, seed=3,
)


def _edited(config, table):
    """Each row's reference under its code's edit map, normalized."""
    ideal = np.einsum("nij,nj->ni", edit_maps(config)[table.mod_codes], table.refs)
    return ideal / np.linalg.norm(ideal, axis=1, keepdims=True)


def test_noise_free_targets_are_normalized_edits_of_their_references():
    ds = generate(NOISE_FREE)
    for table in (ds.train, ds.val):
        np.testing.assert_allclose(
            ds.gallery[table.target_indices], _edited(NOISE_FREE, table), atol=1e-15, rtol=0
        )


@pytest.mark.parametrize("n_mods", [2, 8, 40])
@pytest.mark.parametrize("d_ref", [1, 3, 32, 33])
def test_gallery_bytes_equal_the_gather_form(d_ref, n_mods):
    # 40 codes over a 29-row gallery leave some code groups empty; 301
    # rows are not a multiple of 8.
    for gallery_size in (29, 301):
        for noise_sigma in (0.0, 0.1):
            for seed in (0, 9):
                cfg = DatasetConfig(
                    d_ref=d_ref, d_mod=3, n_mods=n_mods, n_train=12, n_val=17,
                    gallery_size=gallery_size, noise_sigma=noise_sigma, subset_size=3,
                    seed=seed,
                )
                want = gallery_by_gather(cfg)
                assert generate(cfg).gallery.tobytes() == want.tobytes(), cfg


def test_bayes_oracle_is_perfect_without_noise():
    ds = generate(NOISE_FREE)
    for table in (ds.train, ds.val):
        top = (_edited(NOISE_FREE, table) @ ds.gallery.T).argmax(axis=1)
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


@pytest.mark.parametrize("rows", [
    np.array([5, 0, 29, 5, 17]), slice(12), slice(40), slice(512)],
    ids=["index-array", "slice-12", "slice-40", "slice-512"])
def test_batch_gathers_the_model_inputs_of_table_rows(small_ds, rows):
    # slice(40) runs past the 30-row val table, slice(512) past both, as the landscape cap may.
    for table in (small_ds.train, small_ds.val):
        batch = small_ds.batch(table, rows)
        want = (table.refs[rows], small_ds.mod_embeddings[table.mod_codes[rows]],
                small_ds.gallery[table.target_indices[rows]])
        got = (batch.refs, batch.mods, batch.targets)
        assert [(a.shape, a.tobytes()) for a in got] == [(a.shape, a.tobytes()) for a in want]


def test_subsample_counts_and_membership(small_ds):
    sub = subsample_dataset(small_ds, 0.5, seed=0).train
    assert len(sub) == 20
    original = set(small_ds.train.target_indices.tolist())
    assert set(sub.target_indices.tolist()) <= original


def test_subsample_identity_and_validation(small_ds):
    assert subsample_dataset(small_ds, 1.0, seed=0) is small_ds


def test_subsample_nesting(small_ds):
    fractions = [0.2, 0.4, 0.6, 0.8, 1.0]
    picks = [
        set(subsample_dataset(small_ds, f, seed=11).train.target_indices.tolist())
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
    a = subsample_dataset(ds, lo, seed=seed).train
    b = subsample_dataset(ds, hi, seed=seed).train
    assert len(a) == int(np.ceil(lo * len(ds.train)))
    assert set(a.target_indices.tolist()) <= set(b.target_indices.tolist())


def test_subsample_dataset_keeps_val_and_gallery(small_ds):
    sub = subsample_dataset(small_ds, 0.5, seed=2)
    assert len(sub.train) == 20
    assert sub.val is small_ds.val
    assert sub.gallery is small_ds.gallery
