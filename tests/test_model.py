"""Model construction, both branches, fine-tune modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrf.diffcore import finite_diff_gradient
from wrf.errors import ConfigError
from wrf.model import (
    ModelConfig,
    RetrievalModel,
    fusion_dims,
    init_model,
)
from wrf.params import ParameterSet
from wrf.synthcir import TripletBatch

from oracles import equal_bits

SMALL = ModelConfig(d_ref=6, d_mod=3, hidden=(5, 4), d_out=4, seed=3)


def unit_rows(arr):
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


def test_query_branch_parameter_count_matches_hand_formula():
    cfg = ModelConfig(d_ref=32, d_mod=8, hidden=(64, 64), d_out=16)
    ps = init_model(cfg)
    query = sum(ps[n].size for n in ps.names if n.startswith("fusion."))
    assert query == (40 * 64 + 64) + (64 * 64 + 64) + (64 * 16 + 16) == 7824


def test_init_is_deterministic_and_seed_sensitive():
    a = init_model(SMALL)
    b = init_model(SMALL)
    c = init_model(ModelConfig(**{**SMALL.__dict__, "seed": 4}))
    assert equal_bits(a, b)
    assert not equal_bits(a, c)


def test_init_bounds_and_zero_biases():
    ps = init_model(SMALL)
    dims = fusion_dims(SMALL)
    for i, fan_in in enumerate(dims[:-1]):
        bound = SMALL.init_scale / np.sqrt(fan_in)
        assert np.abs(ps[f"fusion.{i}.w"]).max() <= bound
        assert np.array_equal(ps[f"fusion.{i}.b"], np.zeros_like(ps[f"fusion.{i}.b"]))
    assert np.array_equal(ps["target.b"], np.zeros(SMALL.d_out))


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(d_ref=0)
    with pytest.raises(ConfigError):
        ModelConfig(init_scale=0.0)
    with pytest.raises(ConfigError):
        ModelConfig(activation="gelu")


def test_query_rows_are_unit_norm():
    model = RetrievalModel(SMALL)
    ps = model.init_params()
    rng = np.random.default_rng(0)
    out = model.embed_queries(ps, rng.normal(size=(7, 6)), rng.normal(size=(7, 3)))
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


def test_target_rows_are_unit_norm():
    model = RetrievalModel(SMALL)
    ps = model.init_params()
    out = model.embed_targets(ps, np.random.default_rng(1).normal(size=(9, 6)))
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


def test_zero_net_zero_input_is_guarded_to_zero_row():
    model = RetrievalModel(SMALL)
    ps = ParameterSet(
        {n: np.zeros_like(a) for n, a in model.init_params().items()}
    )
    out = model.embed_queries(ps, np.zeros((2, 6)), np.zeros((2, 3)))
    assert np.array_equal(out, np.zeros((2, 4)))


def test_batch_rows_are_independent():
    model = RetrievalModel(SMALL)
    ps = model.init_params()
    rng = np.random.default_rng(2)
    refs, mods = rng.normal(size=(5, 6)), rng.normal(size=(5, 3))
    out = model.embed_queries(ps, refs, mods)
    perm = np.array([3, 1, 4, 0, 2])
    np.testing.assert_array_equal(model.embed_queries(ps, refs[perm], mods[perm]), out[perm])


def test_identity_target_projection_returns_input():
    cfg = ModelConfig(d_ref=4, d_mod=2, hidden=(3,), d_out=4)
    model = RetrievalModel(cfg)
    ps = model.init_params()
    ps["target.w"][:] = np.eye(4)
    ps["target.b"][:] = 0.0
    v = np.zeros((1, 4))
    v[0, 1] = 1.0
    np.testing.assert_allclose(model.embed_targets(ps, v), v, atol=1e-12)


def test_lora_adds_expected_trainable_counts():
    # rank 4 on the 40-in / 64-out first fusion layer: 4*40 + 64*4 = 416.
    cfg = ModelConfig(d_ref=32, d_mod=8, hidden=(64, 64), d_out=16)
    ps = RetrievalModel(cfg, mode="lora", lora_rank=4).init_params()
    assert ps.names == tuple(  # each fusion weight is followed by its adapter pair
        f"fusion.{i}.{part}" for i in range(3) for part in ("w", "lora_a", "lora_b", "b")
    ) + ("target.w", "target.b")
    assert ps["fusion.0.lora_a"].size + ps["fusion.0.lora_b"].size == 416
    assert np.array_equal(ps["fusion.0.lora_b"], np.zeros((4, 64)))
    frozen = [n for n in ps.names if n.endswith(".w")]
    for name in frozen:
        assert name not in ps.trainable_names
    assert {"fusion.0.b", "target.b"} <= set(ps.trainable_names)


def test_lora_warm_start_equals_base_model():
    # B starts at zero, so adapted forward == base forward bit for bit.
    base_model = RetrievalModel(SMALL)
    lora_model = RetrievalModel(SMALL, mode="lora", lora_rank=2)
    base = base_model.init_params()
    lora = lora_model.init_params()
    rng = np.random.default_rng(5)
    refs, mods = rng.normal(size=(4, 6)), rng.normal(size=(4, 3))
    out_base = base_model.embed_queries(base, refs, mods)
    out_lora = lora_model.embed_queries(lora, refs, mods)
    np.testing.assert_array_equal(out_base, out_lora)


def test_lora_rank_validation():
    # SMALL's fusion weights are (9, 5), (5, 4), (4, 4): rank 5 first
    # exceeds the second one. The check runs at construction.
    with pytest.raises(ConfigError) as info:
        RetrievalModel(SMALL, mode="lora", lora_rank=5)
    assert str(info.value) == "rank 5 exceeds min dim of 'fusion.1.w' with shape (5, 4)"
    with pytest.raises(ConfigError) as info:
        RetrievalModel(ModelConfig(), "lora", 50)
    assert str(info.value) == "rank 50 exceeds min dim of 'fusion.0.w' with shape (40, 64)"
    RetrievalModel(SMALL, mode="lora", lora_rank=4)


@pytest.mark.parametrize("mode, rank, message", [
    ("nope", None, "finetune_mode must be one of ('full', 'lora'), got 'nope'"),
    ("lora", 0, "lora mode needs lora_rank >= 1"),
    ("lora", None, "lora mode needs lora_rank >= 1"),
    ("lora", -1, "lora_rank must be >= 0, got -1"),
    ("full", -1, "lora_rank must be >= 0, got -1"),
    ("full", -3, "lora_rank must be >= 0, got -3"),
    ("full", 1, "lora_rank must be 0 unless finetune_mode=lora, got 1"),
    ("full", 4, "lora_rank must be 0 unless finetune_mode=lora, got 4"),
])
def test_adapter_settings_are_checked_once_by_the_model(mode, rank, message):
    # The model alone checks finetune_mode and lora_rank, in the words of the config keys.
    with pytest.raises(ConfigError) as info:
        RetrievalModel(SMALL, mode=mode, lora_rank=rank)
    assert str(info.value) == message


def test_lora_gradients_only_touch_trainable():
    model = RetrievalModel(SMALL, mode="lora", lora_rank=2)
    ps = model.init_params()
    rng = np.random.default_rng(6)
    refs, mods = rng.normal(size=(4, 6)), rng.normal(size=(4, 3))
    targets = rng.normal(size=(4, 6))
    _, grad = model.loss_and_grads(ps, TripletBatch(refs, mods, targets), tau=5.0)
    assert grad.shape == ps.flat.shape  # the trainable layers only
    assert not any(n.endswith(".w") for n in ps.trainable_names)


def test_full_model_gradient_check():
    model = RetrievalModel(SMALL)
    ps = model.init_params()
    rng = np.random.default_rng(7)
    refs, mods = rng.normal(size=(4, 6)), rng.normal(size=(4, 3))
    batch = TripletBatch(refs, mods, rng.normal(size=(4, 6)))
    _, analytic = model.loss_and_grads(ps, batch, tau=5.0)
    oracle = finite_diff_gradient(lambda p: model.batch_loss(p, batch, tau=5.0), ps, h=1e-5)
    for name, a, b, _ in ps.spans:
        err = np.abs(analytic[a:b] - oracle[a:b])
        tol = np.maximum(1e-6 * np.abs(oracle[a:b]), 1e-8)
        assert np.all(err <= tol), f"{name}: worst {err.max():.2e}"


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000), st.integers(2, 9))
def test_query_norms_property(seed, batch):
    model = RetrievalModel(SMALL)
    ps = model.init_params()
    rng = np.random.default_rng(seed)
    out = model.embed_queries(ps, rng.normal(size=(batch, 6)), rng.normal(size=(batch, 3)))
    norms = np.linalg.norm(out, axis=1)
    assert np.all((np.abs(norms - 1.0) <= 1e-12) | (norms == 0.0))
