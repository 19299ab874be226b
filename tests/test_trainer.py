"""Step semantics, optimizer math, schedules, and the full loop."""

import json
from pathlib import Path

import numpy as np
import pytest

from wrf import diffcore, trainer
from wrf.errors import ConfigError, NumericError
from wrf.model import ModelConfig, RetrievalModel
from wrf.params import ParameterSet
from wrf.synthcir import DatasetConfig, generate
from wrf.trainer import (
    RetrievalObjective,
    StepInfo,
    TrainConfig,
    TripletBatch,
    baseline_step,
    cosine_lr,
    current_lr,
    metrics_rows,
    new_train_state,
    train,
    wrf_step,
    wrf_step_literal_sgd,
)

DATA_CFG = DatasetConfig(
    d_ref=8, d_mod=4, n_mods=3, n_train=40, n_val=30,
    gallery_size=120, noise_sigma=0.05, subset_size=4, seed=7,
)
MODEL_CFG = ModelConfig(d_ref=8, d_mod=4, hidden=(16,), d_out=8, seed=1)

DUMMY_BATCH = TripletBatch(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 1)))


class QuadraticObjective:
    """L = 0.5 * sum(theta^2); gradient is theta itself. Records calls."""

    def __init__(self):
        self.calls = []

    def loss_and_grads(self, params, batch):
        loss = 0.5 * float(sum((params[n] ** 2).sum() for n in params.trainable_names))
        grads = {n: params[n].copy() for n in params.trainable_names}
        self.calls.append({n: params[n].copy() for n in params.trainable_names})
        return loss, grads


def quad_params(seed=0, shapes=((3, 2), (4,))):
    rng = np.random.default_rng(seed)
    return ParameterSet({f"p{i}": rng.normal(size=s) for i, s in enumerate(shapes)})


def make_batch(dataset, idx):
    return TripletBatch(
        refs=dataset.train.refs[idx],
        mods=dataset.mod_embeddings[dataset.train.mod_codes[idx]],
        targets=dataset.gallery[dataset.train.target_indices[idx]],
    )


def test_sgd_hand_example():
    # theta=1, L=0.5 theta^2, gamma=0.5, eta=0.1:
    # delta = 0.5, gradient at 1.5 is 1.5, update 1 - 0.15 = 0.85.
    cfg = TrainConfig(
        gamma=0.5, rho=1.0, eta0=0.1, schedule="constant",
        optimizer="sgd", total_epochs=2, warmup_epochs=0, seed=0,
    )
    state = new_train_state(cfg, ParameterSet({"w": np.array([1.0])}))
    info = wrf_step(state, DUMMY_BATCH, cfg, QuadraticObjective())
    assert float(state.params["w"][0]) == pytest.approx(0.85, abs=1e-15)
    assert info.kind == "adversarial"
    assert info.loss == pytest.approx(0.5)
    assert info.loss_perturbed == pytest.approx(0.5 * 1.5**2)
    assert state.adv_steps == 1 and state.rand_steps == 0


@pytest.mark.parametrize("optimizer", ["sgd", "adamw"])
def test_gamma_zero_collapses_to_baseline(optimizer):
    kwargs = dict(
        rho=1.0, eta0=0.05, schedule="constant", optimizer=optimizer,
        total_epochs=2, warmup_epochs=0, weight_decay=0.01, seed=3,
    )
    cfg_zero = TrainConfig(gamma=0.0, **kwargs)
    cfg_base = TrainConfig(gamma=0.0, **kwargs)
    state_a = new_train_state(cfg_zero, quad_params(5))
    state_b = new_train_state(cfg_base, quad_params(5))
    for _ in range(50):
        wrf_step(state_a, DUMMY_BATCH, cfg_zero, QuadraticObjective())
        baseline_step(state_b, DUMMY_BATCH, cfg_base, QuadraticObjective())
    for name in state_a.params.names:
        np.testing.assert_allclose(
            state_a.params[name], state_b.params[name], rtol=0.0, atol=1e-12
        )


def test_literal_sgd_form_matches_snapshot_form():
    # Same update written two ways; round-off must stay below 1e-9.
    cfg = TrainConfig(
        gamma=0.01, rho=0.5, eta0=0.05, schedule="constant",
        optimizer="sgd", total_epochs=2, warmup_epochs=0, seed=11,
    )
    state_a = new_train_state(cfg, quad_params(9))
    state_b = new_train_state(cfg, quad_params(9))
    for _ in range(50):
        info_a = wrf_step(state_a, DUMMY_BATCH, cfg, QuadraticObjective())
        info_b = wrf_step_literal_sgd(state_b, DUMMY_BATCH, cfg, QuadraticObjective())
        assert info_a.kind == info_b.kind  # identical rng consumption
    assert state_a.adv_steps == state_b.adv_steps
    for name in state_a.params.names:
        np.testing.assert_allclose(
            state_a.params[name], state_b.params[name], rtol=0.0, atol=1e-9
        )


def test_literal_form_rejects_adamw():
    cfg = TrainConfig(optimizer="adamw", total_epochs=2, warmup_epochs=0)
    state = new_train_state(cfg, quad_params())
    with pytest.raises(ConfigError):
        wrf_step_literal_sgd(state, DUMMY_BATCH, cfg, QuadraticObjective())


def test_update_base_is_unperturbed_theta():
    # The optimizer must see theta and g', never theta+delta.
    cfg = TrainConfig(
        gamma=0.2, rho=1.0, eta0=0.1, schedule="constant",
        optimizer="sgd", total_epochs=2, warmup_epochs=0, seed=2,
    )
    obj = QuadraticObjective()
    state = new_train_state(cfg, quad_params(4))
    before = {n: state.params[n].copy() for n in state.params.names}
    wrf_step(state, DUMMY_BATCH, cfg, obj)
    assert len(obj.calls) == 2
    seen_theta, seen_perturbed = obj.calls
    for name in before:
        assert np.array_equal(seen_theta[name], before[name])
        assert not np.array_equal(seen_perturbed[name], before[name])
        # quadratic: gradient at the perturbed point equals the point itself
        want = before[name] - 0.1 * seen_perturbed[name]
        np.testing.assert_allclose(state.params[name], want, rtol=0.0, atol=1e-15)


def test_adamw_decoupled_decay_hand_step():
    # One step from m=v=0: m_hat = g, v_hat = g^2, denom = |g| + eps.
    cfg = TrainConfig(
        gamma=0.0, eta0=0.1, schedule="constant", optimizer="adamw",
        beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.5,
        total_epochs=2, warmup_epochs=0,
    )
    state = new_train_state(cfg, ParameterSet({"w": np.array([2.0])}))
    baseline_step(state, DUMMY_BATCH, cfg, QuadraticObjective())
    g = 2.0
    want = 2.0 - 0.1 * (g / (np.sqrt(g * g) + 1e-8) + 0.5 * 2.0)
    assert float(state.params["w"][0]) == pytest.approx(want, abs=1e-14)
    assert state.adam_t == 1


def test_adamw_moments_track_perturbed_gradient_only():
    cfg = TrainConfig(
        gamma=0.3, rho=1.0, eta0=0.01, schedule="constant", optimizer="adamw",
        weight_decay=0.0, total_epochs=2, warmup_epochs=0,
    )
    obj = QuadraticObjective()
    state = new_train_state(cfg, ParameterSet({"w": np.array([1.0])}))
    wrf_step(state, DUMMY_BATCH, cfg, obj)
    g_prime = float(obj.calls[1]["w"][0])
    assert state.m["w"][0] == pytest.approx(0.1 * g_prime, abs=1e-15)
    assert state.v["w"][0] == pytest.approx(0.001 * g_prime**2, abs=1e-15)


def test_cosine_schedule_anchors():
    assert cosine_lr(1e-3, 0, 60) == pytest.approx(1e-3)
    assert cosine_lr(1e-3, 30, 60) == pytest.approx(5e-4)
    assert cosine_lr(1e-3, 60, 60) == pytest.approx(0.0, abs=1e-18)
    with pytest.raises(ConfigError):
        cosine_lr(1e-3, 61, 60)
    with pytest.raises(ConfigError):
        cosine_lr(1e-3, -1, 60)
    cfg = TrainConfig(schedule="constant", eta0=7e-4, total_epochs=10, warmup_epochs=0)
    assert current_lr(cfg, 9) == 7e-4
    cfg = TrainConfig(schedule="cosine", eta0=1e-3, total_epochs=10, warmup_epochs=0)
    assert current_lr(cfg, 5) == pytest.approx(5e-4)


def test_pass_counts_per_step_kind():
    dataset = generate(DATA_CFG)
    model = RetrievalModel(MODEL_CFG)
    obj = RetrievalObjective(model, tau=10.0)
    cfg = TrainConfig(
        gamma=1e-3, rho=1.0, total_epochs=2, warmup_epochs=0,
        optimizer="sgd", schedule="constant", seed=0,
    )
    state = new_train_state(cfg, model.init_params())
    batch = make_batch(dataset, np.arange(16))
    diffcore.reset_pass_counts()
    wrf_step(state, batch, cfg, obj)
    assert diffcore.pass_counts() == {"forward": 2, "backward": 2}
    diffcore.reset_pass_counts()
    baseline_step(state, batch, cfg, obj)
    assert diffcore.pass_counts() == {"forward": 1, "backward": 1}


def test_step_streams_are_deterministic():
    cfg = TrainConfig(
        gamma=0.05, rho=0.5, eta0=0.02, schedule="constant",
        optimizer="sgd", total_epochs=2, warmup_epochs=0, seed=21,
    )
    results = []
    for _ in range(2):
        state = new_train_state(cfg, quad_params(1))
        kinds = []
        for _ in range(30):
            kinds.append(wrf_step(state, DUMMY_BATCH, cfg, QuadraticObjective()).kind)
        results.append((kinds, {n: state.params[n].copy() for n in state.params.names}))
    assert results[0][0] == results[1][0]
    assert "adversarial" in results[0][0] and "random" in results[0][0]
    for name in results[0][1]:
        assert np.array_equal(results[0][1][name], results[1][1][name])


def test_rng_state_roundtrip():
    cfg = TrainConfig(total_epochs=2, warmup_epochs=0, seed=5)
    state = new_train_state(cfg, quad_params())
    state.rng_shuffle.random(3)
    state.rng_kind.random(3)
    snap = json.loads(json.dumps(state.rng_state()))  # survives JSON
    a = state.rng_noise.random(4)
    state.set_rng_state(snap)
    b = state.rng_noise.random(4)
    assert np.array_equal(a, b)


def test_loss_decreases_on_real_model():
    dataset = generate(DATA_CFG)
    model = RetrievalModel(MODEL_CFG)
    obj = RetrievalObjective(model, tau=10.0)
    cfg = TrainConfig(
        gamma=1e-3, rho=1.0, eta0=5e-3, schedule="constant",
        optimizer="adamw", weight_decay=0.0, total_epochs=2,
        warmup_epochs=0, seed=0,
    )
    state = new_train_state(cfg, model.init_params())
    rng = np.random.default_rng(0)
    first, last = None, None
    for step in range(100):
        batch = make_batch(dataset, rng.permutation(40)[:16])
        info = wrf_step(state, batch, cfg, obj)
        if first is None:
            first = info.loss
        last = info.loss
    assert last < first * 0.8


def test_wrf_step_on_a_nonfinite_set_fails_at_the_pass_at_theta():
    dataset = generate(DATA_CFG)
    model = RetrievalModel(MODEL_CFG)
    cfg = TrainConfig(gamma=1e-3, rho=0.5, total_epochs=2, warmup_epochs=0, seed=0)
    state = new_train_state(cfg, model.init_params())
    state.params["fusion.0.w"][0, 0] = np.nan
    with pytest.raises(
        NumericError, match=r"^pass at theta failed: node \d+ \(matmul\) produced non-finite"
    ):
        wrf_step(state, make_batch(dataset, np.arange(16)), cfg, RetrievalObjective(model, tau=10.0))
    assert state.step == 0


def test_config_validation():
    ok = dict(total_epochs=4, warmup_epochs=1)
    TrainConfig(**ok)
    bad = [
        dict(ok, gamma=-1e-3),
        dict(ok, gamma=float("nan")),
        dict(ok, rho=1.5),
        dict(ok, eta0=0.0),
        dict(ok, schedule="linear"),
        dict(ok, optimizer="adagrad"),
        dict(ok, total_epochs=0, warmup_epochs=0),
        dict(ok, warmup_epochs=4),
        dict(ok, batch_size=1),
        dict(ok, beta1=1.0),
        dict(ok, beta2=-0.1),
        dict(ok, eps=0.0),
        dict(ok, weight_decay=-0.01),
        dict(ok, tau=0.0),
        dict(ok, eval_every=0),
        dict(ok, checkpoint_every=-1),
        dict(ok, finetune_mode="lora", lora_rank=0),
        dict(ok, lora_rank=-3),
        dict(ok, finetune_mode="lora", lora_rank=-1),
    ]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


def test_metrics_rows_layout():
    row = trainer.EpochRow(
        epoch=3, train_loss=1.25, lr=0.001, seconds=0.5,
        adv_steps=4, rand_steps=2,
    )
    lines = metrics_rows(row)
    assert len(lines) == 1
    cells = lines[0].split(",")
    assert len(cells) == len(trainer.METRICS_HEADER.split(","))
    assert cells[0] == "3" and cells[1] == "train"
    assert cells[2] == "1.25"
    assert cells[3:9] == [""] * 6  # no recalls without an evaluation
    assert cells[9] == ""  # gap never on the train row
    assert cells[12] == "4" and cells[13] == "2"

    from wrf.evalkit import MetricReport

    row.train_report = MetricReport("train", {1: 50.0, 5: 75.0}, 62.5, {1: 80.0})
    row.val_report = MetricReport("val", {1: 30.0, 5: 55.0}, 42.5, {1: 60.0})
    row.gap = 20.0
    lines = metrics_rows(row)
    assert len(lines) == 2
    tr, va = lines[0].split(","), lines[1].split(",")
    assert tr[3] == "50.0" and tr[4] == "75.0" and tr[5] == "" and tr[7] == "62.5"
    assert tr[8] == "80.0"
    assert va[1] == "val" and va[2] == "" and va[9] == "20.0"
    assert va[10] == "" and va[12] == ""


def run_dirs_equal(dir_a: Path, dir_b: Path):
    """metrics.csv comparison with the wall-clock column blanked."""
    def rows(d):
        out = []
        for line in (d / "metrics.csv").read_text().strip().split("\n"):
            cells = line.split(",")
            cells[11] = ""
            out.append(",".join(cells))
        return out

    return rows(dir_a) == rows(dir_b)


def small_run_config(**overrides):
    kwargs = dict(
        gamma=1e-3, rho=1.0, eta0=2e-3, schedule="cosine",
        optimizer="adamw", total_epochs=4, warmup_epochs=1,
        batch_size=16, eval_every=2, checkpoint_every=2, seed=0,
    )
    kwargs.update(overrides)
    return TrainConfig(**kwargs)


def test_train_integration(tmp_path):
    dataset = generate(DATA_CFG)
    cfg = small_run_config()
    out = tmp_path / "run_a"
    record = train(cfg, MODEL_CFG, dataset, out_dir=out)

    lines = (out / "metrics.csv").read_text().strip().split("\n")
    assert lines[0] == trainer.METRICS_HEADER
    # epochs 1,3: train row only; epochs 2,4: train + val rows
    assert len(lines) == 1 + 4 + 2
    assert [l.split(",")[0:2] for l in lines[1:]] == [
        ["1", "train"], ["2", "train"], ["2", "val"],
        ["3", "train"], ["4", "train"], ["4", "val"],
    ]
    for name in ("best.ckpt", "epoch_2.ckpt", "epoch_4.ckpt"):
        assert (out / name).exists(), name
        assert (out / f"{name}.rng.json").exists(), name
    json.loads((out / "best.ckpt.rng.json").read_text())

    assert record.best_epoch in (2, 4)
    assert record.best_val_rmean is not None
    assert record.final_val_rmean is not None
    assert record.gap_at_best() is not None
    assert len(record.rows) == 4
    # warm-up epoch runs plain steps; later epochs perturb every step
    assert record.rows[0].adv_steps == 0 and record.rows[0].rand_steps == 0
    for row in record.rows[1:]:
        assert row.adv_steps > 0 and row.rand_steps == 0  # rho=1
    assert np.isfinite(record.seconds_per_epoch(skip_warmup=1))

    out_b = tmp_path / "run_b"
    train(cfg, MODEL_CFG, dataset, out_dir=out_b)
    assert run_dirs_equal(out, out_b)


def test_train_gamma_zero_never_perturbs(tmp_path):
    dataset = generate(DATA_CFG)
    cfg = small_run_config(gamma=0.0, checkpoint_every=0)
    record = train(cfg, MODEL_CFG, dataset, out_dir=tmp_path / "r")
    assert all(r.adv_steps == 0 and r.rand_steps == 0 for r in record.rows)
    assert (tmp_path / "r" / "epoch_4.ckpt").exists()  # final epoch always saved
    assert not (tmp_path / "r" / "epoch_2.ckpt").exists()


def test_train_partial_metrics_survive_abort(tmp_path, monkeypatch):
    dataset = generate(DATA_CFG)
    calls = {"n": 0}
    real = trainer.baseline_step

    def flaky(state, batch, config, objective):
        calls["n"] += 1
        if calls["n"] > 3 and state.epoch >= 2:
            raise NumericError("synthetic blow-up")
        return real(state, batch, config, objective)

    monkeypatch.setattr(trainer, "baseline_step", flaky)
    cfg = small_run_config(gamma=0.0, eval_every=1)
    out = tmp_path / "r"
    with pytest.raises(NumericError):
        train(cfg, MODEL_CFG, dataset, out_dir=out)
    lines = (out / "metrics.csv").read_text().strip().split("\n")
    assert lines[0] == trainer.METRICS_HEADER
    assert len(lines) == 1 + 2 * 2  # two completed epochs flushed before the abort


def test_train_rejects_tiny_split():
    dataset = generate(DATA_CFG)
    sub = trainer  # keep namespace use obvious
    from wrf.synthcir import subsample_dataset

    tiny = subsample_dataset(dataset, 1 / 40, seed=0)
    assert len(tiny.train) == 1
    with pytest.raises(ConfigError):
        sub.train(small_run_config(), MODEL_CFG, tiny)


def test_train_lora_mode_keeps_base_frozen(tmp_path):
    dataset = generate(DATA_CFG)
    cfg = small_run_config(
        finetune_mode="lora", lora_rank=2, checkpoint_every=0, eval_every=4,
    )
    out = tmp_path / "r"
    train(cfg, MODEL_CFG, dataset, out_dir=out)
    from wrf.checkpoint import load_checkpoint

    saved = load_checkpoint(out / "epoch_4.ckpt")
    model = RetrievalModel(MODEL_CFG, mode="lora", lora_rank=2)
    fresh = model.init_params()
    for name in fresh.names:
        if name.endswith(".w"):  # base weights, frozen in this mode
            assert np.array_equal(saved[name], fresh[name]), name
    assert any(not np.array_equal(saved[n], fresh[n]) for n in fresh.trainable_names)
