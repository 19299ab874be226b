"""Step semantics, optimizer math, schedules, and the full loop."""

import collections
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from wrf import cli, diffcore, evalkit, trainer, worker
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

from oracles import pass_count_delta

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
    assert state.step == 1


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
    kinds = set()
    for _ in range(50):
        info_a = wrf_step(state_a, DUMMY_BATCH, cfg, QuadraticObjective())
        info_b = wrf_step_literal_sgd(state_b, DUMMY_BATCH, cfg, QuadraticObjective())
        assert info_a.kind == info_b.kind  # identical rng consumption
        kinds.add(info_a.kind)
    assert kinds == {"adversarial", "random"}
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
    before = diffcore.pass_counts()
    wrf_step(state, batch, cfg, obj)
    assert pass_count_delta(before) == {"forward": 2, "backward": 2}
    before = diffcore.pass_counts()
    baseline_step(state, batch, cfg, obj)
    assert pass_count_delta(before) == {"forward": 1, "backward": 1}


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
        dict(ok, eps=float("nan")),
        dict(ok, eps=float("inf")),
        dict(ok, weight_decay=-0.01),
        dict(ok, weight_decay=float("nan")),
        dict(ok, weight_decay=float("inf")),
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


def metrics_lines(run_dir: Path) -> list[str]:
    """metrics.csv lines with the wall-clock column blanked."""
    out = []
    for line in (run_dir / "metrics.csv").read_text().strip().split("\n"):
        cells = line.split(",")
        cells[11] = ""
        out.append(",".join(cells))
    return out


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
    assert metrics_lines(out) == metrics_lines(out_b)


def test_metrics_step_kinds_replay_the_kind_stream(tmp_path):
    # One Bernoulli(rho) draw from the [_KIND_TAG, seed] stream per WRF
    # step, none in warm-up epochs; metrics.csv counts each epoch's draws.
    cfg = small_run_config(rho=0.5, total_epochs=6, warmup_epochs=1, seed=3)
    train(cfg, MODEL_CFG, generate(DATA_CFG), out_dir=tmp_path / "r")
    rng = np.random.default_rng([trainer._KIND_TAG, cfg.seed])
    steps = sum(
        1 for start in range(0, DATA_CFG.n_train, cfg.batch_size)
        if min(cfg.batch_size, DATA_CFG.n_train - start) >= 2
    )
    want = [(0, 0)] * cfg.warmup_epochs
    for _ in range(cfg.warmup_epochs, cfg.total_epochs):
        adversarial = sum(rng.random() < cfg.rho for _ in range(steps))
        want.append((adversarial, steps - adversarial))
    got = [
        (int(cells[12]), int(cells[13]))
        for cells in (line.split(",") for line in metrics_lines(tmp_path / "r")[1:])
        if cells[1] == "train"
    ]
    assert got == want
    assert 0 < sum(a for a, _ in got) < steps * (cfg.total_epochs - cfg.warmup_epochs)


def test_train_gamma_zero_never_perturbs(tmp_path):
    dataset = generate(DATA_CFG)
    cfg = small_run_config(gamma=0.0, checkpoint_every=0)
    record = train(cfg, MODEL_CFG, dataset, out_dir=tmp_path / "r")
    assert all(r.adv_steps == 0 and r.rand_steps == 0 for r in record.rows)
    assert (tmp_path / "r" / "epoch_4.ckpt").exists()  # final epoch always saved
    assert not (tmp_path / "r" / "epoch_2.ckpt").exists()


EVAL_PATHS = ("worker", "in-process")


def use_eval_path(monkeypatch, path: str) -> None:
    """Make train() evaluate in the forked worker or in-process, whatever
    the CPU count and BLAS threads."""
    if path == "worker" and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the eval worker needs the fork start method")
    monkeypatch.setattr(worker, "available", lambda: path == "worker")


def test_train_partial_metrics_survive_abort(tmp_path, monkeypatch):
    dataset = generate(DATA_CFG)
    paths = EVAL_PATHS if "fork" in multiprocessing.get_all_start_methods() else EVAL_PATHS[1:]
    for step_name, gamma in (("baseline_step", 0.0), ("wrf_step", 1e-3)):
        for path in paths:
            with monkeypatch.context() as patch:
                use_eval_path(patch, path)
                cfg = small_run_config(gamma=gamma, eval_every=1)
                clean = tmp_path / f"clean_{step_name}_{path}"
                train(cfg, MODEL_CFG, dataset, out_dir=clean)
                calls = {"n": 0}
                real = getattr(trainer, step_name)

                def flaky(state, batch, config, objective, real=real, calls=calls):
                    calls["n"] += 1
                    if calls["n"] > 3 and state.epoch >= 2:
                        raise NumericError("synthetic blow-up")
                    return real(state, batch, config, objective)

                patch.setattr(trainer, step_name, flaky)
                out = tmp_path / f"abort_{step_name}_{path}"
                with pytest.raises(NumericError, match="^synthetic blow-up$"):
                    train(cfg, MODEL_CFG, dataset, out_dir=out)
            # The two epochs before the failing one are written in full,
            # the second one's evaluation included, even when it was
            # still running in the worker when the step failed.
            lines = metrics_lines(out)
            assert len(lines) == 1 + 2 * 2, (step_name, path)
            assert lines == metrics_lines(clean)[: 1 + 2 * 2], (step_name, path)
            assert (out / "epoch_2.ckpt").read_bytes() == (clean / "epoch_2.ckpt").read_bytes()


@pytest.mark.parametrize("path, next_step_fails", [
    pytest.param(path, fails, id=f"{path}-and-a-step-of-the-next-epoch" if fails else path)
    for fails in (False, True) for path in EVAL_PATHS
])
def test_eval_error_is_raised_after_the_rows_before_it(tmp_path, monkeypatch, path, next_step_fails):
    use_eval_path(monkeypatch, path)
    real = evalkit.recall_report
    calls = {"n": 0}

    def failing(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2 * 2 + 1:  # the train report of the third evaluation
            raise NumericError("synthetic eval failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(evalkit, "recall_report", failing)
    if next_step_fails:
        real_step = trainer.wrf_step

        def failing_step(state, batch, config, objective):
            if state.epoch == 3:  # 1-based epoch 4, trained while epoch 3 is uncommitted
                raise NumericError("synthetic step failure")
            return real_step(state, batch, config, objective)

        monkeypatch.setattr(trainer, "wrf_step", failing_step)
    out = tmp_path / "r"
    with pytest.raises(NumericError, match="^synthetic eval failure$") as info:
        train(small_run_config(eval_every=1), MODEL_CFG, generate(DATA_CFG), out_dir=out)
    assert type(info.value) is NumericError
    lines = metrics_lines(out)
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["1", "train"], ["1", "val"], ["2", "train"], ["2", "val"],
    ]
    assert (out / "epoch_2.ckpt").exists()
    assert not (out / "epoch_4.ckpt").exists()


@pytest.mark.parametrize("path", EVAL_PATHS)
def test_each_checkpoint_file_is_written_once(tmp_path, monkeypatch, path):
    use_eval_path(monkeypatch, path)
    writes = collections.Counter()
    real = trainer.save_checkpoint

    def counting(file, params):
        writes[Path(file).name] += 1
        return real(file, params)

    monkeypatch.setattr(trainer, "save_checkpoint", counting)
    cfg = small_run_config(total_epochs=4, checkpoint_every=2)
    train(cfg, MODEL_CFG, generate(DATA_CFG), out_dir=tmp_path / "r")
    assert writes["epoch_2.ckpt"] == 1 and writes["epoch_4.ckpt"] == 1, writes


@pytest.mark.parametrize("path", EVAL_PATHS)
def test_metrics_csv_trails_training_by_at_most_one_epoch(tmp_path, monkeypatch, path):
    use_eval_path(monkeypatch, path)
    out = tmp_path / "r"
    seen = {}
    real = trainer.wrf_step

    def watching(state, batch, config, objective):
        if state.epoch + 1 not in seen:  # the first step of 1-based epoch e
            seen[state.epoch + 1] = {int(line.split(",")[0]) for line in metrics_lines(out)[1:]}
        return real(state, batch, config, objective)

    monkeypatch.setattr(trainer, "wrf_step", watching)
    cfg = small_run_config(total_epochs=8, warmup_epochs=0, eval_every=3)
    train(cfg, MODEL_CFG, generate(DATA_CFG), out_dir=out)
    assert sorted(seen) == list(range(1, 9))
    for epoch, written in seen.items():
        assert set(range(1, epoch - 1)) <= written, (epoch, written)
    assert len(metrics_lines(out)) == 1 + 8 + 3  # val rows for epochs 3, 6 and 8


def test_a_dead_eval_worker_fails_the_run_promptly(tmp_path, monkeypatch):
    use_eval_path(monkeypatch, "worker")
    parent = os.getpid()
    real = evalkit.recall_report

    def die_in_the_worker(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(evalkit, "recall_report", die_in_the_worker)
    out = tmp_path / "r"
    tick = time.perf_counter()
    with pytest.raises(RuntimeError, match="^eval worker exited with code 1$"):
        train(small_run_config(eval_every=1), MODEL_CFG, generate(DATA_CFG), out_dir=out)
    assert time.perf_counter() - tick < 10.0
    assert (out / "metrics.csv").read_text() == trainer.METRICS_HEADER + "\n"


def test_worker_and_in_process_evaluation_write_the_same_files(tmp_path, monkeypatch):
    """The worker path against a `wrf train` pinned to one CPU (in-process path)."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two CPUs")
    use_eval_path(monkeypatch, "worker")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "d_ref=8\nd_mod=4\nn_mods=3\nn_train=40\nn_val=30\ngallery_size=120\n"
        "noise_sigma=0.05\nsubset_size=4\nhidden=16\nd_out=8\ntotal_epochs=6\n"
        "warmup_epochs=1\nbatch_size=16\neval_every=1\ncheckpoint_every=2\n"
        f"gamma=0.01\nrho=0.5\nrun_name=r\nout_dir={tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    config = cli.build_config(cli.read_config_file(cfg))
    before = diffcore.pass_counts()
    _, run_dir = cli.run_experiment(config)
    after = diffcore.pass_counts()
    # Evaluation's forward passes ran in the worker, not here.
    assert after["forward"] - before["forward"] == after["backward"] - before["backward"]
    worker_dir = run_dir.rename(tmp_path / "worker")

    cpu = min(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "wrf.cli", "train", "--config", str(cfg)],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in worker_dir.iterdir())
    assert names == sorted(p.name for p in run_dir.iterdir())
    assert "best.ckpt" in names and "epoch_2.ckpt" in names and "epoch_6.ckpt" in names
    for name in names:
        if name == "metrics.csv":
            assert metrics_lines(worker_dir) == metrics_lines(run_dir)
        else:
            assert (worker_dir / name).read_bytes() == (run_dir / name).read_bytes(), name


@pytest.mark.parametrize("cpus, env, want", [
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "1"}, True),
    ({0, 1, 2, 3}, {"OMP_NUM_THREADS": "2"}, True),
    ({0, 1}, {}, False),  # unset, BLAS starts a thread per CPU
    ({0, 1}, {"MKL_NUM_THREADS": "4"}, False),
    ({0}, {"OPENBLAS_NUM_THREADS": "1"}, False),
])
def test_eval_worker_needs_a_cpu_that_blas_leaves_free(monkeypatch, cpus, env, want):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    for var in worker._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    assert worker.available() is want
    if want:
        # fork copies only the calling thread; another live thread forbids it.
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert not worker.available()
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()


def test_train_in_a_daemonic_process_evaluates_in_process(tmp_path, monkeypatch):
    # A daemonic process may not start children, so train() must not fork there.
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    for var in worker._BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert worker.available()  # here; the forked child inherits both
    dataset = generate(DATA_CFG)
    cfg = small_run_config()
    train(cfg, MODEL_CFG, dataset, out_dir=tmp_path / "here")
    proc = multiprocessing.get_context("fork").Process(
        target=train, args=(cfg, MODEL_CFG, dataset), kwargs={"out_dir": tmp_path / "daemon"},
        daemon=True,
    )
    proc.start()
    proc.join(timeout=60)
    assert proc.exitcode == 0
    assert metrics_lines(tmp_path / "daemon") == metrics_lines(tmp_path / "here")


def test_train_rejects_tiny_split(tmp_path):
    dataset = generate(DATA_CFG)
    sub = trainer  # keep namespace use obvious
    from wrf.synthcir import subsample_dataset

    tiny = subsample_dataset(dataset, 1 / 40, seed=0)
    assert len(tiny.train) == 1
    with pytest.raises(ConfigError):
        sub.train(small_run_config(), MODEL_CFG, tiny, out_dir=tmp_path / "r")


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
