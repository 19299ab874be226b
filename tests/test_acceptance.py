"""Release checklist: thirteen end-to-end checks over the whole stack.

Each check prints one [PASS]/[FAIL] line so a verbose run reads as a
checklist. Checks 1-6 and 13 pin exact values or tight tolerances;
checks 7-12 assert the directional outcomes of the desk-scale training
studies. They run the study drivers in scripts/ (gamma_sweep,
direction_ablation, data_fractions) into temporary directories, read
the sweep_summary.csv and per-run metrics.csv files the drivers leave,
and probe best checkpoints with `wrf landscape --out`; so a study's
knobs, grid and regime notes live only in its driver. The studies share
one reference setup (d_ref=32, gallery 2048, 512/512 split, hidden
64x64, batch 64, adamw + cosine, 60 epochs with 3 warm-up) and pin the
free knobs (eta0, init_scale, activation) per study to the regime where
its effect is measurable. Every run is seeded, so the verdicts are
reproducible from machine to machine, wall-clock checks aside.
"""

import csv
import math
import time

import numpy as np
import pytest

import data_fractions
import direction_ablation
import gamma_sweep
from wrf import cli, diffcore
from wrf.checkpoint import load_checkpoint
from wrf.cli import ExperimentConfig, build_dataset
from wrf.evalkit import Landscape, MetricReport, flatness_score
from wrf.model import ModelConfig, RetrievalModel
from wrf.params import ParameterSet, carve
from wrf.perturb import adversarial_perturbation
from wrf.trainer import (
    RetrievalObjective,
    TrainConfig,
    TripletBatch,
    baseline_step,
    new_train_state,
    train,
    wrf_step,
    wrf_step_literal_sgd,
)

from oracles import cirr_avg, contrastive_q2t, pack, rank_gallery, recall_at_k


def _grid(values: str) -> tuple:
    return tuple(float(v) for v in values.split(","))


SEEDS = (0, 1, 2, 3, 4)
# Checks 7, 10 and 12.
GAMMA_SWEEP = _grid(gamma_sweep.GAMMAS)
# Checks 8 and 9.
RHO_GRID = _grid(direction_ablation.RHOS)
# Check 11.
FRACTIONS = _grid(data_fractions.FRACTIONS)

GRAD_RTOL = 1e-6
GRAD_ATOL = 1e-8
FD_STEP = 1e-5
BUDGET_RTOL = 1e-10
COLLAPSE_TOL = 1e-12
DUAL_TOL = 1e-9
ANCHOR_EXACT = 1e-12
ANCHOR_NEAR = 1e-9
CIRR_ANCHOR = (81.39, 0.005)
GAP_CUT_MIN = 0.20
RMEAN_DROP_MAX = 0.5
SWEEP_BUDGET_S = 900.0
ORACLE_BUDGET_S = 30.0
RATIO_BAND = (1.4, 2.2)
MAX_PAIR_INVERSIONS = 1
FLATNESS_ALPHA = 0.05
FLATNESS_WINS_MIN = 4
N_DIRECTIONS = 10


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] check {num:>2}/13: {detail}")


def _small_model(seed=0):
    return RetrievalModel(ModelConfig(d_ref=6, d_mod=3, hidden=(8,), d_out=4, seed=seed))


def _rand_batch(rng, d_ref, d_mod, b):
    raw = rng.normal(size=(b, d_ref))
    targets = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return TripletBatch(rng.normal(size=(b, d_ref)), rng.normal(size=(b, d_mod)), targets)


# ---------------------------------------------------------------- check 1


def test_01_gradient_oracle(capsys):
    model = _small_model()
    tau = 10.0
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng([0xA1, trial])
        params = model.init_params()
        for name in params.names:
            arr = params[name]
            arr[...] = rng.normal(0.0, 0.5, size=arr.shape)
        batch = _rand_batch(rng, 6, 3, 5)
        _, grad = model.loss_and_grads(params, batch, tau)
        grads = carve(grad, params.spans)
        for name in params.names:
            arr = params[name]
            flat = arr.reshape(-1)
            g = grads[name].reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + FD_STEP
                up = model.batch_loss(params, batch, tau)
                flat[i] = keep - FD_STEP
                down = model.batch_loss(params, batch, tau)
                flat[i] = keep
                fd = (up - down) / (2.0 * FD_STEP)
                err = abs(g[i] - fd)
                allow = max(GRAD_RTOL * abs(fd), GRAD_ATOL)
                worst = max(worst, err / allow)
                assert err <= allow, f"{name}[{i}] trial {trial}: ad {g[i]} fd {fd}"
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed < ORACLE_BUDGET_S
    _report(capsys, 1, ok,
            f"gradient oracle, 100 seeded graphs vs central differences "
            f"(worst error at {worst:.2e} of allowance, {elapsed:.1f}s)")
    assert elapsed < ORACLE_BUDGET_S


# ---------------------------------------------------------------- check 2


def test_02_perturbation_budget(capsys):
    shapes = {"w1": (12, 8), "b1": (8,), "w2": (8, 4), "b2": (4,)}
    worst = 0.0
    n_zero_grad = 0
    for draw in range(1000):
        rng = np.random.default_rng([0xB2, draw])
        scale = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
        layers = {n: rng.normal(0.0, scale, size=s) for n, s in shapes.items()}
        grads = {n: rng.normal(size=s) for n, s in shapes.items()}
        if draw % 7 == 3:
            grads["w2"] = np.zeros(shapes["w2"])
            n_zero_grad += 1
        gamma = float(np.exp(rng.uniform(np.log(1e-4), np.log(1e-1))))
        params = ParameterSet(layers)
        deltas = carve(adversarial_perturbation(params, pack(params, grads), gamma), params.spans)
        for name in shapes:
            want = gamma * float(np.linalg.norm(layers[name]))
            got = float(np.linalg.norm(deltas[name]))
            if not np.any(grads[name]):
                assert got == 0.0, f"zero-grad layer {name} moved on draw {draw}"
                continue
            err = abs(got - want)
            worst = max(worst, err / (BUDGET_RTOL * want))
            assert err <= BUDGET_RTOL * want, f"{name} draw {draw}: {got} vs {want}"
    ok = worst <= 1.0 and n_zero_grad > 100
    _report(capsys, 2, ok,
            f"per-layer budget ||delta||=gamma*||theta|| over 1000 draws "
            f"(worst at {worst:.2e} of rel {BUDGET_RTOL:g}; {n_zero_grad} zero-grad draws pinned)")
    assert n_zero_grad > 100


# ---------------------------------------------------------------- check 3


def _run_steps(step_fn, config, model, n_steps, batch_seed):
    objective = RetrievalObjective(model, tau=config.tau)
    state = new_train_state(config, model.init_params())
    rng = np.random.default_rng([0xC3, batch_seed])
    for _ in range(n_steps):
        step_fn(state, _rand_batch(rng, model.config.d_ref, model.config.d_mod, 6), config, objective)
    return state.params


def test_03_gamma_zero_collapse(capsys):
    model = _small_model(seed=3)
    worst = 0.0
    for optimizer in ("sgd", "adamw"):
        config = TrainConfig(gamma=0.0, eta0=1e-2, optimizer=optimizer, seed=11)
        p_wrf = _run_steps(wrf_step, config, model, 50, batch_seed=11)
        p_base = _run_steps(baseline_step, config, model, 50, batch_seed=11)
        for name in p_wrf.names:
            diff = float(np.max(np.abs(p_wrf[name] - p_base[name])))
            worst = max(worst, diff)
            assert diff <= COLLAPSE_TOL, f"{optimizer} layer {name}: {diff}"
    _report(capsys, 3, worst <= COLLAPSE_TOL,
            f"gamma=0 trajectory collapse, 50 steps under sgd and adamw "
            f"(max coord diff {worst:.1e} <= {COLLAPSE_TOL:g})")


# ---------------------------------------------------------------- check 4


def test_04_dual_update_forms(capsys):
    model = _small_model(seed=4)
    config = TrainConfig(gamma=5e-3, rho=0.5, eta0=5e-2, optimizer="sgd", seed=7)
    p_snap = _run_steps(wrf_step, config, model, 50, batch_seed=7)
    p_lit = _run_steps(wrf_step_literal_sgd, config, model, 50, batch_seed=7)
    worst = 0.0
    for name in p_snap.names:
        diff = float(np.max(np.abs(p_snap[name] - p_lit[name])))
        worst = max(worst, diff)
        assert diff <= DUAL_TOL, f"layer {name}: {diff}"
    _report(capsys, 4, worst <= DUAL_TOL,
            f"literal (theta+delta)-eta*g'-delta vs snapshot restore, 50 sgd steps "
            f"(max coord diff {worst:.1e} <= {DUAL_TOL:g})")


# ---------------------------------------------------------------- check 5


def test_05_loss_anchors(capsys):
    worst_uniform = 0.0
    for b in (2, 8, 64):
        u = np.zeros((b, 4))
        u[:, 0] = 1.0
        loss = contrastive_q2t(u, u, tau=10.0)
        worst_uniform = max(worst_uniform, abs(loss - math.log(b)))
        assert abs(loss - math.log(b)) <= ANCHOR_EXACT
    eye = np.eye(2)
    ortho = contrastive_q2t(eye, eye, tau=1.0)
    want = math.log1p(math.exp(-1.0))
    assert abs(want - 0.313262) <= 5e-7  # six-figure hand value
    ortho_err = abs(ortho - want)
    assert ortho_err <= ANCHOR_NEAR
    _report(capsys, 5, True,
            f"loss anchors ln(B) for B in (2,8,64) within {worst_uniform:.1e} "
            f"and orthogonal pair at tau=1 within {ortho_err:.1e} of 0.313262")


# ---------------------------------------------------------------- check 6


def test_06_metric_anchors(capsys):
    report = MetricReport(recall_at={5: 82.12}, rmean=82.12, rsubset_at_1=80.65)
    avg = cirr_avg(report)
    assert abs(avg - (82.12 + 80.65) / 2.0) <= ANCHOR_EXACT
    anchor, tol = CIRR_ANCHOR
    assert abs(avg - anchor) <= tol
    mismatches = 0
    for trial in range(100):
        rng = np.random.default_rng([0xC6, trial])
        gallery = rng.normal(size=(50, 6))
        queries = rng.normal(size=(20, 6))
        targets = rng.integers(0, 50, size=20)
        rankings = rank_gallery(queries, gallery)
        scores = queries @ gallery.T
        for k in (1, 5, 10):
            got = recall_at_k(rankings, targets, k)
            hits = 0
            for q in range(20):
                order = sorted(range(50), key=lambda j: (-scores[q, j], j))
                hits += int(targets[q] in order[:k])
            want = 100.0 * (hits / 20)
            if got != want:
                mismatches += 1
    _report(capsys, 6, mismatches == 0,
            f"cirr average anchor {avg:.3f} and recall equal to the brute-force "
            f"ranking oracle on 100 instances ({mismatches} mismatches)")
    assert mismatches == 0


# ------------------------------------------------------- study drivers


def _run_driver(driver, tmp_path_factory):
    """Run a scripts/ study driver into a fresh directory: (out dir, seconds)."""
    out = tmp_path_factory.mktemp(driver.__name__)
    start = time.perf_counter()
    assert driver.run(out, ",".join(map(str, SEEDS))) == 0
    return out, time.perf_counter() - start


@pytest.fixture(scope="session")
def gamma_sweep_out(tmp_path_factory):
    return _run_driver(gamma_sweep, tmp_path_factory)


@pytest.fixture(scope="session")
def direction_ablation_out(tmp_path_factory):
    return _run_driver(direction_ablation, tmp_path_factory)[0]


@pytest.fixture(scope="session")
def data_fractions_out(tmp_path_factory):
    return _run_driver(data_fractions, tmp_path_factory)[0]


def _summary(sweep_dir):
    """(value, seed) -> (best val Rmean, gap at best) of each row of a sweep_summary.csv."""
    with (sweep_dir / "sweep_summary.csv").open(encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {
        (float(r["value"]), int(r["seed"])): (float(r["best_val_rmean"]), float(r["gap_at_best"]))
        for r in rows
    }


def _run_dir(sweep_dir, param, value, seed):
    """The directory `wrf sweep` gives the run of (value, seed)."""
    return sweep_dir / f"{param}_{value!r}_seed{seed}"


def _seed_means(summary, grid):
    """value -> (seed-mean best val Rmean, seed-mean gap at best) over the grid."""
    out = {}
    for value in grid:
        runs = [summary[value, seed] for seed in SEEDS]
        out[value] = (float(np.mean([r[0] for r in runs])), float(np.mean([r[1] for r in runs])))
    return out


def _best_gamma(means):
    """Largest relative gap cut among sweep points inside the Rmean envelope."""
    base_rmean, base_gap = means[0.0]
    best, best_cut = None, None
    for gamma in GAMMA_SWEEP[1:]:
        rmean, gap = means[gamma]
        if rmean < base_rmean - RMEAN_DROP_MAX:
            continue
        cut = 1.0 - gap / base_gap
        if best_cut is None or cut > best_cut:
            best, best_cut = gamma, cut
    return best, best_cut


# ---------------------------------------------------------------- check 7


def test_07_gap_reduction_at_best_gamma(gamma_sweep_out, capsys):
    out, elapsed = gamma_sweep_out
    means = _seed_means(_summary(out), GAMMA_SWEEP)
    base_rmean, base_gap = means[0.0]
    gamma, cut = _best_gamma(means)
    ok = gamma is not None and cut >= GAP_CUT_MIN and elapsed < SWEEP_BUDGET_S
    drm = means[gamma][0] - base_rmean if gamma is not None else float("nan")
    _report(capsys, 7, ok,
            f"best gamma {gamma} cuts the best-epoch gap by {100 * (cut or 0):.1f}% "
            f"(>=20%) at Rmean {drm:+.2f} vs baseline {base_rmean:.2f}; "
            f"sweep took {elapsed:.0f}s")
    assert gamma is not None, "no sweep gamma stayed inside the Rmean envelope"
    assert cut >= GAP_CUT_MIN
    assert elapsed < SWEEP_BUDGET_S


# ---------------------------------------------------------------- check 8


def test_08_direction_ablation(direction_ablation_out, capsys):
    base_runs = _summary(direction_ablation_out / "baseline")
    grid = _summary(direction_ablation_out / "rho_grid")
    base = np.array([base_runs[0.0, s][0] for s in SEEDS])
    rwp = np.array([grid[0.0, s][0] for s in SEEDS])
    wrf = np.array([grid[1.0, s][0] for s in SEEDS])
    inv_low = int((rwp < base).sum())
    inv_high = int((wrf < rwp).sum())
    ordered = base.mean() <= rwp.mean() <= wrf.mean()
    ok = ordered and inv_low <= MAX_PAIR_INVERSIONS and inv_high <= MAX_PAIR_INVERSIONS
    _report(capsys, 8, ok,
            f"mean best-val Rmean ordering none {base.mean():.2f} <= random "
            f"{rwp.mean():.2f} <= adversarial {wrf.mean():.2f} "
            f"with {inv_low},{inv_high} seed inversions")
    assert ordered
    assert inv_low <= MAX_PAIR_INVERSIONS and inv_high <= MAX_PAIR_INVERSIONS


# ---------------------------------------------------------------- check 9


def test_09_ratio_trend(direction_ablation_out, capsys):
    by_rho = _seed_means(_summary(direction_ablation_out / "rho_grid"), RHO_GRID)
    means = [by_rho[rho][0] for rho in RHO_GRID]
    inversions = sum(1 for a, b in zip(means, means[1:]) if b < a)
    ok = inversions <= MAX_PAIR_INVERSIONS
    _report(capsys, 9, ok,
            "seed-mean best-val Rmean over rho grid "
            + " -> ".join(f"{m:.2f}" for m in means)
            + f" ({inversions} adjacent inversions)")
    assert inversions <= MAX_PAIR_INVERSIONS


# --------------------------------------------------------------- check 10


def _median_epoch_s(run_dir, two_pass: bool, warmup: int) -> float:
    """Median seconds of a run's warm-up (one-pass) or later (two-pass) epochs,
    read from the train rows of its metrics.csv."""
    with (run_dir / "metrics.csv").open(encoding="utf-8") as fh:
        seconds = [float(r["seconds"]) for r in csv.DictReader(fh)
                   if r["split"] == "train" and (int(r["epoch"]) > warmup) is two_pass]
    return float(np.median(seconds))


def test_10_compute_overhead(gamma_sweep_out, capsys):
    # Each gamma>0 run trains its warm-up epochs with one pass per step and
    # the rest with two, so both step kinds are timed within seconds of each
    # other: a slower phase of a shared host then scales both, where it
    # would scale only one side of a ratio against the gamma=0 runs.
    out, _ = gamma_sweep_out
    warmup = ExperimentConfig().warmup_epochs
    run_dirs = [_run_dir(out, "gamma", g, s) for g in GAMMA_SWEEP[1:] for s in SEEDS]
    base_s = float(np.mean([_median_epoch_s(d, False, warmup) for d in run_dirs]))
    wrf_s = float(np.mean([_median_epoch_s(d, True, warmup) for d in run_dirs]))
    ratio = wrf_s / base_s
    lo, hi = RATIO_BAND

    model = _small_model(seed=10)
    objective = RetrievalObjective(model, tau=10.0)
    rng = np.random.default_rng([0xD0, 1])
    counts = {}
    for label, step_fn, gamma_step in (("two-pass", wrf_step, 1e-3), ("plain", baseline_step, 0.0)):
        config = TrainConfig(gamma=gamma_step, seed=1)
        state = new_train_state(config, model.init_params())
        before = diffcore.pass_counts()
        step_fn(state, _rand_batch(rng, 6, 3, 4), config, objective)
        after = diffcore.pass_counts()
        counts[label] = (after["forward"] - before["forward"], after["backward"] - before["backward"])
    doubled = counts["two-pass"] == (2, 2) and counts["plain"] == (1, 1)
    ok = lo <= ratio <= hi and doubled
    _report(capsys, 10, ok,
            f"seconds-per-epoch ratio {ratio:.2f} in [{lo}, {hi}] "
            f"({base_s * 1e3:.1f} -> {wrf_s * 1e3:.1f} ms); pass counts per step "
            f"{counts['plain']} -> {counts['two-pass']}")
    assert doubled
    assert lo <= ratio <= hi


# --------------------------------------------------------------- check 11


def test_11_fraction_trends(data_fractions_out, capsys):
    means = _seed_means(_summary(data_fractions_out), FRACTIONS)
    gaps = [means[f][1] for f in FRACTIONS]
    rmeans = [means[f][0] for f in FRACTIONS]
    gap_inv = sum(1 for a, b in zip(gaps, gaps[1:]) if b > a)
    rmean_inv = sum(1 for a, b in zip(rmeans, rmeans[1:]) if b < a)
    ok = gap_inv <= MAX_PAIR_INVERSIONS and rmean_inv <= MAX_PAIR_INVERSIONS
    _report(capsys, 11, ok,
            "gap falls " + " -> ".join(f"{g:.1f}" for g in gaps)
            + f" ({gap_inv} inv) and Rmean climbs "
            + " -> ".join(f"{r:.1f}" for r in rmeans)
            + f" ({rmean_inv} inv) across train fractions")
    assert gap_inv <= MAX_PAIR_INVERSIONS
    assert rmean_inv <= MAX_PAIR_INVERSIONS


# --------------------------------------------------------------- check 12


def _flatness(run_dir, csv_path) -> float:
    """Flatness of run_dir's best.ckpt from the rows `wrf landscape --out` writes."""
    argv = ["landscape", "--checkpoint", str(run_dir / "best.ckpt"),
            "--directions", str(N_DIRECTIONS), "--out", str(csv_path)]
    assert cli.main(argv) == 0
    with csv_path.open(encoding="utf-8") as fh:
        table = np.array([[float(r[c]) for c in ("direction_id", "alpha", "loss")]
                          for r in csv.DictReader(fh)])
    ids, alphas, losses = table.T.reshape(3, N_DIRECTIONS, -1)  # direction by direction
    assert (ids == np.arange(N_DIRECTIONS)[:, None]).all()
    return flatness_score(Landscape(alphas[0], losses), FLATNESS_ALPHA)


def test_12_landscape_flatness(gamma_sweep_out, tmp_path, capsys):
    out, _ = gamma_sweep_out
    gamma, _ = _best_gamma(_seed_means(_summary(out), GAMMA_SWEEP))
    wins = 0
    pairs = []
    for seed in SEEDS:
        base_f = _flatness(_run_dir(out, "gamma", 0.0, seed), tmp_path / f"base_s{seed}.csv")
        wrf_f = _flatness(_run_dir(out, "gamma", gamma, seed), tmp_path / f"wrf_s{seed}.csv")
        pairs.append((base_f, wrf_f))
        wins += int(wrf_f < base_f)
    ok = wins >= FLATNESS_WINS_MIN
    mean_base = np.mean([p[0] for p in pairs])
    mean_wrf = np.mean([p[1] for p in pairs])
    _report(capsys, 12, ok,
            f"best-checkpoint flatness at alpha={FLATNESS_ALPHA} lower with "
            f"perturbation in {wins}/5 seeds (means {mean_base:.4f} -> {mean_wrf:.4f})")
    assert wins >= FLATNESS_WINS_MIN


# --------------------------------------------------------------- check 13


def test_13_lora_mode(tmp_path, capsys):
    cfg = ExperimentConfig(
        seed=5, finetune_mode="lora", lora_rank=4, gamma=5e-3,
        total_epochs=6, warmup_epochs=1, batch_size=32, eval_every=2,
    )
    dataset = build_dataset(ExperimentConfig(seed=0))
    train(cfg.train_config(), cfg.model_config(), dataset, out_dir=tmp_path)
    model = RetrievalModel(cfg.model_config(), mode="lora", lora_rank=4)
    fresh = model.init_params()
    final = load_checkpoint(tmp_path / f"epoch_{cfg.total_epochs}.ckpt")
    frozen = [n for n in fresh.names if n.endswith(".w")]
    bit_same = all(final[n].tobytes() == fresh[n].tobytes() for n in frozen)
    moved = any(not np.array_equal(final[n], fresh[n]) for n in fresh.trainable_names)
    assert bit_same, "a frozen base matrix changed during lora training"
    assert moved, "no adapter or bias moved; training was a no-op"

    small = RetrievalModel(
        ModelConfig(d_ref=6, d_mod=3, hidden=(8,), d_out=4, seed=13), mode="lora", lora_rank=2
    )
    config = TrainConfig(gamma=0.0, eta0=1e-2, optimizer="adamw", seed=13,
                         finetune_mode="lora", lora_rank=2)
    p_wrf = _run_steps(wrf_step, config, small, 50, batch_seed=13)
    p_base = _run_steps(baseline_step, config, small, 50, batch_seed=13)
    worst = max(
        float(np.max(np.abs(p_wrf[n] - p_base[n]))) for n in p_wrf.trainable_names
    )
    assert worst <= COLLAPSE_TOL
    _report(capsys, 13, True,
            f"lora rank-4 training leaves base matrices bit-identical; adapter "
            f"trajectories collapse at gamma=0 (max diff {worst:.1e})")
