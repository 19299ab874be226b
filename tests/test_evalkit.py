"""Metric correctness against brute-force oracles, plus landscape probes."""

import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrf import worker
from wrf.errors import ConfigError, DataError, NumericError, ShapeError
from wrf.evalkit import (
    Landscape,
    MetricReport,
    default_alpha_grid,
    flatness_score,
    generalization_gap,
    landscape_probe,
    landscape_to_csv,
    recall_report,
    subset_target_ranks,
    target_ranks,
)
from wrf.model import ModelConfig, RetrievalModel
from wrf.params import ParameterSet, carve
from wrf.synthcir import TripletBatch
from wrf.perturb import adversarial_perturbation, random_perturbation

from oracles import (
    cirr_avg,
    landscape_direction_by_loop,
    rank_gallery,
    recall_at_k,
    recall_subset_at_k,
    sharpness,
    target_ranks_by_sort,
)


def unit_rows(arr):
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


def brute_force_rankings(queries, gallery):
    """Independent oracle: per-query python sort by (-score, index)."""
    out = []
    for q in queries:
        scored = [(-float(q @ g), i) for i, g in enumerate(gallery)]
        out.append([i for _, i in sorted(scored)])
    return np.array(out)


def random_instance(rng, q=5, g=8, d=4, with_ties=False):
    queries = unit_rows(rng.normal(size=(q, d)))
    gallery = unit_rows(rng.normal(size=(g, d)))
    if with_ties:
        gallery[1] = gallery[4]  # duplicate rows force exact score ties
    return queries, gallery


def test_rank_gallery_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for trial in range(100):
        queries, gallery = random_instance(rng, with_ties=trial % 3 == 0)
        got = rank_gallery(queries, gallery)
        want = brute_force_rankings(queries, gallery)
        assert np.array_equal(got, want), f"trial {trial}"


def test_tie_breaks_by_ascending_index():
    gallery = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    ranks = rank_gallery(np.array([[1.0, 0.0]]), gallery)
    assert ranks[0].tolist() == [1, 2, 0]


def test_exact_match_ranks_first():
    gallery = np.eye(4)
    ranks = rank_gallery(gallery[2][None, :], gallery)
    assert ranks[0, 0] == 2


def test_dimension_mismatch_rejected():
    with pytest.raises(ShapeError):
        rank_gallery(np.ones((2, 3)), np.ones((4, 5)))


def test_recall_hand_counts():
    # Targets at global ranks 1, 4, 11 among 12 items.
    rankings = np.array([np.roll(np.arange(12), k) for k in (0, 3, 10)])
    targets = np.array([0, 0, 0])
    assert recall_at_k(rankings, targets, 1) == pytest.approx(100 / 3)
    assert recall_at_k(rankings, targets, 5) == pytest.approx(200 / 3)
    assert recall_at_k(rankings, targets, 10) == pytest.approx(200 / 3)
    assert recall_at_k(rankings, targets, 11) == pytest.approx(100.0)


def test_recall_bounds_checked():
    rankings = np.array([[0, 1, 2]])
    with pytest.raises(ConfigError):
        recall_at_k(rankings, np.array([0]), 0)
    with pytest.raises(ConfigError):
        recall_at_k(rankings, np.array([0]), 4)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000))
def test_recall_monotone_in_k(seed):
    rng = np.random.default_rng(seed)
    queries, gallery = random_instance(rng, q=6, g=10)
    rankings = rank_gallery(queries, gallery)
    targets = rng.integers(0, 10, size=6)
    values = [recall_at_k(rankings, targets, k) for k in range(1, 11)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] == 100.0


def test_target_ranks_agree_with_rank_gallery():
    rng = np.random.default_rng(1)
    for trial in range(50):
        queries, gallery = random_instance(rng, with_ties=trial % 2 == 0)
        targets = rng.integers(0, gallery.shape[0], size=queries.shape[0])
        rankings = rank_gallery(queries, gallery)
        want = 1 + np.argmax(rankings == targets[:, None], axis=1)
        got, _ = target_ranks(queries, gallery, targets, targets[:, None])
        assert np.array_equal(got, want)


def test_subset_ranks_agree_with_restricted_rankings():
    rng = np.random.default_rng(2)
    for trial in range(50):
        queries, gallery = random_instance(rng, q=6, g=10, with_ties=trial % 2 == 0)
        targets = rng.integers(0, 10, size=6)
        others = np.array(
            [rng.permutation(np.setdiff1d(np.arange(10), [t]))[:3] for t in targets]
        )
        subsets = np.concatenate([targets[:, None], others], axis=1)
        rankings = rank_gallery(queries, gallery)
        got = subset_target_ranks(queries, gallery, subsets, targets)
        for i in range(6):
            members = set(subsets[i].tolist())
            restricted = [g for g in rankings[i] if g in members]
            assert got[i] == 1 + restricted.index(targets[i])


def test_ranks_with_ties_before_and_after_the_target():
    # Twelve gallery rows drawn from three vectors: every target ties with
    # rows at lower and at higher indices (except at the ends of a group).
    rng = np.random.default_rng(8)
    base = unit_rows(rng.normal(size=(3, 4)))
    gallery = base[np.array([0, 1, 0, 2, 1, 0, 2, 0, 1, 2, 0, 1])]
    queries = unit_rows(rng.normal(size=(12, 4)))
    targets = np.arange(12)
    subsets = np.stack([
        np.concatenate([[t], rng.permutation(np.setdiff1d(np.arange(12), [t]))[:5]])
        for t in targets
    ])
    ranks, sub_ranks = target_ranks(queries, gallery, targets, subsets)
    want, want_sub = target_ranks_by_sort(queries, gallery, targets, subsets)
    assert np.array_equal(ranks, want) and np.array_equal(sub_ranks, want_sub)
    # A subset holding the target alone leaves the global ranks as they are.
    alone, alone_sub = target_ranks(queries, gallery, targets, targets[:, None])
    assert np.array_equal(alone, want) and (alone_sub == 1).all()
    assert np.array_equal(subset_target_ranks(queries, gallery, subsets, targets), want_sub)
    assert ranks.dtype == sub_ranks.dtype == np.int64
    # Target 5 shares its vector with rows 0, 2, 7 and 10: two tied rows
    # rank ahead of it and two behind.
    tied = gallery[5] @ queries[5] == gallery @ queries[5]
    assert np.flatnonzero(tied).tolist() == [0, 2, 5, 7, 10]
    report = recall_report(queries, gallery, targets, subsets, (1, 5))
    assert report.recall_at[5] == 100.0 * np.mean(want <= 5)
    assert report.rsubset_at_1 == 100.0 * np.mean(want_sub <= 1)


def test_ranks_past_the_uint16_count_range():
    # 70000 columns take the int64 row count; ranks run past 2**16.
    rng = np.random.default_rng(9)
    gallery = unit_rows(rng.normal(size=(70_000, 2)))
    gallery[69_000] = gallery[3]  # a tie behind the first target
    queries = unit_rows(rng.normal(size=(3, 2)))
    targets = np.array([3, 69_000, 12])
    targets[2] = int(np.argsort(-(queries[2] @ gallery.T), kind="stable")[-1])
    want = target_ranks_by_sort(queries, gallery, targets)
    got, _ = target_ranks(queries, gallery, targets, targets[:, None])
    assert np.array_equal(got, want) and got.max() == 70_000


def test_subset_recall_basics():
    rng = np.random.default_rng(3)
    queries, gallery = random_instance(rng, q=8, g=12)
    targets = rng.integers(0, 12, size=8)
    others = np.array(
        [rng.permutation(np.setdiff1d(np.arange(12), [t]))[:3] for t in targets]
    )
    subsets = np.concatenate([targets[:, None], others], axis=1)
    rankings = rank_gallery(queries, gallery)
    # Exhausting the subset always yields 100.
    assert recall_subset_at_k(rankings, subsets, targets, 4) == 100.0
    with pytest.raises(ConfigError):
        recall_subset_at_k(rankings, subsets, targets, 5)
    bad = subsets.copy()
    bad[0, 0] = (targets[0] + 1) % 12
    with pytest.raises(DataError):
        recall_subset_at_k(rankings, bad, targets, 1)


def test_global_rank_one_is_subset_rank_one():
    gallery = np.eye(5)
    queries = gallery[:2]
    targets = np.array([0, 1])
    subsets = np.array([[0, 3, 4], [1, 2, 0]])
    rankings = rank_gallery(queries, gallery)
    assert recall_at_k(rankings, targets, 1) == 100.0
    assert recall_subset_at_k(rankings, subsets, targets, 1) == 100.0


def test_subset_recall_random_scoring_monte_carlo():
    # With subset_size=2 and random scores the target wins about half
    # the time; seeded mean over 1000 trials must sit in [45, 55].
    rng = np.random.default_rng(99)
    values = []
    for _ in range(1000):
        queries = unit_rows(rng.normal(size=(4, 6)))
        gallery = unit_rows(rng.normal(size=(9, 6)))
        targets = rng.integers(0, 9, size=4)
        others = np.array(
            [rng.permutation(np.setdiff1d(np.arange(9), [t]))[:1] for t in targets]
        )
        subsets = np.concatenate([targets[:, None], others], axis=1)
        values.append(
            recall_subset_at_k(rank_gallery(queries, gallery), subsets, targets, 1)
        )
    assert 45.0 <= float(np.mean(values)) <= 55.0


def test_recall_report_matches_reference_path():
    rng = np.random.default_rng(5)
    queries, gallery = random_instance(rng, q=12, g=20, d=5)
    targets = rng.integers(0, 20, size=12)
    others = np.array(
        [rng.permutation(np.setdiff1d(np.arange(20), [t]))[:3] for t in targets]
    )
    subsets = np.concatenate([targets[:, None], others], axis=1)
    report = recall_report(queries, gallery, targets, subsets, (1, 5, 10))
    rankings = rank_gallery(queries, gallery)
    for k in (1, 5, 10):
        assert report.recall_at[k] == recall_at_k(rankings, targets, k)
    assert report.rsubset_at_1 == recall_subset_at_k(rankings, subsets, targets, 1)
    assert report.rmean == pytest.approx(np.mean(list(report.recall_at.values())))


def test_cirr_avg_arithmetic():
    report = MetricReport({5: 82.12}, 82.12, 80.65)
    value = cirr_avg(report)
    assert value == pytest.approx(81.385, abs=1e-12)
    assert abs(value - 81.39) <= 0.005
    assert cirr_avg(MetricReport({5: 100.0}, 100.0, 100.0)) == 100.0
    assert cirr_avg(MetricReport({5: 0.0}, 0.0, 0.0)) == 0.0
    with pytest.raises(ConfigError):
        cirr_avg(MetricReport({10: 50.0}, 50.0, 50.0))


def test_generalization_gap():
    tr = MetricReport({1: 90.0, 5: 90.0}, 90.0, 95.0)
    va = MetricReport({1: 50.0, 5: 50.0}, 50.0, 60.0)
    assert generalization_gap(tr, va) == 40.0
    assert generalization_gap(tr, tr) == 0.0
    assert generalization_gap(va, tr) == -generalization_gap(tr, va)


def quad_loss(ps):
    return 0.5 * float(sum((ps[n] ** 2).sum() for n in ps.trainable_names))


def test_sharpness_quadratic_hand_value():
    ps = ParameterSet({"w": np.array([1.0])})
    assert sharpness(quad_loss, ps, np.array([0.5])) == pytest.approx(0.625, abs=1e-15)
    assert sharpness(quad_loss, ps, np.zeros(1)) == 0.0


def test_adversarial_sharpness_is_nonnegative_for_small_gamma():
    rng = np.random.default_rng(8)
    wins = 0
    for _ in range(1000):
        theta = rng.normal(size=5)
        ps = ParameterSet({"w": theta})
        delta = adversarial_perturbation(ps, theta.copy(), gamma=1e-4)
        if sharpness(quad_loss, ps, delta) >= 0:
            wins += 1
    assert wins >= 990


def test_default_alpha_grid_shape():
    grid = default_alpha_grid()
    assert len(grid) == 21
    assert grid[10] == 0.0
    assert grid[0] == pytest.approx(-0.1) and grid[-1] == pytest.approx(0.1)


LANDSCAPE_PATHS = ("worker", "in-process")


def use_landscape_path(monkeypatch, path: str) -> None:
    """Make landscape_probe run half of its directions in a forked worker,
    or all of them in-process, whatever the CPU count and BLAS threads."""
    if path == "worker" and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the landscape worker needs the fork start method")
    monkeypatch.setattr(worker, "available", lambda: path == "worker")


@pytest.mark.parametrize("path", LANDSCAPE_PATHS)
def test_landscape_probe_base_row_and_determinism(monkeypatch, path):
    use_landscape_path(monkeypatch, path)
    rng = np.random.default_rng(9)
    ps = ParameterSet({"w": rng.normal(size=(3, 3)), "b": rng.normal(size=3)})
    before = {n: ps[n].copy() for n in ps.names}
    alphas = default_alpha_grid(0.1, 5)
    landscape = landscape_probe(quad_loss, ps, 3, alphas, seed=4)
    assert landscape.alphas.tobytes() == alphas.tobytes()
    assert landscape.losses.shape == (3, len(alphas)) and landscape.losses.dtype == np.float64
    assert (landscape.losses[:, 5] == quad_loss(ps)).all()  # exact at alpha=0
    again = landscape_probe(quad_loss, ps, 3, alphas, seed=4)
    assert np.array_equal(landscape.losses, again.losses)
    for n in ps.names:  # probing never mutates the input
        assert np.array_equal(ps[n], before[n])


def test_landscape_direction_norms_match_layer_norms(monkeypatch):
    # In-process: the probes are read through loss_fn's side effects.
    use_landscape_path(monkeypatch, "in-process")
    rng = np.random.default_rng(10)
    ps = ParameterSet({"w": rng.normal(size=(4, 4)), "b": np.zeros(4)})
    probes = []
    landscape_probe(lambda p: probes.append(p) or 0.0, ps, 1, [0.0, 1.0], seed=0)
    direction = {n: probes[1][n] - ps[n] for n in ps.names}  # the alpha=1 row minus the base
    assert float(np.linalg.norm(direction["w"])) == pytest.approx(float(np.linalg.norm(ps["w"])))
    assert float(np.linalg.norm(direction["b"])) == 0.0  # zero-norm layer gets a zero direction


@pytest.mark.parametrize("mode", ["full", "lora"])
def test_landscape_directions_match_the_per_layer_loop_bit_for_bit(monkeypatch, mode):
    # In-process: the probes are read through loss_fn's side effects.
    use_landscape_path(monkeypatch, "in-process")
    model = RetrievalModel(
        ModelConfig(d_ref=6, d_mod=3, hidden=(8,), d_out=4, seed=3),
        mode=mode, lora_rank=2 if mode == "lora" else None,
    )
    ps = model.init_params()  # in lora mode the zero lora_b layers get zero directions
    for seed in range(20):
        probes = []
        landscape_probe(lambda p: probes.append(p) or 0.0, ps, 10, [0.0, 1.0], seed=seed)
        for d_id in range(10):
            want = landscape_direction_by_loop(ps, seed, d_id)
            got = carve(random_perturbation(ps, 1.0, np.random.default_rng([0x51, seed, d_id])),
                        ps.spans)
            assert all(got[n].tobytes() == want[n].tobytes() for n in want), (seed, d_id)
            probe = probes[2 * d_id + 1]  # the alpha=1 row: ps + 1.0 * direction
            for name in ps.names:
                added = ps[name] + 1.0 * want[name] if name in want else ps[name]
                assert probe[name].tobytes() == added.tobytes(), (seed, d_id, name)


@pytest.mark.parametrize("path", LANDSCAPE_PATHS)
def test_landscape_records_nonfinite_instead_of_raising(monkeypatch, path):
    use_landscape_path(monkeypatch, path)
    ps = ParameterSet({"w": np.array([1.0])})

    def exploding(p):
        if abs(float(p["w"][0]) - 1.0) > 0.05:
            raise NumericError("boom")
        return float(p["w"][0])

    # Two directions, so that on the worker path the second one raises there.
    losses = landscape_probe(exploding, ps, 2, default_alpha_grid(0.1, 2), seed=0).losses
    assert losses.shape == (2, 5)
    assert np.isnan(losses[:, 0]).all() and np.isnan(losses[:, -1]).all()
    assert np.isfinite(losses[:, 2]).all()


def test_landscape_grid_validation():
    ps = ParameterSet({"w": np.ones(1)})
    with pytest.raises(ConfigError):
        landscape_probe(quad_loss, ps, 1, np.array([0.1, 0.05, 0.2]))
    with pytest.raises(ConfigError):
        landscape_probe(quad_loss, ps, 1, np.array([-0.1, 0.1]))


def test_flatness_score_cross_checks_against_sharpness():
    rng = np.random.default_rng(11)
    ps = ParameterSet({"w": rng.normal(size=(3, 2))})
    alphas = default_alpha_grid(0.1, 10)
    landscape = landscape_probe(quad_loss, ps, 1, alphas, seed=13)
    score = flatness_score(landscape, alpha=0.05)
    # Rebuild the probe direction and hand it to sharpness directly.
    dir_rng = np.random.default_rng([0x51, 13, 0])
    raw = dir_rng.standard_normal(ps["w"].shape)
    w_norm = np.linalg.norm(ps["w"])
    delta = raw * (w_norm / np.linalg.norm(raw)) * 0.05
    assert score == pytest.approx(sharpness(quad_loss, ps, delta.ravel()), abs=1e-12)
    with pytest.raises(ConfigError, match="not on the probe grid"):
        flatness_score(landscape, alpha=0.037)


def test_flatness_score_is_the_mean_of_one_column_difference():
    alphas = np.array([-0.05, 0.0, 0.05])
    losses = np.array([[3.0, 1.0, 2.0], [0.5, 1.5, 4.5], [1.0, 1.0, 1.0]])
    want = np.mean([2.0 - 1.0, 4.5 - 1.5, 1.0 - 1.0])
    assert flatness_score(Landscape(alphas, losses), 0.05) == want == 4.0 / 3.0
    assert flatness_score(Landscape(alphas, losses), -0.05) == np.mean([2.0, -1.0, 0.0])


@pytest.mark.parametrize("path", LANDSCAPE_PATHS)
def test_landscape_csv_layout(tmp_path, monkeypatch, path):
    use_landscape_path(monkeypatch, path)
    ps = ParameterSet({"w": np.ones(2)})
    alphas = default_alpha_grid(0.1, 10)
    landscape = landscape_probe(quad_loss, ps, 2, alphas, seed=0)
    path = tmp_path / "landscape.csv"
    landscape_to_csv(landscape, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "direction_id,alpha,loss"
    assert len(lines) == 1 + 2 * 21
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == -0.1
    # Direction d's row, alpha by alpha, as the repr of each float.
    want = [f"{d},{float(alpha)!r},{float(loss)!r}"
            for d, row in enumerate(landscape.losses) for alpha, loss in zip(alphas, row)]
    assert lines[1:] == want


def _model_loss(mode: str):
    """A small RetrievalModel's batch loss and its parameters, moved off init."""
    model = RetrievalModel(
        ModelConfig(d_ref=6, d_mod=3, hidden=(8,), d_out=4, seed=3),
        mode=mode, lora_rank=2 if mode == "lora" else None,
    )
    ps = model.init_params()
    rng = np.random.default_rng(21)
    for name in ps.trainable_names:  # lora_b off zero, so its layers get directions too
        arr = ps[name]
        arr += 0.1 * rng.standard_normal(arr.shape)
    batch = TripletBatch(*(rng.standard_normal((16, d)) for d in (6, 3, 6)))
    return (lambda p: model.batch_loss(p, batch, 10.0)), ps


@pytest.mark.parametrize("n_directions", [2, 3, 4])
@pytest.mark.parametrize("mode", ["full", "lora"])
def test_landscape_curves_are_the_same_on_both_paths(monkeypatch, mode, n_directions):
    loss, ps = _model_loss(mode)
    alphas = default_alpha_grid(0.1, 3)
    calls = {}
    got = {}
    for path in LANDSCAPE_PATHS:
        calls[path] = 0

        def counting(p, path=path):
            calls[path] += 1  # in the worker this counts in the child's copy
            return loss(p)

        with monkeypatch.context() as patch:
            use_landscape_path(patch, path)
            got[path] = landscape_probe(counting, ps, n_directions, alphas, seed=5)
    # The parent ran directions [0, ceil(n/2)); the worker ran the rest,
    # and its rows follow the parent's.
    half = (n_directions + 1) // 2
    assert calls == {"worker": half * len(alphas), "in-process": n_directions * len(alphas)}
    a, b = got["worker"], got["in-process"]
    assert a.alphas.tobytes() == b.alphas.tobytes() == alphas.tobytes()
    assert a.losses.shape == (n_directions, len(alphas))
    assert a.losses.tobytes() == b.losses.tobytes()
    assert np.isfinite(a.losses).all()


def test_an_error_in_the_worker_half_reaches_the_caller(monkeypatch):
    use_landscape_path(monkeypatch, "worker")
    parent = os.getpid()

    def loss(p):
        if os.getpid() != parent:
            raise ValueError("boom in the worker")
        return quad_loss(p)

    ps = ParameterSet({"w": np.ones(3)})
    with pytest.raises(ValueError, match="^boom in the worker$") as info:
        landscape_probe(loss, ps, 3, default_alpha_grid(0.1, 2), seed=0)
    assert type(info.value) is ValueError


def test_a_dead_landscape_worker_fails_the_probe_promptly(monkeypatch):
    use_landscape_path(monkeypatch, "worker")
    parent = os.getpid()

    def loss(p):
        if os.getpid() != parent:
            os._exit(1)
        return quad_loss(p)

    ps = ParameterSet({"w": np.ones(3)})
    tick = time.perf_counter()
    with pytest.raises(RuntimeError, match="^landscape worker exited with code 1$"):
        landscape_probe(loss, ps, 4, default_alpha_grid(0.1, 2), seed=0)
    assert time.perf_counter() - tick < 10.0


def test_one_direction_forks_nothing(monkeypatch):
    use_landscape_path(monkeypatch, "worker")

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    calls = []
    ps = ParameterSet({"w": np.ones(3)})
    alphas = default_alpha_grid(0.1, 2)
    landscape = landscape_probe(lambda p: calls.append(1) or quad_loss(p), ps, 1, alphas, seed=0)
    assert landscape.losses.shape == (1, len(alphas)) and len(calls) == len(alphas)
