"""Anchors and properties for the contrastive loss.

The two closed-form anchors: identical embeddings give ln(B) exactly,
and two orthogonal pairs at tau=1 give ln(1 + e^-1).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrf.diffcore import Executor, Graph, finite_diff_gradient
from wrf.errors import ConfigError, ShapeError
from wrf.model import attach_q2t_loss
from wrf.params import ParameterSet
from wrf.trainer import TrainConfig

from oracles import contrastive_q2t, value_and_grad


def unit_rows(arr):
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


@pytest.mark.parametrize("batch", [2, 8, 64])
def test_uniform_batch_gives_log_b(batch):
    # Every query and target identical: all logits equal, so each row's
    # softmax is uniform and the loss is exactly ln(B).
    d = 5
    row = np.zeros(d)
    row[0] = 1.0
    u = np.tile(row, (batch, 1))
    loss = contrastive_q2t(u, u.copy(), tau=10.0)
    assert abs(loss - math.log(batch)) <= 1e-12


def test_two_orthogonal_pairs_at_tau_one():
    u = np.eye(2)
    loss = contrastive_q2t(u, u.copy(), tau=1.0)
    expected = math.log(1.0 + math.exp(-1.0))
    assert abs(loss - expected) <= 1e-9
    assert round(loss, 6) == 0.313262


def test_batch_permutation_invariance():
    rng = np.random.default_rng(3)
    u = unit_rows(rng.normal(size=(16, 6)))
    v = unit_rows(rng.normal(size=(16, 6)))
    base = contrastive_q2t(u, v)
    perm = rng.permutation(16)
    assert abs(contrastive_q2t(u[perm], v[perm]) - base) <= 1e-12


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.integers(2, 12))
def test_loss_decreases_in_tau_when_diagonal_dominates(seed, batch):
    # Build embeddings where each query is strictly closest to its own
    # target; sharpening the softmax must then strictly reduce the loss.
    rng = np.random.default_rng(seed)
    d = batch + 3
    v = unit_rows(rng.normal(size=(batch, d)))
    noise = rng.normal(size=(batch, d)) * 0.05
    u = unit_rows(v + noise)
    scores = u @ v.T
    diag = np.diag(scores)
    off = scores - np.diag(diag) - np.eye(batch) * 10.0
    if not np.all(diag > off.max(axis=1) + 1e-3):
        return  # noise broke dominance; property does not apply
    losses = [contrastive_q2t(u, v, tau=t) for t in (1.0, 4.0, 16.0)]
    assert losses[0] > losses[1] > losses[2]


def test_large_tau_stays_finite():
    rng = np.random.default_rng(11)
    u = unit_rows(rng.normal(size=(8, 4)))
    v = unit_rows(rng.normal(size=(8, 4)))
    loss = contrastive_q2t(u, v, tau=1e3)
    assert np.isfinite(loss)


def test_precondition_errors():
    ok = unit_rows(np.random.default_rng(0).normal(size=(4, 3)))
    with pytest.raises(ValueError):
        contrastive_q2t(ok[:1], ok[:1])
    with pytest.raises(ValueError):
        contrastive_q2t(ok * 1.5, ok)
    with pytest.raises(ShapeError):
        contrastive_q2t(ok, ok[:, :2])
    with pytest.raises(ConfigError):
        contrastive_q2t(ok, ok, tau=0.0)
    with pytest.raises(ConfigError):
        contrastive_q2t(ok, ok, tau=-3.0)


def test_graph_form_matches_reference():
    rng = np.random.default_rng(21)
    u = unit_rows(rng.normal(size=(6, 5)))
    v = unit_rows(rng.normal(size=(6, 5)))
    g = Graph()
    loss = attach_q2t_loss(g, g.input("u"), g.input("v"), tau=10.0)
    got = Executor(g).forward({"u": u, "v": v}, ParameterSet({"w": np.ones(1)}), loss)
    assert abs(float(got) - contrastive_q2t(u, v, tau=10.0)) <= 1e-12


def test_graph_form_gradient_matches_finite_difference():
    # Differentiate through the normalization exactly as the model does:
    # raw parameter rows are normalized inside the graph, then scored.
    rng = np.random.default_rng(22)
    raw_u = rng.normal(size=(5, 4))
    raw_v = rng.normal(size=(5, 4))
    g = Graph()
    qn = g.l2norm_rows(g.param("raw_u"))
    tn = g.l2norm_rows(g.param("raw_v"))
    loss = attach_q2t_loss(g, qn, tn, tau=3.0)
    ps = ParameterSet({"raw_u": raw_u, "raw_v": raw_v})
    _, analytic = value_and_grad(g, {}, ps)

    def loss_fn(p):
        return float(Executor(g).forward({}, p, loss))

    oracle = finite_diff_gradient(loss_fn, ps, h=1e-5)
    for _, a, b, _ in ps.spans:
        scale = max(np.abs(oracle[a:b]).max(), 1e-10)
        assert np.abs(analytic[a:b] - oracle[a:b]).max() / scale <= 1e-6


def test_loss_config_validates_tau():
    # The temperature is configured and checked on TrainConfig only.
    assert TrainConfig().tau == 10.0
    assert TrainConfig(tau=0.5).tau == 0.5
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ConfigError):
            TrainConfig(tau=bad)
