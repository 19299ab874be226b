"""Perturbation budget, direction, and mixing properties."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrf.errors import ConfigError, NumericError
from wrf.params import ParameterSet, carve
from wrf.perturb import (
    adversarial_perturbation,
    apply_perturbation,
    choose_kind,
    random_perturbation,
)
from wrf.trainer import TrainConfig

from oracles import equal_bits


def random_params(rng, n_layers=3, frozen=False):
    layers = {}
    for i in range(n_layers):
        shape = (rng.integers(1, 6), rng.integers(1, 6))
        layers[f"l{i}"] = rng.normal(size=shape)
    names = list(layers)
    trainable = names[:-1] if frozen and len(names) > 1 else None
    return ParameterSet(layers, trainable)


def grads_like(ps, rng):
    """A gradient laid out like ps.flat: the stream of one draw per trainable layer."""
    return rng.normal(size=ps.flat.size)


def test_overflowing_norms_give_a_non_finite_delta_without_a_warning():
    ps = ParameterSet({"w": np.full(4, 1e200), "b": np.ones(2)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for delta in (
            adversarial_perturbation(ps, np.full(6, 1e300), gamma=0.5),
            random_perturbation(ps, 0.5, np.random.default_rng(0)),
        ):
            assert not np.isfinite(delta[:4]).all() and np.isfinite(delta[4:]).all()


def test_hand_example():
    # theta=[3,4] has norm 5; g=[0,2] normalizes to [0,1]; gamma=0.001
    # gives delta = 0.001 * [0,1] * 5 = [0, 0.005].
    ps = ParameterSet({"w": np.array([3.0, 4.0])})
    delta = adversarial_perturbation(ps, np.array([0.0, 2.0]), gamma=0.001)
    np.testing.assert_allclose(delta, [0.0, 0.005], rtol=1e-12)


def test_gamma_zero_gives_zero_perturbation():
    rng = np.random.default_rng(0)
    ps = random_params(rng)
    delta = adversarial_perturbation(ps, grads_like(ps, rng), gamma=0.0)
    assert np.array_equal(delta, np.zeros_like(ps.flat))
    assert np.array_equal(random_perturbation(ps, 0.0, rng), np.zeros_like(ps.flat))


def test_zero_gradient_layer_is_skipped_others_kept():
    ps = ParameterSet({"a": np.array([3.0, 4.0]), "b": np.array([1.0, 0.0])})
    deltas = carve(adversarial_perturbation(ps, np.array([0.0, 0.0, 0.0, 1.0]), gamma=0.01),
                   ps.spans)
    assert np.array_equal(deltas["a"], np.zeros(2))
    assert np.linalg.norm(deltas["b"]) > 0


def test_budget_equality_over_many_draws():
    # Constraint met with equality: ||delta_l|| = gamma * ||theta_l||,
    # relative 1e-10, on every nonzero layer across 1000 draws.
    rng = np.random.default_rng(42)
    gammas = 10.0 ** rng.uniform(-4, -1, size=1000)
    for trial in range(1000):
        ps = random_params(rng)
        gamma = float(gammas[trial])
        if trial % 2 == 0:
            delta = adversarial_perturbation(ps, grads_like(ps, rng), gamma)
        else:
            delta = random_perturbation(ps, gamma, rng)
        deltas = carve(delta, ps.spans)
        for name in ps.trainable_names:
            d_norm = np.linalg.norm(deltas[name])
            budget = gamma * np.linalg.norm(ps[name])
            if d_norm > 0:
                assert abs(d_norm - budget) <= 1e-10 * budget


def test_adversarial_direction_is_exactly_gradient_direction():
    rng = np.random.default_rng(7)
    for _ in range(100):
        ps = random_params(rng)
        grad = grads_like(ps, rng)
        delta = adversarial_perturbation(ps, grad, gamma=0.01)
        for _, a, b, _ in ps.spans:
            d, g = delta[a:b], grad[a:b]
            cos = d @ g / (np.linalg.norm(d) * np.linalg.norm(g))
            assert abs(cos - 1.0) <= 1e-10


def test_first_order_ascent_on_smooth_loss():
    # For small gamma the adversarial step climbs the loss in nearly
    # every trial (quartic well keeps curvature positive but varied).
    rng = np.random.default_rng(11)
    wins = 0
    trials = 1000
    for _ in range(trials):
        theta = rng.normal(size=6) * 2.0
        a = rng.uniform(0.5, 2.0, size=6)

        def loss(x):
            return float((a * x**4).sum() + (x**2).sum())

        grad = 4.0 * a * theta**3 + 2.0 * theta
        ps = ParameterSet({"w": theta})
        perturbed = apply_perturbation(ps, adversarial_perturbation(ps, grad, gamma=1e-4))
        if loss(perturbed["w"]) >= loss(theta):
            wins += 1
    assert wins >= 0.99 * trials


def test_random_perturbation_deterministic_given_seed():
    ps = random_params(np.random.default_rng(1))
    p1 = random_perturbation(ps, 0.01, np.random.default_rng(99))
    p2 = random_perturbation(ps, 0.01, np.random.default_rng(99))
    assert np.array_equal(p1, p2)


def test_frozen_layers_never_perturbed():
    rng = np.random.default_rng(3)
    ps = random_params(rng, frozen=True)
    frozen = set(ps.names) - set(ps.trainable_names)
    delta = random_perturbation(ps, 0.05, rng)
    assert frozen and delta.shape == ps.flat.shape
    out = apply_perturbation(ps, delta)
    for name in frozen:
        assert np.array_equal(out[name], ps[name])


def test_choose_kind_extremes_and_concentration():
    rng = np.random.default_rng(5)
    assert all(choose_kind(1.0, rng) == "adversarial" for _ in range(100))
    assert all(choose_kind(0.0, rng) == "random" for _ in range(100))
    draws = sum(choose_kind(0.5, rng) == "adversarial" for _ in range(10_000))
    assert abs(draws / 10_000 - 0.5) <= 0.02


def test_apply_and_restore_are_exact():
    # The perturbation lands on a copy, so theta itself is the restore.
    rng = np.random.default_rng(8)
    ps = random_params(rng)
    before = ps.copy()
    delta = adversarial_perturbation(ps, grads_like(ps, rng), gamma=0.05)
    perturbed = apply_perturbation(ps, delta)
    assert not equal_bits(perturbed, ps)
    deltas = carve(delta, ps.spans)
    for name in ps.trainable_names:
        assert np.array_equal(perturbed[name], before[name] + deltas[name])
    assert equal_bits(ps, before)


def test_apply_leaves_input_untouched():
    rng = np.random.default_rng(9)
    ps = random_params(rng)
    before = {n: ps[n].copy() for n in ps.names}
    apply_perturbation(ps, random_perturbation(ps, 0.1, rng))
    for n in ps.names:
        assert np.array_equal(ps[n], before[n])


def test_single_weight_apply():
    ps = ParameterSet({"w": np.array([1.0])})
    out = apply_perturbation(ps, adversarial_perturbation(ps, np.array([1.0]), gamma=0.25))
    assert out["w"][0] == pytest.approx(1.25, abs=1e-15)


def test_validation_errors():
    ps = ParameterSet({"w": np.array([1.0, 2.0])})
    with pytest.raises(NumericError):
        adversarial_perturbation(ps, np.array([np.nan, 1.0]), gamma=0.01)
    with pytest.raises(ConfigError):
        adversarial_perturbation(ps, np.ones(3), gamma=0.1)
    with pytest.raises(ConfigError):
        TrainConfig(rho=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(gamma=float("inf"))


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 100_000), st.floats(1e-4, 1e-1))
def test_budget_property(seed, gamma):
    rng = np.random.default_rng(seed)
    ps = random_params(rng)
    deltas = carve(adversarial_perturbation(ps, grads_like(ps, rng), gamma), ps.spans)
    for name in ps.trainable_names:
        d_norm = float(np.linalg.norm(deltas[name]))
        budget = gamma * float(np.linalg.norm(ps[name]))
        assert d_norm == 0.0 or abs(d_norm - budget) <= 1e-10 * budget
