"""The release gate itself: clean pass, targeted failure, time budget."""

import time

import numpy as np
import pytest

from wrf import diffcore, selfcheck
from wrf.model import ModelConfig, RetrievalModel
from wrf.params import carve
from wrf.synthcir import TripletBatch


def test_clean_build_passes_all_checks():
    results = selfcheck.run_selfcheck()
    assert [r.name for r in results] == [
        "gradient-oracle", "perturbation-budget",
        "gamma-zero-collapse", "dual-update-forms",
    ]
    assert all(r.ok for r in results), results


def test_injected_sign_error_trips_only_the_gradient_check():
    results = selfcheck.run_selfcheck(inject="grad-sign")
    by_name = {r.name: r.ok for r in results}
    assert by_name["gradient-oracle"] is False
    assert by_name["perturbation-budget"] is True
    assert by_name["gamma-zero-collapse"] is True
    assert by_name["dual-update-forms"] is True


def test_fault_injection_restores_the_registry():
    original = diffcore._OPS["tanh"]
    with selfcheck.inject_fault("grad-sign"):
        assert diffcore._OPS["tanh"] is not original
    assert diffcore._OPS["tanh"] is original
    with pytest.raises(ValueError):
        with selfcheck.inject_fault("bit-flip"):  # unknown kind
            pass


def test_suite_runs_within_budget():
    tick = time.perf_counter()
    selfcheck.run_selfcheck()
    assert time.perf_counter() - tick < 60.0


def test_quad_objective_gradient_is_identity():
    from wrf.params import ParameterSet

    obj = selfcheck._QuadObjective()
    ps = ParameterSet({"w": np.array([3.0, -2.0])})
    loss, grad = obj.loss_and_grads(ps, None)
    assert loss == pytest.approx(6.5)
    assert np.array_equal(grad, ps.flat) and not np.shares_memory(grad, ps.flat)


def test_fault_injected_after_the_plan_exists_still_breaks_gradients():
    model = RetrievalModel(ModelConfig(d_ref=6, d_mod=3, hidden=(8,), d_out=4, seed=2))
    ps = model.init_params()
    rng = np.random.default_rng(4)
    batch = TripletBatch(rng.normal(size=(5, 6)), rng.normal(size=(5, 3)), rng.normal(size=(5, 6)))
    _, clean = model.loss_and_grads(ps, batch, tau=5.0)  # compiles and caches the plan
    with selfcheck.inject_fault("grad-sign"):
        _, broken = model.loss_and_grads(ps, batch, tau=5.0)
    _, again = model.loss_and_grads(ps, batch, tau=5.0)
    layer = "fusion.0.w"
    assert not np.allclose(carve(broken, ps.spans)[layer], carve(clean, ps.spans)[layer])
    assert np.array_equal(again, clean)


def test_flipped_softmax_xent_backward_fails_the_gradient_oracle(monkeypatch):
    original = diffcore._OPS["softmax_xent"]

    def flipped(i, g, ctx):
        (grad,) = original.backward(i, g, ctx)
        return (-grad,)

    monkeypatch.setitem(diffcore._OPS, "softmax_xent", original._replace(backward=flipped))
    assert selfcheck.check_gradient_oracle(n_seeds=2).ok is False


# Ops whose backward never runs in the gradient oracle: row_concat joins
# refs and mods, and no parameter lies behind it, so backward pruning
# skips it in every activation and mode.
UNREACHABLE_OPS = {"row_concat"}


@pytest.mark.parametrize("op", sorted(diffcore._OPS))
def test_the_gradient_oracle_catches_a_flipped_backward_of_every_reachable_op(op):
    assert UNREACHABLE_OPS <= set(diffcore._OPS)
    with selfcheck.inject_fault(op):
        result = selfcheck.check_gradient_oracle(n_seeds=2)
    assert result.ok is (op in UNREACHABLE_OPS), result.detail


@pytest.mark.parametrize("op", sorted(diffcore._OPS))
def test_fault_injection_changes_only_the_backward(op):
    original = diffcore._OPS[op]
    with selfcheck.inject_fault(op):
        patched = diffcore._OPS[op]
    assert patched.backward is not original.backward
    assert patched._replace(backward=original.backward) == original
