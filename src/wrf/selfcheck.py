"""Release-gate checks: gradient oracle, budget equality, update algebra.

Each check returns a named pass/fail row instead of raising, so the CLI
can print the full table even when an early check fails. The suite must
stay fast (well under a minute on one core): it runs on tiny graphs and
a quadratic toy objective, not on experiment-sized models.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Callable, NamedTuple

import numpy as np

from . import diffcore
from .diffcore import finite_diff_gradient
from .model import ACTIVATIONS, MODES, ModelConfig, RetrievalModel
from .params import ParameterSet, carve
from .perturb import adversarial_perturbation, random_perturbation
from .trainer import (
    TrainConfig,
    TripletBatch,
    baseline_step,
    new_train_state,
    wrf_step,
    wrf_step_literal_sgd,
)

GRAD_RTOL = 1e-6
GRAD_ATOL = 1e-8
BUDGET_RTOL = 1e-10
COLLAPSE_TOL = 1e-12
DUAL_TOL = 1e-9


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


class _QuadObjective:
    def loss_and_grads(self, params, batch):
        loss = 0.5 * float(sum((params[n] ** 2).sum() for n in params.trainable_names))
        return loss, params.flat.copy()


_TOY_BATCH = TripletBatch(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 1)))


def _toy_params(seed):
    rng = np.random.default_rng(seed)
    return ParameterSet({"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)})


def check_gradient_oracle(n_seeds: int = 25) -> CheckResult:
    """Backward pass vs central differences on the full loss graph, in
    both activations and both fine-tune modes."""
    worst = 0.0
    for activation, mode, seed in itertools.product(ACTIVATIONS, MODES, range(n_seeds)):
        config = ModelConfig(d_ref=6, d_mod=3, hidden=(8,), d_out=4, activation=activation, seed=seed)
        model = RetrievalModel(config, mode=mode, lora_rank=2 if mode == "lora" else None)
        rng = np.random.default_rng([0x5C, seed])
        refs, mods, raw = (rng.normal(size=(5, d)) for d in (6, 3, 6))
        batch = TripletBatch(refs, mods, raw / np.linalg.norm(raw, axis=1, keepdims=True))
        params = model.init_params()
        for name in params.trainable_names:
            if name.endswith(".lora_b"):  # zero at init, which leaves lora_a no gradient
                params[name][...] = rng.normal(size=params[name].shape)
        _, grad = model.loss_and_grads(params, batch, tau=5.0)
        want = finite_diff_gradient(lambda p: model.batch_loss(p, batch, tau=5.0), params)
        allowed = np.maximum(GRAD_RTOL * np.abs(want), GRAD_ATOL)
        worst = max(worst, float((np.abs(grad - want) / allowed).max()))
    ok = worst <= 1.0
    return CheckResult(
        "gradient-oracle", ok,
        f"max error {worst:.3e} of allowance over {n_seeds} seeds in each of "
        f"{len(ACTIVATIONS) * len(MODES)} activation/mode pairs",
    )


def check_perturbation_budget(n_draws: int = 250) -> CheckResult:
    """Every nonzero layer lands exactly on the gamma * ||theta|| sphere."""
    rng = np.random.default_rng(0xB0D9E7)
    worst = 0.0
    zero_ok = True
    for draw in range(n_draws):
        params = _toy_params(rng.integers(1 << 31))
        gamma = float(10.0 ** rng.uniform(-4, -1))
        grad = None
        if draw % 2 == 0:
            grad = rng.normal(size=params.flat.size)  # the stream of a draw per layer
            if draw % 10 == 0:
                carve(grad, params.spans)["b"][...] = 0.0  # stationary layer
            delta = adversarial_perturbation(params, grad, gamma)
        else:
            delta = random_perturbation(params, gamma, rng)
        deltas = carve(delta, params.spans)
        if draw % 10 == 0 and np.any(deltas["b"] != 0.0):
            zero_ok = False
        for name, start, stop, _ in params.spans:
            if grad is not None and not np.any(grad[start:stop]):
                continue
            budget = gamma * float(np.linalg.norm(params[name]))
            got = float(np.linalg.norm(deltas[name]))
            worst = max(worst, abs(got - budget) / budget)
    ok = worst <= BUDGET_RTOL and zero_ok
    detail = f"max relative budget error {worst:.3e} over {n_draws} draws"
    if not zero_ok:
        detail += "; zero-gradient layer produced a nonzero delta"
    return CheckResult("perturbation-budget", ok, detail)


def _trajectory_gap(cfg: TrainConfig, params_seed: int, step_a, step_b) -> float:
    """Largest coordinate gap after 50 paired steps from the same toy params."""
    state_a = new_train_state(cfg, _toy_params(params_seed))
    state_b = new_train_state(cfg, _toy_params(params_seed))
    obj = _QuadObjective()
    for _ in range(50):
        step_a(state_a, _TOY_BATCH, cfg, obj)
        step_b(state_b, _TOY_BATCH, cfg, obj)
    return float(np.abs(state_a.params.flat - state_b.params.flat).max())


def check_gamma_zero_collapse() -> CheckResult:
    configs = [
        TrainConfig(
            gamma=0.0, rho=1.0, eta0=0.05, schedule="constant", optimizer=optimizer,
            weight_decay=0.01, total_epochs=2, warmup_epochs=0, seed=7,
        )
        for optimizer in ("sgd", "adamw")
    ]
    gap = max(_trajectory_gap(cfg, 3, wrf_step, baseline_step) for cfg in configs)
    return CheckResult(
        "gamma-zero-collapse", gap <= COLLAPSE_TOL,
        f"max trajectory gap {gap:.3e} after 50 steps (sgd and adamw)",
    )


def check_dual_update_forms() -> CheckResult:
    cfg = TrainConfig(
        gamma=0.01, rho=0.5, eta0=0.05, schedule="constant", optimizer="sgd",
        total_epochs=2, warmup_epochs=0, seed=5,
    )
    gap = _trajectory_gap(cfg, 8, wrf_step, wrf_step_literal_sgd)
    return CheckResult(
        "dual-update-forms", gap <= DUAL_TOL,
        f"max gap between update forms {gap:.3e} after 50 steps",
    )


CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_gradient_oracle,
    check_perturbation_budget,
    check_gamma_zero_collapse,
    check_dual_update_forms,
)


# The fault names the CLI offers, each the op whose backward it flips.
FAULTS = {"grad-sign": "tanh"}


@contextlib.contextmanager
def inject_fault(op: str):
    """Mutation fixture: flip the sign of one op's backward rule (an op
    name from diffcore._OPS, or a name in FAULTS), restore on exit."""
    op = FAULTS.get(op, op)
    original = diffcore._OPS[op]

    def flipped(i, g, ctx):
        return tuple(-grad for grad in original.backward(i, g, ctx))

    diffcore._OPS[op] = original._replace(backward=flipped)
    try:
        yield
    finally:
        diffcore._OPS[op] = original


def run_selfcheck(inject: str | None = None) -> list[CheckResult]:
    with inject_fault(inject) if inject else contextlib.nullcontext():
        return [check() for check in CHECKS]
