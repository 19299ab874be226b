"""Weight perturbations: adversarial, random, and ratio mixing.

The adversarial perturbation moves each trainable layer along its own
normalized gradient direction, scaled to the layer's weight norm:

    delta_l = gamma * (g_l / ||g_l||) * ||theta_l||

so the constraint ||delta_l|| <= gamma * ||theta_l|| is met with
equality for every layer with a usable gradient. The random variant
draws standard normal entries and rescales to the same per-layer
budget, which makes the two kinds directly comparable in ablations.
Layers with vanishing gradient or weight norm get a zero perturbation;
frozen layers are never touched. apply_perturbation returns a perturbed
copy and leaves its input as it was, so dropping the copy restores
theta bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .params import GradientSet, ParameterSet, check_gradient_keys

# Below this, a norm counts as zero and the layer is left unperturbed.
ZERO_NORM_EPS = 1e-12

@dataclass(frozen=True)
class Perturbation:
    """Per-layer deltas over the trainable layers, plus recorded norms."""

    deltas: dict[str, np.ndarray]
    delta_norms: dict[str, float]
    weight_norms: dict[str, float]
    kind: str
    gamma: float


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not (np.isfinite(gamma) and gamma >= 0.0):
        raise ConfigError(f"gamma must be finite and >= 0, got {gamma}")
    return gamma


def _build(params: ParameterSet, raw: dict[str, np.ndarray], gamma: float, kind: str) -> Perturbation:
    """Rescale raw directions to ||delta_l|| = gamma * ||theta_l|| per layer."""
    deltas: dict[str, np.ndarray] = {}
    delta_norms: dict[str, float] = {}
    weight_norms: dict[str, float] = {}
    for name in params.trainable_names:
        w_norm = float(np.linalg.norm(params[name]))
        weight_norms[name] = w_norm
        direction = raw[name]
        d_norm = float(np.linalg.norm(direction))
        if gamma == 0.0 or d_norm < ZERO_NORM_EPS or w_norm < ZERO_NORM_EPS:
            deltas[name] = np.zeros_like(params[name])
            delta_norms[name] = 0.0
        else:
            deltas[name] = direction * (gamma * w_norm / d_norm)
            delta_norms[name] = float(np.linalg.norm(deltas[name]))
    return Perturbation(deltas, delta_norms, weight_norms, kind, gamma)


def adversarial_perturbation(params: ParameterSet, grads: GradientSet, gamma: float) -> Perturbation:
    gamma = _check_gamma(gamma)
    check_gradient_keys(params, grads)
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericError(f"gradient for layer {name!r} has non-finite entries")
    return _build(params, grads, gamma, "adversarial")


def random_perturbation(params: ParameterSet, gamma: float, rng: np.random.Generator) -> Perturbation:
    gamma = _check_gamma(gamma)
    raw = {n: rng.standard_normal(params[n].shape) for n in params.trainable_names}
    return _build(params, raw, gamma, "random")


def choose_kind(rho: float, rng: np.random.Generator) -> str:
    """One Bernoulli(rho) draw: adversarial with probability rho, else random."""
    return "adversarial" if rng.random() < rho else "random"


def apply_perturbation(params: ParameterSet, pert: Perturbation) -> ParameterSet:
    """Return a new ParameterSet with deltas added to the trainable layers."""
    if set(pert.deltas) != set(params.trainable_names):
        raise ConfigError(
            f"perturbation covers {sorted(pert.deltas)}, params train {sorted(params.trainable_names)}"
        )
    out = params.copy()
    for name, delta in pert.deltas.items():
        arr = out[name]
        if delta.shape != arr.shape:
            raise ShapeError(f"delta for {name!r}: {delta.shape} vs {arr.shape}")
        arr += delta
    return out
