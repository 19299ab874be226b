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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .params import GradientSet, ParameterSet, carve, check_gradient_keys

# Below this, a norm counts as zero and the layer is left unperturbed.
ZERO_NORM_EPS = 1e-12

@dataclass(frozen=True)
class Perturbation:
    """A delta laid out like ParameterSet.flat (spans), its kind, and its layer views."""

    flat: np.ndarray
    kind: str
    spans: tuple

    @property
    def deltas(self) -> dict[str, np.ndarray]:
        return carve(self.flat, self.spans)


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not (np.isfinite(gamma) and gamma >= 0.0):
        raise ConfigError(f"gamma must be finite and >= 0, got {gamma}")
    return gamma


def _build(params: ParameterSet, raw: np.ndarray, gamma: float, kind: str) -> Perturbation:
    """Rescale raw (laid out like params.flat) to ||delta_l|| = gamma * ||theta_l||
    per layer; each norm is sqrt(view.dot(view)), as np.linalg.norm takes it."""
    delta = np.zeros(params.flat.size)
    if gamma != 0.0:
        for _, a, b, _ in params.spans:
            w, direction = params.flat[a:b], raw[a:b]
            w_norm, d_norm = math.sqrt(w.dot(w)), math.sqrt(direction.dot(direction))
            if not (d_norm < ZERO_NORM_EPS or w_norm < ZERO_NORM_EPS):
                np.multiply(direction, gamma * w_norm / d_norm, out=delta[a:b])
    return Perturbation(delta, kind, params.spans)


def adversarial_perturbation(params: ParameterSet, grads: GradientSet, gamma: float) -> Perturbation:
    gamma = _check_gamma(gamma)
    check_gradient_keys(params, grads)
    flat = params.flatten(grads)
    if not np.isfinite(flat).all():
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise NumericError(f"gradient for layer {name!r} has non-finite entries")
    return _build(params, flat, gamma, "adversarial")


def random_perturbation(params: ParameterSet, gamma: float, rng: np.random.Generator) -> Perturbation:
    """One draw of flat.size normals: the same stream as a draw per layer."""
    gamma = _check_gamma(gamma)
    return _build(params, rng.standard_normal(params.flat.size), gamma, "random")


def choose_kind(rho: float, rng: np.random.Generator) -> str:
    """One Bernoulli(rho) draw: adversarial with probability rho, else random."""
    return "adversarial" if rng.random() < rho else "random"


def apply_perturbation(params: ParameterSet, pert: Perturbation) -> ParameterSet:
    """Return a new ParameterSet with the delta added to the trainable layers."""
    if pert.spans != params.spans:
        raise ConfigError(f"perturbation layout {pert.spans} does not fit params {params.spans}")
    out = params.copy()
    out.flat += pert.flat
    return out
