"""Weight perturbations: adversarial, random, and ratio mixing.

The adversarial perturbation moves each trainable layer along its own
normalized gradient direction, scaled to the layer's weight norm:

    delta_l = gamma * (g_l / ||g_l||) * ||theta_l||

so the constraint ||delta_l|| <= gamma * ||theta_l|| is met with
equality for every layer with a usable gradient. The random variant
draws standard normal entries and rescales to the same per-layer
budget, which makes the two kinds directly comparable in ablations.
Layers with vanishing gradient or weight norm get a zero perturbation;
frozen layers are never touched. A gradient and a perturbation delta
are plain float64 arrays laid out like ParameterSet.flat: both builders
return delta, and the trainer keeps the kind it drew with choose_kind.
apply_perturbation returns a perturbed copy and leaves its input as it
was, so dropping the copy restores theta bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError
from .params import ParameterSet

# Below this, a norm counts as zero and the layer is left unperturbed.
ZERO_NORM_EPS = 1e-12


# Overflow is not a warning here: the pass at theta + delta rejects a
# non-finite perturbed parameter with a NumericError.
@np.errstate(over="ignore", invalid="ignore")
def _build(params: ParameterSet, raw: np.ndarray, gamma: float) -> np.ndarray:
    """Rescale raw (laid out like params.flat) to ||delta_l|| = gamma * ||theta_l||
    per layer; each norm is sqrt(view.dot(view)), as np.linalg.norm takes it."""
    delta = np.zeros(params.flat.size)
    if gamma != 0.0:
        for _, a, b, _ in params.spans:
            w, direction = params.flat[a:b], raw[a:b]
            w_norm, d_norm = math.sqrt(w.dot(w)), math.sqrt(direction.dot(direction))
            if not (d_norm < ZERO_NORM_EPS or w_norm < ZERO_NORM_EPS):
                np.multiply(direction, gamma * w_norm / d_norm, out=delta[a:b])
    return delta


def adversarial_perturbation(params: ParameterSet, grad: np.ndarray, gamma: float) -> np.ndarray:
    params.check_flat(grad, "gradient")
    if not np.isfinite(grad).all():
        for name, a, b, _ in params.spans:
            if not np.isfinite(grad[a:b]).all():
                raise NumericError(f"gradient for layer {name!r} has non-finite entries")
    return _build(params, grad, gamma)


def random_perturbation(params: ParameterSet, gamma: float, rng: np.random.Generator) -> np.ndarray:
    """One draw of flat.size normals: the same stream as a draw per layer."""
    return _build(params, rng.standard_normal(params.flat.size), gamma)


def choose_kind(rho: float, rng: np.random.Generator) -> str:
    """One Bernoulli(rho) draw: adversarial with probability rho, else random."""
    return "adversarial" if rng.random() < rho else "random"


def apply_perturbation(params: ParameterSet, delta: np.ndarray) -> ParameterSet:
    """Return a new ParameterSet with delta added to the trainable layers."""
    params.check_flat(delta, "perturbation")
    out = params.copy()
    out.flat += delta
    return out
