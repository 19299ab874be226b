"""Named, ordered parameter collections.

A ParameterSet is the single currency for model weights across the
package: the trainer mutates one, perturbations copy one, checkpoints
serialize one. Iteration order is insertion order and is part of the
contract; checkpoint files and gradient dicts follow it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import ConfigError, NumericError

# Gradients are plain dicts keyed exactly by the trainable layer names.
GradientSet = dict[str, np.ndarray]


class ParameterSet:
    """Ordered mapping of layer name -> float64 tensor, with trainable flags.

    Arrays are copied in and owned by the set. __getitem__ hands out the
    live array, so in-place updates (optimizer steps) go through it;
    anything that must not alias calls copy() first.
    """

    __slots__ = ("_layers", "_trainable")

    def __init__(
        self,
        layers: Mapping[str, np.ndarray],
        trainable: Iterable[str] | None = None,
    ):
        self._layers: dict[str, np.ndarray] = {
            name: np.array(value, dtype=np.float64) for name, value in layers.items()
        }
        self.require_finite()
        if not self._layers:
            raise ConfigError("a ParameterSet needs at least one layer")
        if trainable is None:
            self._trainable = tuple(self._layers)
        else:
            wanted = set(trainable)
            unknown = wanted - set(self._layers)
            if unknown:
                raise ConfigError(f"trainable names not present: {sorted(unknown)}")
            self._trainable = tuple(n for n in self._layers if n in wanted)
        if not self._trainable:
            raise ConfigError("at least one layer must be trainable")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._layers)

    @property
    def trainable_names(self) -> tuple[str, ...]:
        return self._trainable

    def __getitem__(self, name: str) -> np.ndarray:
        return self._layers[name]

    def __contains__(self, name: str) -> bool:
        return name in self._layers

    def __iter__(self) -> Iterator[str]:
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)

    def items(self):
        return self._layers.items()

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {n: a.shape for n, a in self._layers.items()}

    def require_finite(self) -> None:
        """Raise NumericError naming the first layer with a non-finite entry.

        The constructor checks its input; in-place updates through
        __getitem__ are not checked, so a caller that must not run on a
        blown-up set checks it here.
        """
        for name, arr in self._layers.items():
            if not np.isfinite(arr).all():
                raise NumericError(f"layer {name!r} has non-finite entries")

    def copy(self) -> "ParameterSet":
        """A deep copy. The arrays are owned float64 already, so neither
        conversion nor the finiteness check runs again."""
        dup = ParameterSet.__new__(ParameterSet)
        dup._layers = {n: a.copy() for n, a in self._layers.items()}
        dup._trainable = self._trainable
        return dup


def check_gradient_keys(params: ParameterSet, grads: GradientSet) -> None:
    """Gradient dicts must cover exactly the trainable layers, shape for shape."""
    if set(grads) != set(params.trainable_names):
        raise ConfigError(
            f"gradient keys {sorted(grads)} != trainable {sorted(params.trainable_names)}"
        )
    for name, g in grads.items():
        if g.shape != params[name].shape:
            raise ConfigError(
                f"gradient for {name!r} has shape {g.shape}, expected {params[name].shape}"
            )
