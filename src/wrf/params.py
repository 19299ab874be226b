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
        self._layers: dict[str, np.ndarray] = {}
        for name, value in layers.items():
            arr = np.array(value, dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"layer {name!r} has non-finite entries")
            self._layers[name] = arr
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

    def is_trainable(self, name: str) -> bool:
        return name in set(self._trainable)

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

    def copy(self) -> "ParameterSet":
        return ParameterSet(
            {n: a.copy() for n, a in self._layers.items()}, self._trainable
        )

    def zeros_like_trainable(self) -> GradientSet:
        return {n: np.zeros_like(self._layers[n]) for n in self._trainable}

    def equal_bits(self, other: "ParameterSet") -> bool:
        """True when both sets hold bit-identical tensors in the same order."""
        if self.names != other.names:
            return False
        return all(np.array_equal(self._layers[n], other[n]) for n in self.names)


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
