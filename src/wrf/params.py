"""Named, ordered parameter collections.

A ParameterSet is the single currency for model weights across the
package: the trainer mutates one, perturbations copy one, checkpoints
serialize one. Iteration order is insertion order and is part of the
contract; checkpoint files follow it, and `names` holds it.

A set keeps its values in two contiguous float64 buffers: `flat` holds
the trainable layers in trainable order, `frozen` the others, and each
layer is a view into one of them. A gradient, a perturbation and an
AdamW moment are plain float64 arrays laid out like `flat`, so each is
updated in one operation; `spans` locates every trainable layer in
`flat` as (name, start, stop, shape), and carve(buf, spans) is the one
way to cut such an array into layer views.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigError, NumericError


def _pack(arrays: Mapping[str, np.ndarray], names: list[str]) -> tuple[tuple, np.ndarray]:
    # The spans of names' layers one after another, and a new buffer holding them.
    stops = itertools.accumulate(arrays[n].size for n in names)
    spans = tuple((n, b - arrays[n].size, b, arrays[n].shape) for n, b in zip(names, stops))
    return spans, np.concatenate([np.zeros(0), *(arrays[n].ravel() for n in names)])


def carve(buf: np.ndarray, spans: tuple) -> dict[str, np.ndarray]:
    """Per-layer views of buf, one per span."""
    return {name: buf[a:b].reshape(shape) for name, a, b, shape in spans}


class ParameterSet:
    """Ordered mapping of layer name -> float64 tensor, with trainable flags.

    Arrays are copied in and owned by the set. __getitem__ hands out the
    live view, so in-place updates (optimizer steps) go through it or
    through `flat`; anything that must not alias calls copy() first.
    names (insertion order), trainable_names, spans, flat and frozen are
    read-only attributes. Only the constructor checks that values are finite.
    """

    __slots__ = ("_layers", "_layout", "names", "trainable_names", "spans", "flat", "frozen")

    def __init__(
        self,
        layers: Mapping[str, np.ndarray],
        trainable: Iterable[str] | None = None,
    ):
        arrays = {name: np.asarray(value, dtype=np.float64) for name, value in layers.items()}
        for name, arr in arrays.items():
            if not np.isfinite(arr).all():
                raise NumericError(f"layer {name!r} has non-finite entries")
        wanted = set(arrays if trainable is None else trainable)
        spans, flat = _pack(arrays, [n for n in arrays if n in wanted])
        frozen_spans, frozen = _pack(arrays, [n for n in arrays if n not in wanted])
        self._attach((tuple(arrays), spans, frozen_spans), flat, frozen)
        if not arrays:
            raise ConfigError("a ParameterSet needs at least one layer")
        unknown = wanted - set(arrays)
        if unknown:
            raise ConfigError(f"trainable names not present: {sorted(unknown)}")
        if not wanted:
            raise ConfigError("at least one layer must be trainable")

    def _attach(self, layout, flat: np.ndarray, frozen: np.ndarray) -> "ParameterSet":
        self.names, self.spans, frozen_spans = self._layout = layout
        views = carve(flat, self.spans) | carve(frozen, frozen_spans)
        self._layers = {n: views[n] for n in self.names}
        self.trainable_names = tuple(s[0] for s in self.spans)
        self.flat, self.frozen = flat, frozen
        return self

    def __reduce__(self):
        """Pickle the two buffers, so the views alias them again on load."""
        return _from_buffers, (self._layout, self.flat, self.frozen)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._layers[name]

    def items(self):
        return self._layers.items()

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {n: a.shape for n, a in self._layers.items()}

    def check_flat(self, buf: np.ndarray, what: str) -> None:
        """ConfigError unless buf (a gradient, a delta) is laid out like flat."""
        if np.shape(buf) != self.flat.shape:
            raise ConfigError(f"{what} has shape {np.shape(buf)}, expected {self.flat.shape}")

    def copy(self) -> "ParameterSet":
        """A deep copy of both buffers; the layout is shared, and neither
        conversion nor the finiteness check runs again."""
        return _from_buffers(self._layout, self.flat.copy(), self.frozen.copy())


def _from_buffers(layout, flat: np.ndarray, frozen: np.ndarray) -> ParameterSet:
    return ParameterSet.__new__(ParameterSet)._attach(layout, flat, frozen)
