"""Binary checkpoint format for ParameterSets.

Layout: a UTF-8 header starting with the magic line `WRFCKPT v1`, one
line per layer of the form `name dim0 dim1 ...`, a single blank line
terminating the header, then each layer's values as raw little-endian
64-bit floats in header order. Round-trips are byte-exact.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DataError, NumericError
from .params import ParameterSet

MAGIC = "WRFCKPT v1"


def save_checkpoint(path: str | os.PathLike, params: ParameterSet) -> None:
    lines = [MAGIC]
    for name, arr in params.items():
        if not name or any(ch.isspace() for ch in name):
            raise DataError(f"layer name {name!r} cannot be serialized")
        lines.append(" ".join([name, *(str(d) for d in arr.shape)]))
    header = "\n".join(lines) + "\n\n"
    blobs = [arr.astype("<f8", copy=False).tobytes(order="C") for _, arr in params.items()]
    Path(path).write_bytes(header.encode("utf-8") + b"".join(blobs))


def load_checkpoint(
    path: str | os.PathLike, trainable: Iterable[str] | None = None
) -> ParameterSet:
    raw = Path(path).read_bytes()
    split = raw.find(b"\n\n")
    if split < 0:
        raise DataError(f"{path}: missing header terminator")
    try:
        header_lines = raw[:split].decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: header is not UTF-8") from exc
    if not header_lines or header_lines[0] != MAGIC:
        raise DataError(f"{path}: bad magic line (expected {MAGIC!r})")
    body = raw[split + 2 :]
    layers: dict[str, np.ndarray] = {}
    offset = 0
    for line in header_lines[1:]:
        parts = line.split(" ")
        name = parts[0]
        if not name:
            raise DataError(f"{path}: empty layer name in header")
        if name in layers:
            raise DataError(f"{path}: duplicate layer {name!r}")
        try:
            shape = tuple(int(p) for p in parts[1:])
        except ValueError as exc:
            raise DataError(f"{path}: bad shape for layer {name!r}: {line!r}") from exc
        if any(d < 0 for d in shape):
            raise DataError(f"{path}: negative dimension for layer {name!r}: {line!r}")
        count = math.prod(shape)  # exact: an int64 product could wrap to a small count
        nbytes = count * 8
        if offset + nbytes > len(body):
            raise DataError(f"{path}: truncated data for layer {name!r}")
        arr = np.frombuffer(body, dtype="<f8", count=count, offset=offset).reshape(shape)
        layers[name] = arr.copy()
        offset += nbytes
    if offset != len(body):
        raise DataError(f"{path}: {len(body) - offset} trailing bytes after last layer")
    if not layers:
        raise DataError(f"{path}: no layers in checkpoint")
    try:
        return ParameterSet(layers, trainable)
    except NumericError as exc:
        raise DataError(f"{path}: {exc}") from exc
