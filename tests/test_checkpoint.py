"""Checkpoint serialization: byte-exact round trips and corruption handling."""

import numpy as np
import pytest

from wrf.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from wrf.errors import DataError
from wrf.model import ModelConfig, init_model
from wrf.params import ParameterSet


def test_round_trip_preserves_values_and_order(tmp_path):
    ps = init_model(ModelConfig(d_ref=5, d_mod=2, hidden=(4,), d_out=3, seed=9))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ps)
    back = load_checkpoint(path)
    assert back.names == ps.names
    assert back.equal_bits(ps)


def test_round_trip_is_byte_exact(tmp_path):
    rng = np.random.default_rng(4)
    # Include awkward values: -0.0, subnormals, extremes.
    ps = ParameterSet(
        {
            "w": rng.normal(size=(3, 4)),
            "b": np.array([-0.0, 5e-324, 1e308, -1e-308]),
            "s": np.float64(2.5),
        }
    )
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, ps)
    save_checkpoint(p2, load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_header_is_readable_text(tmp_path):
    ps = ParameterSet({"layer.w": np.ones((2, 2))})
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, ps)
    raw = path.read_bytes()
    header = raw[: raw.find(b"\n\n")].decode("utf-8")
    assert header.splitlines()[0] == MAGIC
    assert header.splitlines()[1] == "layer.w 2 2"


def test_trainable_flags_can_be_set_on_load(tmp_path):
    ps = ParameterSet({"a": np.ones(2), "b": np.ones(3)})
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, ps)
    back = load_checkpoint(path, trainable=["b"])
    assert back.trainable_names == ("b",)


def test_corruption_is_rejected(tmp_path):
    ps = ParameterSet({"a": np.ones((2, 2))})
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, ps)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.ckpt"
    bad_magic.write_bytes(b"NOTCKPT v9" + raw[len(MAGIC) :])
    with pytest.raises(DataError):
        load_checkpoint(bad_magic)

    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(DataError):
        load_checkpoint(truncated)

    padded = tmp_path / "padded.ckpt"
    padded.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(DataError):
        load_checkpoint(padded)

    no_header_end = tmp_path / "nohdr.ckpt"
    no_header_end.write_bytes(b"WRFCKPT v1\na 2 2\n")
    with pytest.raises(DataError):
        load_checkpoint(no_header_end)

    body = raw[raw.find(b"\n\n") + 2 :]
    for header in (b"w -1", b"w 0 -1", b"w 2 -2"):
        negative = tmp_path / "negative.ckpt"
        negative.write_bytes(b"WRFCKPT v1\n" + header + b"\n\n" + body)
        with pytest.raises(DataError, match="negative dimension for layer 'w'"):
            load_checkpoint(negative)

    # 2**32 x 2**32 wraps to 0 in int64: the count must not.
    huge = tmp_path / "huge.ckpt"
    huge.write_bytes(b"WRFCKPT v1\nw 4294967296 4294967296\n\n" + body)
    with pytest.raises(DataError, match="truncated data for layer 'w'"):
        load_checkpoint(huge)

    nonfinite = tmp_path / "nan.ckpt"
    nonfinite.write_bytes(raw[:-8] + np.array([np.nan], dtype="<f8").tobytes())
    with pytest.raises(DataError, match=r"nan\.ckpt: layer 'a' has non-finite entries"):
        load_checkpoint(nonfinite)


def test_name_with_whitespace_is_rejected(tmp_path):
    ps = ParameterSet({"bad name": np.ones(1)})
    with pytest.raises(DataError):
        save_checkpoint(tmp_path / "x.ckpt", ps)
