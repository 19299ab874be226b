"""Checkpoint serialization: byte-exact round trips and corruption handling."""

from pathlib import Path

import numpy as np
import pytest

from wrf.checkpoint import (
    MAGIC, load_checkpoint, save_checkpoint, value_text, write_whole, writing,
)
from wrf.errors import DataError
from wrf.model import ModelConfig, init_model
from wrf.params import ParameterSet

from oracles import equal_bits


def test_round_trip_preserves_values_and_order(tmp_path):
    ps = init_model(ModelConfig(d_ref=5, d_mod=2, hidden=(4,), d_out=3, seed=9))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ps)
    back = load_checkpoint(path)
    assert back.names == ps.names
    assert equal_bits(back, ps)


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


def test_a_failed_rename_leaves_no_temp_file(tmp_path):
    target = tmp_path / "run"
    target.mkdir()  # os.replace cannot move a file over a directory
    with pytest.raises(IsADirectoryError):
        write_whole(target, b"data")
    assert [p.name for p in tmp_path.iterdir()] == ["run"]


def test_an_unreadable_checkpoint_is_a_data_error_naming_it(tmp_path):
    for path, reason in ((tmp_path / "missing.ckpt", "No such file or directory"),
                         (tmp_path, "Is a directory")):
        with pytest.raises(DataError) as caught:
            load_checkpoint(path)
        assert str(caught.value) == f"cannot read {path}: {reason}"
        assert isinstance(caught.value.__cause__, OSError)


def test_a_failed_write_names_its_target_and_chains_the_original_error(tmp_path):
    (tmp_path / "run").mkdir()  # os.replace cannot move a file over a directory
    blocker = tmp_path / "blocker"
    blocker.write_text("a file\n", encoding="utf-8")
    for target, kind, reason in (
        (tmp_path / "run", IsADirectoryError, "Is a directory"),
        (tmp_path / "missing" / "x.csv", FileNotFoundError, "No such file or directory"),
        (blocker / "x.csv", NotADirectoryError, "Not a directory"),
    ):
        with pytest.raises(kind) as caught:
            write_whole(target, b"data")
        assert str(caught.value) == f"cannot write {target}: {reason}"
        assert type(caught.value.__cause__) is kind
        assert caught.value.__cause__.strerror == reason
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "run"]


def test_a_failed_write_leaves_no_temp_file_and_the_old_file(tmp_path, monkeypatch):
    target = tmp_path / "metrics.csv"
    target.write_bytes(b"old\n")
    real_write = Path.write_bytes

    def write_half_then_fail(self, data):
        real_write(self, data[: len(data) // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
    with pytest.raises(OSError, match="no space"):
        write_whole(target, b"new contents\n")
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]
    assert target.read_bytes() == b"old\n"


@pytest.mark.parametrize("value, text", [
    (None, ""),
    ((), ""),
    ((64, 64), "64,64"),
    ("relu", "relu"),
    (7, "7"),
    (0.1, "0.1"),
    (np.float64("nan"), "nan"),
    (np.float64(1e-17), "1e-17"),
])
def test_value_text_is_the_one_text_rule_of_run_files(value, text):
    assert value_text(value) == text


def test_writing_names_its_path_once_and_passes_other_errors_through(tmp_path):
    blocker = tmp_path / "out"
    blocker.write_text("a file\n", encoding="utf-8")
    target = blocker / "summary.csv"
    with pytest.raises(NotADirectoryError) as caught:
        with writing(target):
            (blocker / "sub").mkdir(parents=True, exist_ok=True)
    assert str(caught.value) == f"cannot write {target}: Not a directory"
    assert type(caught.value.__cause__) is NotADirectoryError
    with pytest.raises(KeyError):
        with writing(target):
            raise KeyError("not an OSError")
