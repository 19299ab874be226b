"""The wrf command's exit contract, over drawn configs and flags (QuickCheck style).

Each example runs one `wrf train`, `wrf sweep` or `wrf landscape` in
process through cli.main, on a tiny base config with a few keys or
flags set to edge values, and checks what the command promises:

- the exit code is 0, 2 or 3 (4 also for a sweep with failed runs);
- on exit 2 or 3, stderr is exactly one line, starting ``error:``; a
  sweep that exits 4 prints one ``error: run`` line per failed run;
- on exit 0, stderr is empty, and no warning was issued;
- no stderr line holds ``Traceback`` or ``[Errno``;
- no ``*.tmp`` file is left behind.

An exception out of cli.main fails the example too. The base config
and every drawn value keep each run to a few KiB and milliseconds:
integer edge values stay at 3 or below, so no size can grow.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wrf import cli

BASE = {
    "d_ref": "4", "d_mod": "2", "n_mods": "2", "n_train": "12", "n_val": "8",
    "gallery_size": "24", "subset_size": "3", "hidden": "4", "d_out": "4",
    "total_epochs": "2", "warmup_epochs": "1", "batch_size": "4", "gamma": "0.01",
    "rho": "0.5",
}

# Every config key but out_dir, which would let a drawn value write outside the example's directory.
KEYS = [name for name in cli._FIELD_TYPES if name != "out_dir"]

# Edge values by field type. Each pool holds signs, zero, empty text,
# junk and a non-ASCII digit (int("٣") is 3); the float pool adds
# non-finite, huge and subnormal values, the text pool each key's words.
COMMON = ["-1", "0", "", "x", "nan", "+2", "٣"]
EDGES = {
    "int": [*COMMON, "1", "2", "1e300"],
    "float": [*COMMON, "inf", "-inf", "1e300", "1e-320", "0.5", "1e-3", "1"],
    "str": [*COMMON, "tanh", "relu", "lora", "full", "sgd", "adamw", "constant", "cosine", ".."],
    "tuple[int, ...]": [*COMMON, "2,1", "1,-1"],
}

SWEEP_VALUES = ["0", "1", "2", "-1", "0.5", "1e-320", "nan", "inf", "x", "", "٣"]
SWEEP_SEEDS = ["0", "1", "-1", "x", "", "٣"]


def _setting(key: str):
    return st.tuples(st.just(key), st.sampled_from(EDGES[cli._FIELD_TYPES[key]]))


def _overrides(min_size: int, max_size: int):
    """A few distinct keys, each set to an edge value of its type."""
    pairs = st.sampled_from(KEYS).flatmap(_setting)
    return st.lists(pairs, min_size=min_size, max_size=max_size, unique_by=lambda kv: kv[0]).map(dict)


train_jobs = st.tuples(st.just("train"), _overrides(1, 2))

sweep_jobs = st.tuples(
    st.just("sweep"),
    _overrides(0, 1),
    st.sampled_from(cli.SWEEP_PARAMS),
    st.lists(st.sampled_from(SWEEP_VALUES), min_size=1, max_size=2),
    st.lists(st.sampled_from(SWEEP_SEEDS), min_size=1, max_size=2),
)


def _flag(*values):
    """Half the time the flag is left out."""
    return st.none() | st.sampled_from(values)


landscape_jobs = st.tuples(
    st.just("landscape"),
    st.just("best.ckpt") | st.sampled_from(["config.echo", "missing.ckpt"]),
    _flag("-1", "0", "1", "2", "3"),  # --directions
    _flag("5e-324", "0", "-1", "nan", "inf", "1e-320", "1e300", "0.05"),  # --alpha-max
    _flag("-1", "0", "1", "2", "3"),  # --alpha-steps
    _flag("fresh.csv", "run dir", "missing/x.csv"),  # --out
)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A finished tiny run that the landscape examples probe."""
    root = tmp_path_factory.mktemp("contract")
    cfg = root / "base.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in {**BASE, "out_dir": str(root)}.items()))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--config", str(cfg), "--set", "run_name=probed"]) == 0
    return root / "probed"


def _argv(job, workdir: Path, run_dir: Path) -> list[str]:
    command, *rest = job
    if command == "landscape":
        checkpoint, directions, alpha_max, alpha_steps, out = rest
        argv = ["landscape", "--checkpoint", str(run_dir / checkpoint)]
        for flag, value in (("--directions", directions), ("--alpha-max", alpha_max),
                            ("--alpha-steps", alpha_steps)):
            if value is not None:
                argv.append(f"{flag}={value}")
        if out is not None:
            argv.append(f"--out={run_dir if out == 'run dir' else workdir / out}")
        return argv
    overrides, *sweep = rest
    cfg = workdir / "base.cfg"
    entries = {**BASE, "out_dir": str(workdir / "out")}
    cfg.write_text("".join(f"{k}={v}\n" for k, v in entries.items()), encoding="utf-8")
    argv = [command, "--config", str(cfg), *(f"--set={k}={v}" for k, v in overrides.items())]
    if sweep:
        param, values, seeds = sweep
        argv += ["--param", param, f"--values={','.join(values)}", f"--seeds={','.join(seeds)}"]
    return argv


@settings(derandomize=True, database=None, max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(train_jobs, sweep_jobs, landscape_jobs))
def test_every_command_keeps_the_exit_contract(trained_run, job):
    with tempfile.TemporaryDirectory(prefix="wrf-contract-") as tmp:
        workdir = Path(tmp)
        argv = _argv(job, workdir, trained_run)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(argv)
        lines = err.getvalue().splitlines()
        # The wrf command prints a warning on stderr.
        lines += [f"{w.category.__name__}: {w.message}" for w in caught]
        left = [*workdir.rglob("*.tmp"), *trained_run.parent.rglob("*.tmp")]
    assert not left, (argv, left)
    assert not any("Traceback" in line or "[Errno" in line for line in lines), (argv, lines)
    if code == 0:
        assert lines == [], (argv, lines)
    elif code == 4 and job[0] == "sweep":
        assert lines and all(line.startswith("error: run ") for line in lines), (argv, lines)
    else:
        assert code in (2, 3), (argv, code, lines)
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
