"""scripts/identity.py's fixed job set writes the same files on both eval paths."""

import contextlib
import importlib.util
import io
from pathlib import Path

from wrf import cli, worker

REPO = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("identity", REPO / "scripts" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def run_jobs(workdir: Path, monkeypatch, forks: bool) -> dict[str, bytes]:
    """The fixed set at 8 epochs through cli.main, with or without forked workers."""
    workdir.mkdir()
    identity.write_configs(workdir, epochs=8)
    monkeypatch.chdir(workdir)
    monkeypatch.setattr(worker, "available", lambda: forks)
    outcomes = {}
    for argv in identity.JOBS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        outcomes[" ".join(argv)] = identity.outcome(code, out.getvalue(), err.getvalue())
    return identity.snapshot(workdir, outcomes)


def test_fixed_set_is_the_same_on_both_eval_paths(tmp_path, monkeypatch):
    inprocess = run_jobs(tmp_path / "inprocess", monkeypatch, False)
    forked = run_jobs(tmp_path / "worker", monkeypatch, True)
    assert identity.differences(inprocess, forked) == []
    codes = {name: out.split(b"\n", 1)[0] for name, out in inprocess.items() if name[0] == "<"}
    assert codes.pop("<wrf selfcheck --inject grad-sign>") == b"exit 1"
    for name, code, prefix in (
        ("<wrf train --config default.cfg --set gamma=-1>", b"exit 2", b"error: "),
        ("<wrf train --config default.cfg --set lora_rank=4 --set run_name=full_rank>", b"exit 2",
         b"error: lora_rank must be 0 unless finetune_mode=lora, got 4"),
        ("<wrf train --config default.cfg --set tau=0>", b"exit 2",
         b"error: tau must be positive, got 0.0"),
        ("<wrf train --config default.cfg --set fraction=0.001 --set run_name=tiny_split>",
         b"exit 2", b"error: training split needs at least two triplets"),
        ("<wrf landscape --checkpoint runs/sgd/best.ckpt --directions 0>", b"exit 2",
         b"error: --directions must be >= 1, got 0"),
        ("<wrf landscape --checkpoint runs/sgd/best.ckpt --alpha-max 5e-324>", b"exit 2",
         b"error: alpha grid must be strictly increasing"),
        ("<wrf landscape --checkpoint runs/missing/best.ckpt>", b"exit 2", b"error: "),
        ("<wrf landscape --checkpoint runs/sgd/best.ckpt --directions 1 --alpha-steps 1 "
         "--out runs/sgd>", b"exit 2", b"error: cannot write runs/sgd: Is a directory"),
        ("<wrf train --config default.cfg --set eta0=1e300 --set run_name=diverged>",
         b"exit 3", b"error: numeric abort: loss pass failed: node 17 (l2norm_rows) "
         b"produced non-finite row norms [gamma=0.0, "),
    ):
        assert codes.pop(name) == code
        assert inprocess[name].split(b"\n")[1].startswith(prefix), name
    assert set(codes.values()) == {b"exit 0"}
    assert inprocess["runs/diverged/metrics.csv"].count(b"\n") == 1  # the header only
    assert "runs/diverged/config.echo" in inprocess
    assert not any(name.startswith(("runs/full_rank/", "runs/tiny_split/")) for name in inprocess)
    assert b"subset_size=41\n" in inprocess["runs/wide_subsets/config.echo"]
    assert b"hidden=\n" in inprocess["runs/one_layer/config.echo"]
    assert b"n_train=65\n" in inprocess["runs/odd_batch/config.echo"]
    assert b"d_ref=12\n" in inprocess["runs/small_data/config.echo"]
    assert b"gallery_size=301\n" in inprocess["runs/small_data/config.echo"]
    assert b"n_train=2001\n" in inprocess["runs/eval_cap/config.echo"]
    for name in ("runs/default/best.ckpt", "runs/relu_lora/epoch_7.ckpt",
                 "runs/odd_batch/epoch_8.ckpt", "runs/small_data/epoch_8.ckpt",
                 "runs/small_data/metrics.csv", "runs/wide_subsets/metrics.csv",
                 "runs/eval_cap/epoch_8.ckpt",
                 "runs/one_layer/landscape.csv", "runs/relu_lora/landscape.csv",
                 "runs/lora/landscape.csv",
                 "sweep/fraction_0.25_seed1/epoch_8.ckpt", "sweep/sweep_summary.csv",
                 "rank_sweep/lora_rank_2_seed0/epoch_8.ckpt", "rank_sweep/sweep_summary.csv"):
        assert name in inprocess, name
    assert not any(name.endswith((".rng.json", ".tmp")) for name in inprocess)
    uneven = inprocess["<wrf landscape --checkpoint runs/sgd/best.ckpt --directions 3 --alpha-steps 3>"]
    assert uneven.endswith(b"(3 directions x 7 alphas)\n") and b"flatness" not in uneven
    assert inprocess["runs/sgd/landscape.csv"].count(b"\n") == 1 + 3 * 7


def test_comparison_masks_only_the_wall_clock_columns(tmp_path):
    for side, seconds in (("a", "0.5"), ("b", "0.7")):
        (tmp_path / side).mkdir()
        (tmp_path / side / "metrics.csv").write_text(
            f"epoch,split,loss,seconds\n1,train,0.25,{seconds}\n")
        (tmp_path / side / "other.csv").write_text(f"seconds\n{seconds}\n")
    a, b = identity.snapshot(tmp_path / "a", {}), identity.snapshot(tmp_path / "b", {})
    assert identity.differences(a, b) == ["differs: other.csv"]
    (tmp_path / "b" / "extra.ckpt.rng.json").write_text("{}")
    b = identity.snapshot(tmp_path / "b", {"train": identity.outcome(0, "x\n", "")})
    # Only error: lines of stderr count; a warning names the tree's file path.
    assert identity.outcome(2, "x\n", "/a/wrf/cli.py:9: RuntimeWarning: overflow\nerror: bad\n") \
        == b"exit 2\nx\nerror: bad\n"
    assert identity.differences(a, b) == [
        "only in change: <wrf train>", "only in change: extra.ckpt.rng.json",
        "differs: other.csv",
    ]


def test_unreached_leaves_out_raise_lines_and_allowed_entries(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        '"""A module."""\n'                  # 1  docstring: not countable
        "def f(x):\n"                        # 2
        "    if x < 0:\n"                    # 3
        "        raise ValueError(\n"        # 4  raise, over two lines
        "            f'bad {x}')\n"          # 5
        "    y = x + 1\n"                    # 6
        "    return y\n"                     # 7
        "def g():\n"                         # 8
        "    return 2\n"                     # 9  allowed function
        "def h():\n"                         # 10
        "    return 3\n"                     # 11 unreached
    )
    (package / "skipped.py").write_text("x = 1\n")  # allowed module
    mod = str(package / "mod.py")
    counts = {(mod, n): 1 for n in (2, 3, 8, 10)}
    allowed = {"skipped.py": "why", "mod.py:g": "why"}
    assert identity.unreached(package, counts, allowed) == {"mod.py": [6, 7, 11]}
    counts.update({(mod, 6): 1, (mod, 7): 2, (mod, 11): 1})
    assert identity.unreached(package, counts, allowed) == {}
    assert identity.unreached(package, counts, {}) == {"mod.py": [9], "skipped.py": [1]}
