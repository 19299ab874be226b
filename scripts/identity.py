#!/usr/bin/env python3
"""Check that this checkout writes what a parent revision writes, byte for byte.

Runs one fixed set of wrf jobs (ten training configs, five landscape
probes, a fraction and a lora_rank sweep, selfcheck clean and with an
injected fault, and nine jobs that end in an error exit) on this
checkout's working tree and on a parent revision, which is checked out
with `git worktree add` into a temporary directory and removed
afterwards. Both sides run from the same relative out_dir, on three
paths:

  worker     python -m wrf.cli, OPENBLAS_NUM_THREADS=1 (eval worker forks)
  inprocess  python -m wrf.cli pinned to one CPU (evaluation in-process)
  wrf        python -m wrf with no BLAS variable set

Every file either side writes is compared: metrics.csv without its
seconds column, sweep_summary.csv without seconds_per_epoch, everything
else byte for byte, plus each job's exit code, stdout and the stderr
lines that start with ``error:`` (other stderr lines, such as a
RuntimeWarning's, name a file path of the tree). A file on one
side only counts as a difference. --checklist also compares the 13
check lines of `pytest -s tests/test_acceptance.py` with the wall-clock
figures masked. Prints one line per difference and a total, and exits 1
on any difference.

    python scripts/identity.py --parent HEAD~1 --checklist

--unreached instead runs this checkout's side of the jobs under
`python -m trace --count` on the worker and in-process paths and prints,
by module, every src/wrf line that trace can count and no job reached,
then the total. Lines of a raise statement and the UNREACHED_ALLOWED
entries are left out. It compares nothing and exits 0.

    python scripts/identity.py --unreached
"""

from __future__ import annotations

import argparse
import ast
import os
import pickle
import re
import subprocess
import sys
import tempfile
import trace
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Config file stem -> settings over the defaults; out_dir is relative.
CONFIGS = {
    "default": {},
    "ablation": {"activation": "relu", "eta0": "0.012", "init_scale": "6.0",
                 "gamma": "0.02", "rho": "0.5"},
    "lora": {"finetune_mode": "lora", "lora_rank": "4", "gamma": "0.01", "rho": "0.5"},
    "relu_lora": {"activation": "relu", "finetune_mode": "lora", "lora_rank": "2",
                  "checkpoint_every": "7", "eval_every": "3"},
    "sgd": {"optimizer": "sgd", "schedule": "constant", "gamma": "0.01", "rho": "0.5"},
    # Subset recall over candidate lists well beyond the default 6.
    "wide_subsets": {"subset_size": "41", "total_epochs": "2", "warmup_epochs": "1"},
    # No hidden layer: no activation between the fusion matmul and l2norm_rows.
    "one_layer": {"hidden": "", "gamma": "0.01", "rho": "0.5", "total_epochs": "2",
                  "warmup_epochs": "1"},
    # n_train % batch_size == 1: every epoch drops a one-triplet remainder batch.
    "odd_batch": {"n_train": "65", "total_epochs": "2", "warmup_epochs": "1"},
    # Dataset dims off every default, so a shape-dependent change to generate shows.
    "small_data": {"d_ref": "12", "n_mods": "5", "n_train": "90", "n_val": "60",
                   "gallery_size": "301", "gamma": "0.01", "rho": "0.5",
                   "total_epochs": "2", "warmup_epochs": "1"},
    # n_train above TRAIN_EVAL_CAP (2000): train recall on a seeded subset of the train table.
    "eval_cap": {"n_train": "2001", "n_val": "8", "gallery_size": "2009", "total_epochs": "2",
                 "warmup_epochs": "1"},
    "sweep": {"out_dir": "sweep"},
    "rank_sweep": {"out_dir": "rank_sweep"},
}

# wrf arguments, in run order; each probe reads a best.ckpt trained before it.
JOBS = (
    *(["train", "--config", f"{name}.cfg"] for name in (
        "default", "ablation", "lora", "relu_lora", "sgd", "wide_subsets", "one_layer",
        "odd_batch", "small_data", "eval_cap")),
    *(["landscape", "--checkpoint", f"runs/{name}/best.ckpt"] for name in ("ablation", "relu_lora")),
    ["landscape", "--checkpoint", "runs/lora/best.ckpt", "--directions", "1"],
    ["landscape", "--checkpoint", "runs/one_layer/best.ckpt", "--directions", "2"],
    # An uneven split (two directions here, one in the worker) on a grid
    # without 0.05, so no flatness line.
    ["landscape", "--checkpoint", "runs/sgd/best.ckpt", "--directions", "3", "--alpha-steps", "3"],
    ["sweep", "--config", "sweep.cfg", "--param", "fraction", "--values", "0.25,0.5",
     "--seeds", "0,1"],
    ["sweep", "--config", "rank_sweep.cfg", "--param", "lora_rank", "--values", "0,2",
     "--seeds", "0"],
    ["selfcheck"],  # its table holds no timings
    ["selfcheck", "--inject", "grad-sign"],  # exit 1, compared like any other job
    ["train", "--config", "default.cfg", "--set", "gamma=-1"],  # exit 2: config
    # exit 2: a LoRA rank without finetune_mode=lora, before its run directory exists
    ["train", "--config", "default.cfg", "--set", "lora_rank=4", "--set", "run_name=full_rank"],
    ["train", "--config", "default.cfg", "--set", "tau=0"],  # exit 2: TrainConfig's tau rule
    # exit 2: one training triplet, rejected before its run directory exists
    ["train", "--config", "default.cfg", "--set", "fraction=0.001", "--set", "run_name=tiny_split"],
    ["landscape", "--checkpoint", "runs/sgd/best.ckpt", "--directions", "0"],  # exit 2: the flag
    # exit 2: 5e-324 / 10 rounds to 0, so the probe's own grid check fires after the run is read
    ["landscape", "--checkpoint", "runs/sgd/best.ckpt", "--alpha-max", "5e-324"],
    ["landscape", "--checkpoint", "runs/missing/best.ckpt"],  # exit 2: IO
    # exit 2: a failed write, --out naming a directory; the error names it, not its .tmp
    ["landscape", "--checkpoint", "runs/sgd/best.ckpt", "--directions", "1", "--alpha-steps",
     "1", "--out", "runs/sgd"],
    # exit 3: a numeric abort in epoch 1, after config.echo and the metrics.csv header
    ["train", "--config", "default.cfg", "--set", "eta0=1e300", "--set", "run_name=diverged"],
)

# CSV file name -> the wall-clock column left out of its comparison.
TIMED_COLUMNS = {"metrics.csv": "seconds", "sweep_summary.csv": "seconds_per_epoch"}

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")

# Path name -> (module run with python -m, OPENBLAS_NUM_THREADS, pinned to one CPU).
PATHS = {
    "worker": ("wrf.cli", "1", False),
    "inprocess": ("wrf.cli", None, True),
    "wrf": ("wrf", None, False),
}

# Acceptance check number -> (pattern, replacement) masks of its wall-clock figures.
CHECKLIST_MASKS = {
    1: ((r", [\d.]+s\)$", ", <s>)"),),
    7: ((r"sweep took \d+s", "sweep took <s>"),),
    10: ((r"ratio [\d.]+", "ratio <x>"), (r"\([\d.]+ -> [\d.]+ ms\)", "(<ms> -> <ms> ms)")),
}
CHECK_LINE = re.compile(r"\[(?:PASS|FAIL)\] check +(\d+)/13: .*")

_PINNED = "perfbench pins it; ROADMAP item 4a/7 deletes it with the benchmark change"

# src/wrf lines --unreached leaves out: a module file name, or
# "<module file>:<function name>" for that function's lines -> why no job reaches them.
UNREACHED_ALLOWED = {
    "__init__.py": "trace --module imports the package before it starts counting",
    "__main__.py": "only python -m wrf runs it, a path --unreached does not trace",
    "worker.py:_worker_loop": "the forked worker's body: trace loses a forked child's counts",
    "diffcore.py:pass_counts": _PINNED,
    "diffcore.py:_bw_row_concat": _PINNED,
    "evalkit.py:subset_target_ranks": _PINNED,
}


def write_configs(workdir: Path, epochs: int | None = None) -> None:
    """One <stem>.cfg per CONFIGS entry in workdir; epochs overrides total_epochs."""
    for stem, settings in CONFIGS.items():
        entries = {"run_name": stem, "out_dir": "runs", **settings}
        if epochs is not None:
            entries["total_epochs"] = str(epochs)
        text = "".join(f"{key}={value}\n" for key, value in entries.items())
        (workdir / f"{stem}.cfg").write_text(text, encoding="utf-8")


def outcome(code: int, stdout: str, stderr: str) -> bytes:
    """A job's exit code, its stdout and the ``error:`` lines of its stderr."""
    errors = "".join(f"{line}\n" for line in stderr.splitlines() if line.startswith("error:"))
    return f"exit {code}\n{stdout}{errors}".encode("utf-8")


def _comparable(path: Path) -> bytes:
    data = path.read_bytes()
    column = TIMED_COLUMNS.get(path.name)
    if column is None:
        return data
    rows = [line.split(",") for line in data.decode("utf-8").split("\n")]
    drop = rows[0].index(column)
    return "\n".join(",".join(r[:drop] + r[drop + 1 :]) for r in rows).encode("utf-8")


def snapshot(workdir: Path, outcomes: dict[str, bytes]) -> dict[str, bytes]:
    """Every file under workdir as compared, plus each job's outcome."""
    files = {
        path.relative_to(workdir).as_posix(): _comparable(path)
        for path in sorted(workdir.rglob("*"))
        if path.is_file()
    }
    return {**files, **{f"<wrf {job}>": out for job, out in outcomes.items()}}


def differences(parent: dict[str, bytes], change: dict[str, bytes]) -> list[str]:
    out = []
    for name in sorted(parent.keys() | change.keys()):
        if name not in change:
            out.append(f"only in parent: {name}")
        elif name not in parent:
            out.append(f"only in change: {name}")
        elif parent[name] != change[name]:
            out.append(f"differs: {name}")
    return out


def _env(src: Path, blas: str | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(src)
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    return env


def _pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_side(tree: Path, workdir: Path, path: str) -> dict[str, bytes]:
    """Run JOBS with the package of tree in a fresh workdir; return its snapshot."""
    module, blas, pinned = PATHS[path]
    workdir.mkdir(parents=True)
    write_configs(workdir)
    outcomes = {}
    for argv in JOBS:
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv], cwd=workdir, env=_env(tree / "src", blas),
            capture_output=True, text=True, preexec_fn=_pin_to_one_cpu if pinned else None,
        )
        outcomes[" ".join(argv)] = outcome(proc.returncode, proc.stdout, proc.stderr)
    return snapshot(workdir, outcomes)


def checklist(tree: Path) -> list[str]:
    """The acceptance check lines of tree's suite, wall-clock figures masked."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-s", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py"],
        cwd=tree, env=_env(tree / "src", None), capture_output=True, text=True,
    )
    lines = []
    for match in CHECK_LINE.finditer(proc.stdout):
        line = match.group(0)
        for pattern, repl in CHECKLIST_MASKS.get(int(match.group(1)), ()):
            line = re.sub(pattern, repl, line)
        lines.append(line)
    return lines


def compare(parent_tree: Path, scratch: Path, with_checklist: bool) -> int:
    total = 0
    for path in PATHS:
        sides = [run_side(tree, scratch / path / side, path)
                 for side, tree in (("parent", parent_tree), ("change", REPO))]
        diffs = differences(*sides)
        for line in diffs:
            print(f"{path}: {line}")
        print(f"{path}: {len(sides[0].keys() | sides[1].keys())} files and outputs, "
              f"{len(diffs)} differences")
        total += len(diffs)
    if with_checklist:
        parent, change = checklist(parent_tree), checklist(REPO)
        diffs = [f"checklist: parent {a!r} / change {b!r}"
                 for a, b in zip(parent, change) if a != b]
        if len(parent) != 13 or len(change) != 13:
            diffs.append(f"checklist: {len(parent)} lines in parent, {len(change)} in change")
        for line in diffs:
            print(line)
        print(f"checklist: {len(change)} lines, {len(diffs)} differences")
        total += len(diffs)
    print(f"total: {total} differences")
    return total


def trace_counts(tree: Path, workdir: Path) -> dict:
    """{(file name, line): count} of JOBS run with tree's package under python -m trace,
    on the worker and in-process paths."""
    counts = workdir / "counts.pickle"
    ignore = os.pathsep.join(sorted({sys.prefix, sys.base_prefix}))  # stdlib and numpy
    for path in ("worker", "inprocess"):
        module, blas, pinned = PATHS[path]
        jobdir = workdir / path
        jobdir.mkdir(parents=True)
        write_configs(jobdir)
        for argv in JOBS:
            subprocess.run(
                [sys.executable, "-m", "trace", "--count", "--file", str(counts),
                 "--coverdir", str(workdir / "cover"), "--ignore-dir", ignore,
                 "--module", module, *argv],
                cwd=jobdir, env=_env(tree / "src", blas), capture_output=True,
                preexec_fn=_pin_to_one_cpu if pinned else None,
            )
    with counts.open("rb") as f:
        return pickle.load(f)[0]


def unreached(package: Path, counts: dict, allowed=UNREACHED_ALLOWED) -> dict[str, list[int]]:
    """Module file name -> the lines of package that trace can count and no count reached.

    Lines of a raise statement (an error path) and allowed entries are
    left out; modules with no such line are left out too.
    """
    reached = {(Path(name).resolve(), line) for name, line in counts}
    out = {}
    for path in sorted(package.glob("*.py")):
        if path.name in allowed:
            continue
        skip = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) or (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and f"{path.name}:{node.name}" in allowed
            ):
                skip.update(range(node.lineno, node.end_lineno + 1))
        # trace's own table of countable lines (its code objects' line starts,
        # docstrings left out); line 0 is a module's start, no source line.
        lines = set(trace._find_executable_linenos(str(path))) - skip - {0}
        missing = sorted(n for n in lines if (path.resolve(), n) not in reached)
        if missing:
            out[path.name] = missing
    return out


def report_unreached(scratch: Path) -> None:
    package = REPO / "src" / "wrf"
    missing = unreached(package, trace_counts(REPO, scratch))
    for name, lines in missing.items():
        print(f"{name}: {len(lines)} unreached")
        source = (package / name).read_text(encoding="utf-8").splitlines()
        for n in lines:
            print(f"  {n}: {source[n - 1].strip()}")
    for entry, why in UNREACHED_ALLOWED.items():
        print(f"allowed: {entry}: {why}")
    print(f"total: {sum(map(len, missing.values()))} unreached lines")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--parent", help="git revision to compare with")
    mode.add_argument("--unreached", action="store_true",
                      help="report the src/wrf lines no job reaches, under python -m trace")
    ap.add_argument("--checklist", action="store_true",
                    help="also compare the acceptance checklist (about two minutes a side)")
    args = ap.parse_args(argv)
    if args.unreached:
        with tempfile.TemporaryDirectory(prefix="wrf-unreached-") as scratch:
            report_unreached(Path(scratch))
        return 0
    rev = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--verify", f"{args.parent}^{{commit}}"],
        capture_output=True, text=True,
    )
    if rev.returncode != 0:
        print(f"error: not a revision: {args.parent}", file=sys.stderr)
        return 2
    if len(os.sched_getaffinity(0)) < 2:
        print("note: one CPU, so the worker path evaluates in-process too", file=sys.stderr)
    with tempfile.TemporaryDirectory(prefix="wrf-identity-") as scratch:
        tree = Path(scratch) / "parent"
        subprocess.run(["git", "-C", str(REPO), "worktree", "add", "--detach", "--quiet",
                        str(tree), rev.stdout.strip()], check=True)
        try:
            total = compare(tree, Path(scratch), args.checklist)
        finally:
            subprocess.run(["git", "-C", str(REPO), "worktree", "remove", "--force", str(tree)],
                           check=False)
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
