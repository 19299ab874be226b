#!/usr/bin/env python3
"""The wrf benchmark. Run it from the repository root:

    python3 perfbench/run.py --workload wrf-train --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1
    python3 perfbench/run.py --workload all --smoke --seconds 0 --trace 1

One run measures one workload (wrf-train, landscape) in a closed loop,
one set-up and one unit of user work at a time, for --seconds after one
untimed warm-up set-up and unit. Every unit's output is digested and
checked. With --trace 0 it prints the end-to-end metrics of
BENCHMARK.json; with --trace 1 it also runs traced repetitions and
prints the per-layer metrics. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--workload all runs each workload in its own child process and ends
with one JSON object over all of them. --record FILE appends each
result, with its environment, as a JSON line for compare.py.
perfbench/README.md documents the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("wrf-train", "landscape")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Cap BLAS threads at nproc (1 when unset); keep wrf single-threaded.

    One BLAS thread is the default because the per-step matrices are
    tiny and a second thread on a shared two-core host mostly adds
    hand-off noise. WRF_THREADS is forced to 1: the benchmark runs no
    threads beyond numpy's BLAS pool, and its tracer follows one stack.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            n = int(os.environ.get(var) or 1)
        except ValueError:
            n = 1
        os.environ[var] = str(min(max(n, 1), nproc))
    os.environ["WRF_THREADS"] = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time after the warm-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny epoch counts and probe, no warm-up")
    parser.add_argument("--record", type=Path, default=None,
                        help="append the result as a JSON line to this file")
    return parser.parse_args(argv)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_one(args) -> int:
    pin_threads()
    if not (ROOT / "src" / "wrf").is_dir():
        print(f"error: no wrf package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    import bench
    import tracing

    spec = load_spec()
    gate, values, details, missing, env = bench.measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    print("env: " + json.dumps(env, sort_keys=True))
    metrics = {}
    groups = ["end_to_end"] + (["per_layer"] if args.trace else [])
    for group in groups:
        for m in spec[group]:
            name, unit = m["name"], m["unit"]
            if tracing.derived_from(name, missing):
                continue  # its entry point is gone; noted when probing
            if name not in values:
                if group == "end_to_end":
                    continue  # no unit succeeded; the gate already failed
                values[name] = 0.0  # the workload never enters this layer
            value = values[name]
            note = details.get(name, "")
            print(f"{args.workload:<14} {name:<34} {value:>16.9g} {unit:<6} {note}")
            if args.trace == 0 or group == "per_layer":
                metrics[name] = {"value": value, "unit": unit}
    ratio = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"{args.workload:<14} {'fail_ratio':<34} {ratio:>16.9g} {'ratio':<6} "
          f"{gate.failed} of {gate.attempted} units failed")
    print(f"gate: {'golden digest' if gate.golden_checked else 'repeatability only'}")
    correct = gate.failed == 0 and gate.attempted > 0 and bool(metrics)
    result = {"correct": correct, "attempted": gate.attempted, "failed": gate.failed,
              "metrics": metrics}
    if args.record is not None:
        entry = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "smoke": args.smoke, "seconds": args.seconds, "env": env,
                 "golden_checked": gate.golden_checked, **result}
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        child_argv = ["--workload", name, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            child_argv.append("--smoke")
        if args.record is not None:
            child_argv += ["--record", str(args.record)]
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *child_argv],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        status = status or proc.returncode or (0 if result["correct"] else 1)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined), flush=True)
    return status


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
