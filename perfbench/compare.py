#!/usr/bin/env python3
"""Compare two result sets of the wrf benchmark: parent and change.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds JSON lines written by ``run.py --record FILE``. Results
are grouped by workload and trace mode, and the i-th parent run of a
group is paired with the i-th change run, so record the runs in the
same order on both sides (alternating which side runs first). One row
per workload and metric gives each side's median and quartiles and a
verdict, using the bounds of BENCHMARK.json:

- improved: the change wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the parent's
  own spread (the distance between its quartiles);
- worse: the change's median is worse than the parent's by more than
  the bound (a per-layer metric has no bound: it is worse when the
  parent wins by the improved rule);
- unresolved: the parent's spread is wider than the bound, unless every
  change run reads better than every parent run; a per-layer metric is
  unresolved when the medians differ by more than the parent's spread;
- no worse: otherwise.

Counts (unit ``count``) are compared as exact counts: equal counts are
no worse, a count that differs between runs of one side is unresolved.

Each group ends with its failed units and with how many runs per side
were held to a golden digest rather than checked for repeatability only.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    groups: dict[tuple, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                entry = json.loads(line)
                groups.setdefault((entry["workload"], entry["trace"]), []).append(entry)
    return groups


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound, unit):
    """Apply the rule above to one metric; returns the verdict string."""
    sign = 1.0 if better == "lower" else -1.0
    if unit == "count":
        if len(set(parent)) > 1 or len(set(change)) > 1:
            return "unresolved"
        p, c = parent[0], change[0]
        if c == p:
            return "no worse"
        return "improved" if sign * (c - p) < 0 else "worse"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    q1, pm, q3 = quartiles(parent)
    cm = statistics.median(change)
    spread = q3 - q1
    if wins >= 0.9 * len(pairs) and abs(cm - pm) > spread and sign * (cm - pm) < 0:
        return "improved"
    if bound is None:
        if losses >= 0.9 * len(pairs) and abs(cm - pm) > spread:
            return "worse"
        return "no worse" if abs(cm - pm) <= spread else "unresolved"
    if sign * (cm - pm) > bound * abs(pm):
        return "worse"
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > bound * abs(pm) and not all_better:
        return "unresolved"
    return "no worse"


def compare(parent_path, change_path, spec) -> list[str]:
    metrics = {m["name"]: m for group in ("end_to_end", "per_layer") for m in spec[group]}
    parent, change = load(parent_path), load(change_path)
    rows = [f"{'workload':<14} {'metric':<34} {'parent q1/median/q3':>36} "
            f"{'change q1/median/q3':>36}  verdict"]
    for key in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[key], change[key]
        n = min(len(p_runs), len(c_runs))
        names = [k for k in p_runs[0]["metrics"] if k in c_runs[0]["metrics"]]
        for name in names:
            spec_m = metrics.get(name, {"better": "lower", "unit": "?"})
            p = [r["metrics"][name]["value"] for r in p_runs[:n]]
            c = [r["metrics"][name]["value"] for r in c_runs[:n]]
            unit = p_runs[0]["metrics"][name]["unit"]
            v = verdict(p, c, spec_m["better"], spec_m.get("bound"), unit)
            fmt = "/".join(f"{x:.4g}" for x in quartiles(p))
            cfmt = "/".join(f"{x:.4g}" for x in quartiles(c))
            rows.append(f"{key[0]:<14} {name:<34} {fmt:>30} {unit:<5} {cfmt:>30} {unit:<5}  "
                        f"{v} (n={n})")
        fails = [sum(r["failed"] for r in runs) for runs in (p_runs, c_runs)]
        rows.append(f"{key[0]:<14} {'failed units':<34} {fails[0]:>36} {fails[1]:>36}  "
                    f"{'no worse' if fails[1] <= fails[0] else 'worse'}")
        golden = [sum(bool(r.get("golden_checked")) for r in runs) for runs in (p_runs, c_runs)]
        rows.append(f"{key[0]:<14} {'golden-checked runs':<34} {golden[0]:>36} {golden[1]:>36}")
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for row in compare(argv[0], argv[1], spec):
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
