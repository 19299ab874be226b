"""Tests of the benchmark itself: smoke runs, probe hygiene, compare verdicts.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import tracing  # noqa: E402


def _smoke(trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "all", "--smoke",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_and_passes_the_gate(trace):
    lines = _smoke(trace)
    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(results) == len(WORKLOADS) + 1  # one per workload, then the combined line
    group = "per_layer" if trace else "end_to_end"
    for name, result in zip(WORKLOADS, results):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[group]}
        for m in SPEC[group]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    printed = {tuple(line.split()[:2]): line.split() for line in lines if line and not line.startswith("{")}
    for name in WORKLOADS:
        for m in SPEC["end_to_end"] + (SPEC["per_layer"] if trace else []):
            row = printed[(name, m["name"])]
            assert row[3] == m["unit"], row
        assert printed[(name, "fail_ratio")][2] == "0"
    if trace:
        train = results[WORKLOADS.index("wrf-train")]["metrics"]
        # 3 post-warm-up epochs x 8 two-pass steps + 8 warm-up steps.
        assert train["diffcore.backward.calls"]["value"] == 2 * 24 + 8
        parts = sum(v["value"] for k, v in train.items() if k.startswith("self_s."))
        parts += train["unattributed_s"]["value"]
        assert parts == pytest.approx(train["traced_s"]["value"], rel=1e-9)


def test_probes_restore_every_attribute():
    import wrf.cli
    import wrf.diffcore
    import wrf.trainer

    before = {
        "run_experiment": wrf.cli.run_experiment,
        "save": wrf.trainer.save_checkpoint,
        "forward": wrf.diffcore.Executor.__dict__["forward"],
        "ops": dict(wrf.diffcore._OPS),
    }
    probes = tracing.Probes(tracing.Tracer())
    probes.install()
    assert wrf.trainer.save_checkpoint is not before["save"]
    assert wrf.diffcore._OPS["matmul"] is not before["ops"]["matmul"]
    probes.uninstall()
    assert wrf.cli.run_experiment is before["run_experiment"]
    assert wrf.trainer.save_checkpoint is before["save"]
    assert wrf.diffcore.Executor.__dict__["forward"] is before["forward"]
    assert wrf.diffcore._OPS == before["ops"]


def test_missing_entry_point_drops_its_metrics(monkeypatch, capsys):
    gone = ("evalkit.subset_target_ranks", "wrf.evalkit", "no_such_function")
    entries = [e for e in tracing.ENTRY_POINTS if e[0] != gone[0]] + [gone]
    monkeypatch.setattr(tracing, "ENTRY_POINTS", tuple(entries))
    probes = tracing.Probes(tracing.Tracer())
    probes.install()
    probes.uninstall()
    assert "evalkit.subset_target_ranks" in probes.missing
    assert "no_such_function not found" in capsys.readouterr().out
    assert tracing.derived_from("evalkit.subset_target_ranks.s", probes.missing)
    assert not tracing.derived_from("evalkit.target_ranks.s", probes.missing)


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    faster = [x * 0.8 for x in parent]
    slower = [x * 1.2 for x in parent]
    noisy = [0.6, 1.4, 0.7, 1.3, 1.0, 0.5, 1.5, 1.0, 0.9, 1.1]
    assert compare.verdict(parent, faster, "lower", 0.1, "s") == "improved"
    assert compare.verdict(parent, slower, "lower", 0.1, "s") == "worse"
    assert compare.verdict(parent, parent, "lower", 0.1, "s") == "no worse"
    assert compare.verdict(noisy, noisy, "lower", 0.1, "s") == "unresolved"
    assert compare.verdict(parent, slower, "higher", 0.1, "1/s") == "improved"
    assert compare.verdict([936] * 3, [936] * 3, "lower", None, "count") == "no worse"
    assert compare.verdict([936] * 3, [912] * 3, "lower", None, "count") == "improved"
    assert compare.verdict([936, 937], [936, 936], "lower", None, "count") == "unresolved"
