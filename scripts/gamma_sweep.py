#!/usr/bin/env python3
"""Generalization-gap response to the perturbation budget.

Runs the reference task once per (gamma, seed) with the training knobs
pinned to the gradient-limited regime, where the budget actually moves
the gap. `wrf sweep` then prints per-gamma seed means: best-epoch val
Rmean, train/val gap, and the gap cut relative to gamma=0. Run
directories plus a sweep_summary.csv land under --out.
"""

import argparse
import sys
from pathlib import Path

from wrf.cli import main as wrf_main

GAMMAS = "0,0.0005,0.001,0.002,0.005"

# The gap study needs training to stay gradient-limited, or the per-step
# parameter movement swamps a <=0.5% relative perturbation. relu at small
# eta0 with a wide init puts the baseline there while the largest gamma
# still bites.
KNOBS = {
    "activation": "relu",
    "eta0": 0.002,
    "init_scale": 8.0,
}


def run(out: Path, seeds: str) -> int:
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "sweep.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in {"out_dir": out, **KNOBS}.items()))
    return wrf_main(["sweep", "--config", str(cfg), "--param", "gamma",
                     "--values", GAMMAS, "--seeds", seeds])


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/gamma_sweep", type=Path)
    ap.add_argument("--seeds", default="0,1,2,3,4")
    args = ap.parse_args()
    sys.exit(run(args.out, args.seeds))
