#!/usr/bin/env python3
"""Train-set size versus overfitting, no perturbation involved.

Sweeps nested train subsets at the default knobs with gamma=0; `wrf
sweep` prints how the best-epoch gap shrinks and val Rmean climbs as
data is added. Subsets are prefixes of one seeded permutation, so each
fraction contains the smaller ones.
"""

import argparse
import sys
from pathlib import Path

from wrf.cli import main as wrf_main

FRACTIONS = "0.2,0.4,0.6,0.8,1.0"

# The module defaults (tanh, eta0 1e-3, init 1.0) with the perturbation off.
KNOBS = {"gamma": 0.0}


def run(out: Path, seeds: str) -> int:
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "fractions.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in {"out_dir": out, **KNOBS}.items()))
    return wrf_main(["sweep", "--config", str(cfg), "--param", "fraction",
                     "--values", FRACTIONS, "--seeds", seeds])


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/data_fractions", type=Path)
    ap.add_argument("--seeds", default="0,1,2,3,4")
    args = ap.parse_args()
    sys.exit(run(args.out, args.seeds))
