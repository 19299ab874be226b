#!/usr/bin/env python3
"""Perturbation-direction ablation: none vs random vs adversarial.

Trains a baseline (gamma=0) and a rho grid at a fixed 2% budget, where
rho is the per-step probability of perturbing along the gradient rather
than a random direction. rho=0 is the pure random variant, rho=1 the
pure adversarial one. `wrf sweep` prints one table per sweep: the
baseline's row is "none", and the grid's rows give "random" (rho=0),
"adversarial" (rho=1) and the full rho trend of best-epoch val Rmean.
The fit here is deliberately fast and high-variance; the budget is set
so direction effects clear seed noise.
"""

import argparse
import sys
from pathlib import Path

from wrf.cli import main as wrf_main

RHOS = "0,0.25,0.5,0.75,1"
GAMMA = 0.02

# Direction effects only separate from seed noise where the fit is fast
# and noisy; a 2% budget makes the random direction a real regularizer
# instead of a no-op, so the three-way ordering resolves.
KNOBS = {
    "activation": "relu",
    "eta0": 0.012,
    "init_scale": 6.0,
}


def run(out: Path, seeds: str) -> int:
    out.mkdir(parents=True, exist_ok=True)
    for stem, gamma, param, values in (("baseline", 0.0, "gamma", "0"),
                                       ("rho_grid", GAMMA, "rho", RHOS)):
        cfg = out / f"{stem}.cfg"
        entries = {"out_dir": out / stem, **KNOBS, "gamma": gamma}
        cfg.write_text("".join(f"{k}={v}\n" for k, v in entries.items()))
        rc = wrf_main(["sweep", "--config", str(cfg), "--param", param,
                       "--values", values, "--seeds", seeds])
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/direction_ablation", type=Path)
    ap.add_argument("--seeds", default="0,1,2,3,4")
    args = ap.parse_args()
    sys.exit(run(args.out, args.seeds))
