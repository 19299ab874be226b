#!/usr/bin/env python3
"""Loss-surface slices around trained checkpoints, with and without WRF.

Trains one baseline and one perturbed run in the gradient-limited
regime, then probes the loss along filter-normalized random directions
around each best checkpoint. The landscape command prints a flatness
score per checkpoint (mean loss rise at alpha=0.05) and writes the full
(direction, alpha, loss) grid as CSV next to each run.
"""

import argparse
import sys
from pathlib import Path

from wrf.cli import main as wrf_main

from gamma_sweep import KNOBS  # the gap study's gradient-limited regime


def run(out: Path, seed: int, gamma: float) -> int:
    out.mkdir(parents=True, exist_ok=True)
    for label, g in (("baseline", 0.0), ("perturbed", gamma)):
        cfg = out / f"{label}.cfg"
        entries = {"out_dir": out, "run_name": label, "seed": seed, "gamma": g, **KNOBS}
        cfg.write_text("".join(f"{k}={v}\n" for k, v in entries.items()))
        rc = wrf_main(["train", "--config", str(cfg)])
        if rc != 0:
            return rc
    for label in ("baseline", "perturbed"):
        print(f"\n{label}:")
        rc = wrf_main(["landscape", "--checkpoint", str(out / label / "best.ckpt")])
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/landscape", type=Path)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--gamma", type=float, default=0.005)
    args = ap.parse_args()
    sys.exit(run(args.out, args.seed, args.gamma))
