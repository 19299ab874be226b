"""Workloads, measurement loops and the output gate of the wrf benchmark.

run.py imports this module only after it has pinned the thread-count
environment variables, because numpy's BLAS reads them once at import.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
GOLDEN = BENCH_DIR / "golden.json"
GOLDEN_SEED = 0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "WRF_THREADS")

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from wrf import checkpoint, cli, diffcore, evalkit  # noqa: E402
from wrf.model import RetrievalModel  # noqa: E402
from wrf.trainer import RetrievalObjective, TripletBatch  # noqa: E402

import tracing  # noqa: E402

# The direction-ablation setting of tests/test_acceptance.py (RATIO_KNOBS
# at the 2% budget), at the middle of its rho grid so that both
# perturbation kinds run. Everything else keeps its default: the
# 512/512 split, 2048-item gallery, batch 64, adamw, cosine, 60 epochs
# with 3 warm-up epochs and eval every epoch.
WRF_TRAIN_KNOBS = {
    "activation": "relu", "eta0": "0.012", "init_scale": "6", "gamma": "0.02", "rho": "0.5",
}
WORKLOADS = {
    "wrf-train": ("train", WRF_TRAIN_KNOBS),
    # `wrf landscape` at its CLI defaults around the wrf-train checkpoint.
    "landscape": ("landscape", WRF_TRAIN_KNOBS),
}
PROBE = {"directions": 10, "alpha_max": 0.1, "alpha_steps": 10}
SMOKE_KNOBS = {"total_epochs": "4", "warmup_epochs": "1"}
SMOKE_PROBE = {"directions": 2, "alpha_max": 0.1, "alpha_steps": 2}


def _delta(before, after):
    return {k: after[k] - before[k] for k in ("forward", "backward")}


@dataclass
class Outcome:
    """What one unit of user work produced, as seen from outside."""

    wall: float  # seconds of the unit
    loop: list[float]  # seconds per main-loop iteration
    items: int  # items through the main loop
    item_s: float  # seconds of the main loop
    epoch_seconds: float  # sum of RunRecord epoch seconds (training only)
    passes: dict  # forward/backward deltas of diffcore.pass_counts()
    output: Path  # what the digest covers
    problems: list[str] = field(default_factory=list)


def _config_lines(settings: dict) -> list[str]:
    return [f"{k}={v}" for k, v in settings.items()]


class TrainWorkload:
    """One `wrf train` run: cli.run_experiment on a generated config."""

    loop_name = "post-warm-up epochs"

    def __init__(self, knobs: dict, seed: int, smoke: bool, work: Path):
        settings = {"out_dir": work, "run_name": "run", "seed": seed, **knobs}
        if smoke:
            settings.update(SMOKE_KNOBS)
        self.lines = _config_lines(settings)
        self.work = work

    def prepare(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)

    def setup(self):
        config = cli.build_config(cli.parse_config_lines(self.lines))
        dataset = cli.build_dataset(config)
        model = RetrievalModel(
            config.model_config(),
            mode=config.finetune_mode,
            lora_rank=config.lora_rank if config.finetune_mode == "lora" else None,
        )
        model.init_params()
        return config, len(dataset.train)

    def unit(self, state, span) -> Outcome:
        config, n_rows = state
        shutil.rmtree(Path(config.out_dir) / config.run_name, ignore_errors=True)
        before = diffcore.pass_counts()
        with span:
            t0 = time.perf_counter()
            record, run_dir = cli.run_experiment(config)
            wall = time.perf_counter() - t0
        passes = _delta(before, diffcore.pass_counts())
        # The trainer drops a singleton remainder batch (no negatives).
        full, rem = divmod(n_rows, config.batch_size)
        batches = full + (rem >= 2)
        rows = full * config.batch_size + (rem if rem >= 2 else 0)
        epoch_s = [r.seconds for r in record.rows]
        out = Outcome(
            wall=wall,
            loop=[r.seconds for r in record.rows if r.epoch > config.warmup_epochs],
            items=rows * config.total_epochs,
            item_s=sum(epoch_s),
            epoch_seconds=sum(epoch_s),
            passes=passes,
            output=run_dir,
        )
        wrf_steps = sum(r.adv_steps + r.rand_steps for r in record.rows)
        baseline = config.total_epochs * batches - wrf_steps
        want = 2 * wrf_steps + baseline
        if passes["backward"] != want:
            out.problems.append(
                f"two-pass invariant: {passes['backward']} backward passes, "
                f"expected 2 x {wrf_steps} + {baseline} = {want}"
            )
        return out

    def digest(self, out: Outcome) -> str:
        """metrics.csv without its seconds column, then the final params."""
        h = hashlib.sha256()
        lines = (out.output / "metrics.csv").read_text(encoding="utf-8").splitlines()
        drop = lines[0].split(",").index("seconds")
        for line in lines:
            cells = line.split(",")
            del cells[drop]
            h.update((",".join(cells) + "\n").encode("utf-8"))
        # The final epoch's checkpoint is the one with the highest number.
        final = max(out.output.glob("epoch_*.ckpt"), key=lambda p: int(p.stem.split("_")[1]))
        params = checkpoint.load_checkpoint(final)
        for name in params.names:
            arr = np.ascontiguousarray(params[name], dtype="<f8")
            h.update(f"{name} {arr.shape}\n".encode("utf-8"))
            h.update(arr.tobytes())
        return h.hexdigest()


@dataclass
class ProbeState:
    config: object
    params: object
    objective: RetrievalObjective
    batch: TripletBatch
    alphas: np.ndarray


class LandscapeWorkload:
    """One `wrf landscape` probe plus its CSV write, around a checkpoint."""

    loop_name = "probe directions"

    def __init__(self, knobs: dict, seed: int, smoke: bool, work: Path):
        settings = {"out_dir": work, "run_name": "ckpt", "seed": seed, **knobs}
        if smoke:
            settings.update(SMOKE_KNOBS)
        self.lines = _config_lines(settings)
        self.probe = SMOKE_PROBE if smoke else PROBE
        self.work = work
        self.run_dir = work / "ckpt"

    def prepare(self) -> None:
        """Make the checkpoint with `wrf train` in a child process (untimed input)."""
        self.work.mkdir(parents=True, exist_ok=True)
        cfg = self.work / "ckpt.cfg"
        cfg.write_text("\n".join(self.lines) + "\n", encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "wrf.cli", "train", "--config", str(cfg)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"wrf train for the checkpoint failed: {proc.stderr.strip()}")

    def setup(self) -> ProbeState:
        # The setup half of cli.cmd_landscape.
        config = cli.load_config_echo(self.run_dir / "config.echo")
        model = RetrievalModel(
            config.model_config(),
            mode=config.finetune_mode,
            lora_rank=config.lora_rank if config.finetune_mode == "lora" else None,
        )
        params = checkpoint.load_checkpoint(
            self.run_dir / "best.ckpt", trainable=model.init_params().trainable_names
        )
        dataset = cli.build_dataset(config)
        table = dataset.train
        n = min(len(table), cli.LANDSCAPE_BATCH_CAP)
        batch = TripletBatch(
            refs=table.refs[:n],
            mods=dataset.mod_embeddings[table.mod_codes[:n]],
            targets=dataset.gallery[table.target_indices[:n]],
        )
        alphas = evalkit.default_alpha_grid(self.probe["alpha_max"], self.probe["alpha_steps"])
        return ProbeState(config, params, RetrievalObjective(model, tau=config.tau), batch, alphas)

    def unit(self, s: ProbeState, span) -> Outcome:
        out = self.work / "landscape.csv"
        ends: list[float] = []

        def loss_fn(ps):
            try:
                return s.objective.loss(ps, s.batch)
            finally:
                ends.append(time.perf_counter())

        before = diffcore.pass_counts()
        with span:
            t0 = time.perf_counter()
            curves = evalkit.landscape_probe(
                loss_fn, s.params, self.probe["directions"], s.alphas, seed=s.config.seed
            )
            t1 = time.perf_counter()
            evalkit.landscape_to_csv(curves, out)
            wall = time.perf_counter() - t0
        # Direction d runs from the last loss of direction d-1 to its own
        # last loss, so it includes drawing and scaling its direction.
        per = len(s.alphas)
        bounds = [t0] + [ends[(d + 1) * per - 1] for d in range(len(ends) // per)]
        return Outcome(
            wall=wall,
            loop=[b - a for a, b in zip(bounds, bounds[1:])],
            items=len(ends),
            item_s=t1 - t0,
            epoch_seconds=0.0,
            passes=_delta(before, diffcore.pass_counts()),
            output=out,
        )

    def digest(self, out: Outcome) -> str:
        """The loss curves, as the CSV `wrf landscape` writes them."""
        return hashlib.sha256(out.output.read_bytes()).hexdigest()


def make_workload(name: str, seed: int, smoke: bool):
    kind, knobs = WORKLOADS[name]
    work = WORK / f"{name}-s{seed}{'-smoke' if smoke else ''}"
    cls = TrainWorkload if kind == "train" else LandscapeWorkload
    return cls(knobs, seed, smoke, work)


# ---------------------------------------------------------------- environment


def _blas_core() -> str | None:
    """OpenBLAS's runtime kernel family (it picks one per CPU)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fn_name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                        "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, fn_name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                fn.argtypes = []
                return fn().decode("ascii", "replace")
    return None


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "wrf").glob("*.py")):
        h.update(path.name.encode("utf-8") + b"\n" + path.read_bytes())
    return h.hexdigest()[:16]


# The part of the environment a golden digest depends on besides the code.
PLATFORM_KEYS = ("machine", "numpy", "blas", "blas_core")


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_core": _blas_core(),
        "threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------- gate


class Gate:
    """Digest and invariant checks; every unit is checked, none skipped.

    ``golden_checked`` tells whether units were held to a golden digest
    or, at another seed or on another platform, only to each other.
    """

    def __init__(self, name: str, seed: int, smoke: bool, env: dict):
        self.name = name
        self.mode = "smoke" if smoke else "full"
        self.platform = {k: env[k] for k in PLATFORM_KEYS}
        self.expected = None
        self.attempted = 0
        self.failed = 0
        self.first_digest = None
        if seed == GOLDEN_SEED:
            golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
            if golden.get("platform") != self.platform:
                print(f"note: golden digests were recorded on {golden.get('platform')}, "
                      f"this is {self.platform}; outputs are checked for repeatability only",
                      file=sys.stderr, flush=True)
            else:
                self.expected = golden.get("digests", {}).get(self.mode, {}).get(name)
                if self.expected is None:
                    print(f"note: no golden digest for {self.mode}/{name}",
                          file=sys.stderr, flush=True)
        self.golden_checked = self.expected is not None

    def check(self, workload, run_unit) -> Outcome | None:
        """Run one unit; return its outcome, or None when it failed."""
        self.attempted += 1
        try:
            out = run_unit()
            digest = workload.digest(out)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        if self.first_digest is None:
            self.first_digest = digest
        want = self.expected or self.first_digest
        problems = list(out.problems)
        if digest != want:
            problems.append(f"output digest {digest} != expected {want}")
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {self.name}: {p}", file=sys.stderr, flush=True)
            return None
        return out


# ---------------------------------------------------------------- measurement


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Run one workload.

    Returns the gate (attempted and failed units), the metric values by
    name, a sample-count note per metric, the names of entry points the
    tracer could not find, and the environment record.
    """
    env = environment()
    workload = make_workload(name, seed, smoke)
    gate = Gate(name, seed, smoke, env)
    workload.prepare()
    setups: list[float] = []
    untraced: list[Outcome] = []
    traced: list[Outcome] = []
    reps: list[dict] = []
    tracer = tracing.Tracer() if trace else None
    probes = tracing.Probes(tracer) if trace else None

    def untraced_iteration():
        """One set-up, then one unit on it, as a user's run does.

        Set-ups are spread over the whole run, one before each unit, so
        their median sees the same host as the units do.
        """
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup()
        setup_s = time.perf_counter() - t0
        gc.collect()
        return setup_s, gate.check(workload, lambda: workload.unit(state, nullcontext()))

    def traced_rep():
        gc.collect()
        run_id = tracer.new_run()

        def run():
            probes.install()
            try:
                with tracer.span("bench.setup"):
                    st = workload.setup()
                return workload.unit(st, tracer.span("bench.unit"))
            finally:
                probes.uninstall()

        out = gate.check(workload, run)
        if out is None:
            return
        traced.append(out)
        reps.append({
            "run_id": run_id,
            "passes": out.passes,
            "epoch_seconds": out.epoch_seconds,
            "unit_s": out.wall,
        })

    if not smoke:
        untraced_iteration()  # warm-up: checked, not timed
    deadline = time.perf_counter() + seconds
    while True:
        setup_s, out = untraced_iteration()
        setups.append(setup_s)
        if out is not None:
            untraced.append(out)
        if trace:
            traced_rep()
        if time.perf_counter() >= deadline:
            break

    values: dict[str, float] = {}
    details: dict[str, str] = {}
    if untraced:
        loop = [x for o in untraced for x in o.loop]
        values.update({
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(o.wall for o in untraced),
            "items_per_s": sum(o.items for o in untraced) / sum(o.item_s for o in untraced),
            "loop_s.p50": tracing.percentile(loop, 50),
            "loop_s.p90": tracing.percentile(loop, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        n = len(untraced)
        details.update({
            "setup_s": f"median of {len(setups)} set-ups, one before each unit",
            "run_s": f"median of {n} runs",
            "items_per_s": f"pooled over {n} runs",
            "loop_s.p50": f"{len(loop)} {workload.loop_name}",
            "loop_s.p90": f"{len(loop)} {workload.loop_name}",
        })
    if trace and traced:
        values.update(tracing.layer_metrics(tracer, reps))
        base = statistics.fmean(o.wall for o in untraced) if untraced else float("nan")
        values["trace_overhead"] = statistics.fmean(o.wall for o in traced) / base - 1.0
        WORK.mkdir(parents=True, exist_ok=True)
        path = WORK / f"trace-{name}-s{seed}{'-smoke' if smoke else ''}.csv.gz"
        n_spans = tracer.write_gz(path)
        print(f"trace: {n_spans} spans of {len(traced)} repetitions -> {path}", flush=True)
        details["traced_s"] = f"mean of {len(traced)} traced setup+run repetitions"
    missing = probes.missing if probes is not None else set()
    return gate, values, details, missing, env
