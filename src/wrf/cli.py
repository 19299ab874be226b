"""Experiment front end: train, sweep, landscape, selfcheck.

Configs are line-oriented ``key=value`` text so that a run's resolved
settings can be echoed back out byte-for-byte. Every run directory gets
a ``config.echo`` holding all settings plus a short hash; feeding that
file back in reproduces the run (the data, the init, and the step
streams are all derived from the recorded seed).

Exit codes: 0 success, 1 selfcheck failure, 2 config or IO error,
3 numeric abort, 4 sweep finished with some failed runs. The commands
raise their errors; main() alone maps ConfigError, DataError, OSError
and MemoryError (``out of memory``) to 2 and NumericError to 3, each
with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, DataError, NumericError, WrfError
from .evalkit import default_alpha_grid, flatness_score, landscape_probe, landscape_to_csv
from .checkpoint import load_checkpoint, value_text, write_whole, writing
from .model import ModelConfig, RetrievalModel
from .selfcheck import run_selfcheck
from .synthcir import DatasetConfig, generate, subsample_dataset
from .trainer import RetrievalObjective, RunRecord, TrainConfig, train

SWEEP_PARAMS = ("gamma", "rho", "fraction", "lora_rank")

SWEEP_HEADER = (
    "param,value,seed,best_val_rmean,final_val_rmean,gap_at_best,"
    "epoch_of_best,seconds_per_epoch"
)

# Landscape loss is evaluated on one big training batch, capped so the
# probe stays cheap at any dataset size.
LANDSCAPE_BATCH_CAP = 512


def _with_fields_of(*components):
    """Class decorator: append every field of the components not yet declared.

    Fields keep their component's type and default and follow the
    components' order, so each value is declared, defaulted and checked
    once, in its component config.
    """

    def add(cls):
        annotations = cls.__dict__["__annotations__"]
        for component in components:
            for f in dataclasses.fields(component):
                if f.name not in annotations:
                    annotations[f.name] = f.type
                    setattr(cls, f.name, f.default)
        return cls

    return add


@dataclass(frozen=True)
@_with_fields_of(DatasetConfig, ModelConfig, TrainConfig)
class ExperimentConfig:
    """Flat union of all component settings plus output plumbing.

    One seed drives dataset generation, model init, and the training
    streams; the per-module stream tags keep them independent. The
    fields after ``fraction`` come from the component configs.
    """

    run_name: str = "run"
    out_dir: str = "runs"
    seed: int = 0
    fraction: float = 1.0

    def __post_init__(self):
        for name in ("run_name", "out_dir"):
            # config.echo holds each value on one line; "replace" changes
            # what UTF-8 cannot encode, such as an undecodable argv byte.
            value = getattr(self, name)
            if len(value.splitlines()) > 1 or value.encode("utf-8", "replace").decode() != value:
                raise ConfigError(f"{name} must be one line of UTF-8 text, got {value!r}")
        if self.run_name in ("", ".", "..") or "/" in self.run_name:
            raise ConfigError(f"run_name must be a plain directory name, got {self.run_name!r}")
        if not (0.0 < self.fraction <= 1.0):
            raise ConfigError(f"fraction must lie in (0, 1], got {self.fraction}")
        # Building every component config, then the model, checks all their
        # invariants in this order (so the first error reported is fixed); the
        # model alone checks finetune_mode and lora_rank.
        self.dataset_config()
        self.model_config()
        self.train_config()
        self.model()

    def _project(self, component):
        return component(**{f.name: getattr(self, f.name) for f in dataclasses.fields(component)})

    def dataset_config(self) -> DatasetConfig:
        return self._project(DatasetConfig)

    def model_config(self) -> ModelConfig:
        return self._project(ModelConfig)

    def train_config(self) -> TrainConfig:
        return self._project(TrainConfig)

    def model(self) -> RetrievalModel:
        return RetrievalModel(self.model_config(), self.finetune_mode, self.lora_rank)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def _parse_value(key: str, text: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    text = text.strip()
    kind = _FIELD_TYPES[key]
    try:
        if key == "hidden":
            return tuple(int(tok) for tok in text.split(",") if tok.strip())
        if kind in ("int", int):
            return int(text)
        if kind in ("float", float):
            return float(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from exc
    return text


def parse_config_lines(lines, source: str = "<config>") -> dict:
    mapping, set_on = {}, {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in set_on:
            raise ConfigError(f"{source}:{lineno}: {key} is already set on line {set_on[key]}")
        mapping[key], set_on[key] = value, lineno
    return mapping


def read_config_file(path: str | Path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not UTF-8") from exc
    return parse_config_lines(text.splitlines(), str(path))


def build_config(mapping: dict) -> ExperimentConfig:
    mapping = dict(mapping)
    mapping.pop("config_hash", None)  # echo files carry it; it is derived
    return ExperimentConfig(**{k: _parse_value(k, v) for k, v in mapping.items()})


def config_echo_text(config: ExperimentConfig) -> str:
    lines = [f"{f.name}={value_text(getattr(config, f.name))}" for f in dataclasses.fields(config)]
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]
    return body + f"config_hash={digest}\n"


def load_config_echo(path: str | Path) -> ExperimentConfig:
    return build_config(read_config_file(path))


def apply_overrides(mapping: dict, overrides) -> dict:
    out = dict(mapping)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        out[key.strip()] = value
    return out


def build_dataset(config: ExperimentConfig):
    return subsample_dataset(generate(config.dataset_config()), config.fraction, seed=config.seed)


def run_experiment(config: ExperimentConfig) -> tuple[RunRecord, Path]:
    dataset = build_dataset(config)
    if len(dataset.train) < 2:  # a batch needs a negative; checked before the run directory exists
        raise ConfigError("training split needs at least two triplets")
    run_dir = Path(config.out_dir) / config.run_name
    with writing(run_dir):
        run_dir.mkdir(parents=True, exist_ok=True)
    write_whole(run_dir / "config.echo", config_echo_text(config).encode("utf-8"))
    record = train(config.train_config(), config.model_config(), dataset, out_dir=run_dir)
    return record, run_dir


def cmd_train(args) -> int:
    config = build_config(apply_overrides(read_config_file(args.config), args.set))
    record, run_dir = run_experiment(config)
    print(f"run dir: {run_dir}")
    print(
        f"best val rmean {record.best_val_rmean:.4f} at epoch {record.best_epoch}; "
        f"final {record.final_val_rmean:.4f}; gap at best {record.gap_at_best:.4f}"
    )
    return 0


def _parse_sweep_list(text: str, kind, what: str) -> list:
    """Sorted distinct values of a comma-separated sweep argument."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ConfigError(f"sweep needs at least one {what}")
    try:
        return sorted({kind(tok) for tok in tokens})
    except ValueError as exc:
        raise ConfigError(f"bad sweep {what}: {exc}") from exc


def _sweep_config(base: dict, param: str, value, seed: int) -> ExperimentConfig:
    mapping = dict(base)
    if param == "lora_rank":
        # rank 0 means ordinary full fine-tuning: the sweep's baseline row.
        mapping["finetune_mode"] = "lora" if value > 0 else "full"
    mapping[param] = repr(value)
    mapping["seed"] = str(seed)
    mapping["run_name"] = f"{param}_{value!r}_seed{seed}"
    return build_config(mapping)


def print_sweep_table(param: str, finished: dict) -> None:
    """One row per swept value with finished runs: their count and seed means.

    drm is the change of best val Rmean against the first row, cut the
    % of the first row's best-epoch gap that the value removes (nan when
    that gap is 0).
    """
    for row, (value, records) in enumerate(finished.items()):
        rmean = sum(r.best_val_rmean for r in records) / len(records)
        gap = sum(r.gap_at_best for r in records) / len(records)
        if row == 0:
            base_rmean, base_gap = rmean, gap
            print(f"{param:>9} {'runs':>4} {'val rmean':>10} {'drm':>8} {'gap':>8} {'cut %':>7}")
        cut = 100 * (1 - gap / base_gap) if base_gap else float("nan")
        print(f"{value_text(value):>9} {len(records):>4} {rmean:10.3f} "
              f"{rmean - base_rmean:+8.3f} {gap:8.3f} {cut:7.1f}")


def cmd_sweep(args) -> int:
    base = apply_overrides(read_config_file(args.config), args.set)
    kind = int if args.param == "lora_rank" else float
    values = _parse_sweep_list(args.values, kind, "value")
    seeds = _parse_sweep_list(args.seeds, int, "seed")
    planned = [
        (value, seed, _sweep_config(base, args.param, value, seed))
        for value in values
        for seed in seeds
    ]
    rows = []
    finished = {}  # value -> RunRecords of its finished runs, in seed order
    failures = 0
    out_root = Path(planned[0][2].out_dir)
    for value, seed, config in planned:
        try:
            record, run_dir = run_experiment(config)
        except (WrfError, OSError, MemoryError) as exc:
            failures += 1
            print(f"error: run {config.run_name} failed: {exc}", file=sys.stderr)
            continue
        finished.setdefault(value, []).append(record)
        warm = config.warmup_epochs
        rows.append(",".join(map(value_text, (
            args.param, value, seed, record.best_val_rmean, record.final_val_rmean,
            record.gap_at_best, record.best_epoch, record.seconds_per_epoch(skip_warmup=warm),
        ))))
        print(f"{config.run_name}: best val rmean {record.best_val_rmean:.4f}")
    summary = out_root / "sweep_summary.csv"
    with writing(summary):
        out_root.mkdir(parents=True, exist_ok=True)
    write_whole(summary, ("\n".join([SWEEP_HEADER, *rows]) + "\n").encode("utf-8"))
    print_sweep_table(args.param, finished)
    print(f"summary: {summary} ({len(rows)} rows, {failures} failed)")
    return 4 if failures else 0


def cmd_landscape(args) -> int:
    if args.directions < 1:
        raise ConfigError(f"--directions must be >= 1, got {args.directions}")
    if not (math.isfinite(args.alpha_max) and args.alpha_max > 0):
        raise ConfigError(f"--alpha-max must be finite and > 0, got {args.alpha_max}")
    if args.alpha_steps < 1:
        raise ConfigError(f"--alpha-steps must be >= 1, got {args.alpha_steps}")
    ckpt_path = Path(args.checkpoint)
    run_dir = ckpt_path.parent
    config = load_config_echo(run_dir / "config.echo")
    model = config.model()
    expected = model.init_params()
    params = load_checkpoint(ckpt_path, trainable=expected.trainable_names)
    if params.shapes() != expected.shapes():
        raise DataError(
            f"{ckpt_path}: layer shapes {params.shapes()} do not fit the run's "
            f"config.echo, which builds {expected.shapes()}"
        )
    dataset = build_dataset(config)
    batch = dataset.batch(dataset.train, slice(LANDSCAPE_BATCH_CAP))
    objective = RetrievalObjective(model, tau=config.tau)

    def loss_fn(ps):
        return objective.loss(ps, batch)

    alphas = default_alpha_grid(args.alpha_max, args.alpha_steps)
    landscape = landscape_probe(loss_fn, params, args.directions, alphas, seed=config.seed)
    out = Path(args.out) if args.out else run_dir / "landscape.csv"
    landscape_to_csv(landscape, out)
    print(f"landscape: {out} ({len(landscape.losses)} directions x {len(alphas)} alphas)")
    try:
        print(f"flatness at alpha=0.05: {flatness_score(landscape, 0.05):.6f}")
    except ConfigError:
        pass  # 0.05 not on the requested grid
    return 0


def cmd_selfcheck(args) -> int:
    results = run_selfcheck(inject=args.inject)
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "ok" if r.ok else "FAIL"
        print(f"[{mark:>4}] {r.name:<{width}}  {r.detail}")
    bad = [r.name for r in results if not r.ok]
    if bad:
        print(f"selfcheck failed: {', '.join(bad)}", file=sys.stderr)
        return 1
    print("selfcheck passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wrf", description="Weight-perturbed retrieval experiments."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="key=value config file")
    common.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override a config entry (repeatable)",
    )

    p_train = sub.add_parser("train", parents=[common], help="run one training job")
    p_train.set_defaults(fn=cmd_train)

    p_sweep = sub.add_parser("sweep", parents=[common], help="run one job per value x seed")
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seeds")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_land = sub.add_parser("landscape", help="probe the loss surface around a checkpoint")
    p_land.add_argument("--checkpoint", required=True, help="path inside a run directory")
    p_land.add_argument("--directions", type=int, default=10)
    p_land.add_argument("--alpha-max", type=float, default=0.1)
    p_land.add_argument("--alpha-steps", type=int, default=10,
                        help="steps per side; the grid has 2*steps+1 points")
    p_land.add_argument("--out", default=None, help="CSV path (default: <run dir>/landscape.csv)")
    p_land.set_defaults(fn=cmd_landscape)

    p_check = sub.add_parser("selfcheck", help="run the release-gate checks")
    p_check.add_argument("--inject", choices=["grad-sign"], default=None,
                         help="deliberately break a backward rule (testing the gate)")
    p_check.set_defaults(fn=cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DataError, OSError) as exc:
        message, code = str(exc), 2
    except MemoryError as exc:
        message, code = f"out of memory: {exc}", 2
    except NumericError as exc:
        message, code = f"numeric abort: {exc}", 3
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
