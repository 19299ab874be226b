"""Training loops: warm-up, two-pass perturbed updates, optimizers.

A WRF step costs two forward-backward passes: gradient at theta picks
the perturbation direction, gradient at theta+delta drives the
optimizer update, and theta itself is never mutated in between (the
perturbation is applied to a copy, and dropping the copy restores theta
exactly). Baseline steps (warm-up epochs, or gamma=0 runs) do one pass.

Optimizer moments see only the perturbed-pass gradient; decoupled
weight decay acts on the unperturbed weights. A literal
subtract-the-delta SGD variant is kept purely as a cross-check of the
copy-on-apply implementation.

train() writes every run into an out_dir. Per-epoch Recall@K
evaluation goes through worker.forked: submit(params) returns the call
that gives the reports of params. The evaluation overlaps the next
epoch's training in a forked eval worker under worker.available()'s
start rule; otherwise the call evaluates in-process when it is made.
train() keeps at most one epoch uncommitted: at the end of epoch
e it commits epoch e-1, copies the parameters once and, if epoch e is
evaluated, submits the copy. Committing an evaluated epoch first makes
its call, at the end of the next epoch. It then writes what depends on
the reports (gap, best-so-far, best.ckpt, metrics.csv rows,
checkpoints) with that epoch's parameters and rng state, so artifacts
are the same on both paths and as in a sequential loop; metrics.csv
trails training by one epoch. Worker passes do not reach this
process's diffcore.pass_counts().
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Protocol

import numpy as np

from . import evalkit, worker
from .checkpoint import save_checkpoint
from .errors import ConfigError, NumericError
from .model import MODES, ModelConfig, RetrievalModel
from .params import GradientSet, ParameterSet
from .perturb import (
    adversarial_perturbation,
    apply_perturbation,
    choose_kind,
    random_perturbation,
)
from .synthcir import SynthDataset

# Seed stream tags (see model.py note on cross-module aliasing).
_SHUFFLE_TAG = 0x21
_KIND_TAG = 0x22
_NOISE_TAG = 0x23
_EVAL_SUBSET_TAG = 0x24

SCHEDULES = ("constant", "cosine")
OPTIMIZERS = ("sgd", "adamw")

# Recall levels reported during training; galleries smaller than a K
# simply omit that column.
EVAL_KS = (1, 5, 10, 50)

# Train-split recall is computed on a fixed seeded subset of at most
# this many queries, so per-epoch curves stay comparable and cheap.
TRAIN_EVAL_CAP = 2000

METRICS_HEADER = (
    "epoch,split,loss,r_at_1,r_at_5,r_at_10,r_at_50,rmean,rsubset_at_1,"
    "gap,lr,seconds,adv_steps,rand_steps"
)


class TripletBatch(NamedTuple):
    refs: np.ndarray
    mods: np.ndarray
    targets: np.ndarray


class Objective(Protocol):
    def loss_and_grads(
        self, params: ParameterSet, batch: TripletBatch
    ) -> tuple[float, GradientSet]: ...


@dataclass
class RetrievalObjective:
    model: RetrievalModel
    tau: float

    def loss_and_grads(self, params, batch):
        return self.model.loss_and_grads(
            params, batch.refs, batch.mods, batch.targets, self.tau
        )

    def loss(self, params, batch):
        return self.model.batch_loss(
            params, batch.refs, batch.mods, batch.targets, self.tau
        )


@dataclass(frozen=True)
class TrainConfig:
    tau: float = 10.0
    gamma: float = 0.001
    rho: float = 1.0
    eta0: float = 1e-3
    schedule: str = "cosine"
    total_epochs: int = 60
    warmup_epochs: int = 3
    batch_size: int = 64
    optimizer: str = "adamw"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.05
    eval_every: int = 1
    checkpoint_every: int = 0  # extra epoch_<n>.ckpt cadence; final epoch always saved
    seed: int = 0
    finetune_mode: str = "full"
    lora_rank: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ConfigError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not (0.0 <= self.rho <= 1.0):
            raise ConfigError(f"rho must lie in [0, 1], got {self.rho}")
        if not (np.isfinite(self.eta0) and self.eta0 > 0.0):
            raise ConfigError(f"eta0 must be positive, got {self.eta0}")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"schedule must be one of {SCHEDULES}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}")
        if self.total_epochs < 1:
            raise ConfigError("total_epochs must be >= 1")
        if not (0 <= self.warmup_epochs < self.total_epochs):
            raise ConfigError(
                f"need 0 <= warmup_epochs < total_epochs, got "
                f"{self.warmup_epochs} / {self.total_epochs}"
            )
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (contrastive loss needs negatives)")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not (0.0 <= b < 1.0):
                raise ConfigError(f"{name} must lie in [0, 1), got {b}")
        if not (np.isfinite(self.eps) and self.eps > 0.0):
            raise ConfigError(f"eps must be finite and positive, got {self.eps}")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not (np.isfinite(self.tau) and self.tau > 0.0):
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")
        if self.finetune_mode not in MODES:
            raise ConfigError(f"finetune_mode must be one of {MODES}, got {self.finetune_mode!r}")
        if self.lora_rank < 0:
            raise ConfigError(f"lora_rank must be >= 0, got {self.lora_rank}")
        if self.finetune_mode == "lora" and self.lora_rank < 1:
            raise ConfigError("lora mode needs lora_rank >= 1")


@dataclass
class TrainState:
    params: ParameterSet
    rng_shuffle: np.random.Generator
    rng_kind: np.random.Generator
    rng_noise: np.random.Generator
    epoch: int = 0
    step: int = 0
    adam_t: int = 0
    m: GradientSet | None = None
    v: GradientSet | None = None

    def rng_state(self) -> dict:
        return {
            "shuffle": self.rng_shuffle.bit_generator.state,
            "kind": self.rng_kind.bit_generator.state,
            "noise": self.rng_noise.bit_generator.state,
        }

    def set_rng_state(self, state: dict) -> None:
        self.rng_shuffle.bit_generator.state = state["shuffle"]
        self.rng_kind.bit_generator.state = state["kind"]
        self.rng_noise.bit_generator.state = state["noise"]


def new_train_state(config: TrainConfig, params: ParameterSet) -> TrainState:
    return TrainState(
        params=params,
        rng_shuffle=np.random.default_rng([_SHUFFLE_TAG, config.seed]),
        rng_kind=np.random.default_rng([_KIND_TAG, config.seed]),
        rng_noise=np.random.default_rng([_NOISE_TAG, config.seed]),
    )


def cosine_lr(eta0: float, t: int, total: int) -> float:
    if not (0 <= t <= total):
        raise ConfigError(f"need 0 <= t <= T, got t={t}, T={total}")
    return eta0 * 0.5 * (1.0 + math.cos(math.pi * t / total))


def current_lr(config: TrainConfig, epoch: int) -> float:
    if config.schedule == "constant":
        return config.eta0
    return cosine_lr(config.eta0, epoch, config.total_epochs)


@dataclass
class StepInfo:
    loss: float
    lr: float
    kind: str | None = None  # perturbation kind, None for baseline steps
    loss_perturbed: float | None = None


def _optimizer_update(state: TrainState, grads: GradientSet, lr: float, config: TrainConfig) -> None:
    params = state.params
    if config.optimizer == "sgd":
        for name in params.trainable_names:
            arr = params[name]
            arr -= lr * grads[name]
        return
    if state.m is None:
        state.m = params.zeros_like_trainable()
        state.v = params.zeros_like_trainable()
    state.adam_t += 1
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1**state.adam_t
    bc2 = 1.0 - b2**state.adam_t
    for name in params.trainable_names:
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        arr = params[name]
        arr -= lr * (m_hat / (np.sqrt(v_hat) + config.eps) + config.weight_decay * arr)


def _pass(objective: Objective, params: ParameterSet, batch: TripletBatch,
          name: str, state: TrainState, gamma: float) -> tuple[float, GradientSet]:
    """One loss_and_grads pass; a NumericError names the pass and the
    layer norms of state.params."""
    try:
        return objective.loss_and_grads(params, batch)
    except NumericError as exc:
        norms = {n: round(float(np.linalg.norm(state.params[n])), 6)
                 for n in state.params.trainable_names}
        raise NumericError(f"{name} failed: {exc} [gamma={gamma}, layer norms={norms}]") from exc


def baseline_step(
    state: TrainState, batch: TripletBatch, config: TrainConfig, objective: Objective
) -> StepInfo:
    """Plain step: one pass at theta, optimizer update with its gradient."""
    lr = current_lr(config, state.epoch)
    loss, grads = _pass(objective, state.params, batch, "loss pass", state, 0.0)
    _optimizer_update(state, grads, lr, config)
    state.step += 1
    return StepInfo(loss=loss, lr=lr)


def _two_passes(state: TrainState, batch: TripletBatch, config: TrainConfig, objective: Objective):
    """Pass at theta, kind draw, perturbation of a copy, pass at theta+delta:
    (StepInfo, perturbation, perturbed copy, gradient there); theta untouched."""
    lr = current_lr(config, state.epoch)
    loss, grads = _pass(objective, state.params, batch, "pass at theta", state, config.gamma)
    if choose_kind(config.rho, state.rng_kind) == "adversarial":
        pert = adversarial_perturbation(state.params, grads, config.gamma)
    else:
        pert = random_perturbation(state.params, config.gamma, state.rng_noise)
    perturbed = apply_perturbation(state.params, pert)
    loss_p, grads_p = _pass(objective, perturbed, batch, "pass at theta+delta", state, config.gamma)
    return StepInfo(loss=loss, lr=lr, kind=pert.kind, loss_perturbed=loss_p), pert, perturbed, grads_p


def wrf_step(
    state: TrainState, batch: TripletBatch, config: TrainConfig, objective: Objective
) -> StepInfo:
    """Two-pass step: direction from theta, update gradient from theta+delta."""
    info, _, _, grads_p = _two_passes(state, batch, config, objective)
    # state.params was never mutated: dropping the perturbed copy restores
    # theta bit for bit. The optimizer then sees theta.
    _optimizer_update(state, grads_p, info.lr, config)
    state.step += 1
    return info


def wrf_step_literal_sgd(
    state: TrainState, batch: TripletBatch, config: TrainConfig, objective: Objective
) -> StepInfo:
    """Update-rule cross-check: step at theta+delta, then subtract delta.

    Mathematically the same update as wrf_step under SGD; numerically it
    reintroduces delta round-off, which is why the production path
    perturbs a copy instead. Exists only so tests can compare both.
    """
    if config.optimizer != "sgd":
        raise ConfigError("the literal update form is defined for sgd only")
    info, pert, perturbed, grads_p = _two_passes(state, batch, config, objective)
    for name in perturbed.trainable_names:
        arr = perturbed[name]
        arr -= info.lr * grads_p[name]
        arr -= pert.deltas[name]
    state.params = perturbed
    state.step += 1
    return info


@dataclass
class EpochRow:
    epoch: int  # 1-based
    train_loss: float
    lr: float
    seconds: float
    adv_steps: int
    rand_steps: int
    train_report: "evalkit.MetricReport | None" = None
    val_report: "evalkit.MetricReport | None" = None
    gap: float | None = None


@dataclass
class RunRecord:
    seed: int
    rows: list[EpochRow] = field(default_factory=list)
    best_epoch: int | None = None
    best_val_rmean: float | None = None
    final_val_rmean: float | None = None

    def gap_at_best(self) -> float | None:
        for row in self.rows:
            if row.epoch == self.best_epoch:
                return row.gap
        return None

    def seconds_per_epoch(self, skip_warmup: int = 0) -> float:
        rows = [r for r in self.rows if r.epoch > skip_warmup]
        return float(np.mean([r.seconds for r in rows])) if rows else float("nan")


def _cell(value) -> str:
    """One metrics.csv cell: empty for None, text and counts as they are,
    any other number as the repr of its float."""
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return repr(float(value))


def _recall_cells(report: "evalkit.MetricReport | None") -> list:
    """r_at_1 .. r_at_50, rmean and rsubset_at_1 of a report; all absent without one."""
    if report is None:
        return [None] * 6
    subset = report.recall_subset_at or {}
    return [*(report.recall_at.get(k) for k in EVAL_KS), report.rmean, subset.get(1)]


def metrics_rows(row: EpochRow) -> list[str]:
    """CSV lines for one epoch: a train row, and a val row when evaluated.

    Epoch-level quantities (loss, lr, seconds, step counts) ride on the
    train row; the gap rides on the val row. Absent metrics are empty
    fields, never zeros.
    """
    rows = [[row.epoch, "train", row.train_loss, *_recall_cells(row.train_report), None,
             row.lr, row.seconds, row.adv_steps, row.rand_steps]]
    if row.val_report is not None:
        rows.append([row.epoch, "val", None, *_recall_cells(row.val_report), row.gap,
                     None, None, None, None])
    return [",".join(map(_cell, values)) for values in rows]


def _epoch_batches(order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        idx = order[start : start + batch_size]
        if len(idx) >= 2:  # singleton remainders carry no negatives; dropped
            yield idx


def _evaluate(model, dataset, train_eval_table, ks, params):
    """(train report, val report) of one epoch's parameters."""
    gallery_embs = model.embed_targets(params, dataset.gallery)
    return tuple(
        evalkit.recall_report(
            model.embed_queries(params, table.refs, dataset.mod_embeddings[table.mod_codes]),
            gallery_embs, table.target_indices, table.subsets, ks, split,
        )
        for table, split in ((train_eval_table, "train"), (dataset.val, "val"))
    )


def check_train_split(dataset: SynthDataset) -> None:
    """A batch needs a negative, so training needs at least two triplets."""
    if len(dataset.train) < 2:
        raise ConfigError("training split needs at least two triplets")


def train(
    config: TrainConfig,
    model_config: ModelConfig,
    dataset: SynthDataset,
    out_dir: str | Path,
) -> RunRecord:
    """Run the full loop, write its artifacts into out_dir and return the RunRecord.

    metrics.csv is flushed row by row (partial results survive a numeric
    abort), best.ckpt tracks the highest val rmean, epoch_<n>.ckpt is
    written per checkpoint_every and for the final epoch, and each
    checkpoint gets a .rng.json sidecar holding the three rng stream
    states. Per-epoch seconds cover the step loop only, so perturbation
    overhead is measurable next to evaluation.

    Evaluation goes through worker.forked, in a forked worker when
    worker.available() and in-process otherwise (see the module
    docstring); the worker forks before metrics.csv opens, and
    only this process writes files. Failures keep the order of a
    sequential loop: an evaluation error is raised after the rows of the
    epochs before it, and a failing step first commits the epoch before
    it. The worker is stopped before train() returns or raises.
    """
    check_train_split(dataset)
    model = RetrievalModel(model_config, mode=config.finetune_mode, lora_rank=config.lora_rank)
    objective = RetrievalObjective(model, tau=config.tau)
    state = new_train_state(config, model.init_params())
    record = RunRecord(seed=config.seed)
    ks = [k for k in EVAL_KS if k <= dataset.gallery.shape[0]]
    train_eval_idx = np.arange(len(dataset.train))
    if len(train_eval_idx) > TRAIN_EVAL_CAP:
        rng = np.random.default_rng([_EVAL_SUBSET_TAG, config.seed])
        train_eval_idx = np.sort(rng.permutation(len(train_eval_idx))[:TRAIN_EVAL_CAP])
    train_eval_table = dataset.train.take(train_eval_idx)

    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    # The last epoch trained and not yet committed: (row, epoch-end params
    # copy, epoch-end rng state, the call that returns its reports or None).
    pending: tuple[EpochRow, ParameterSet, dict, Callable | None] | None = None

    def save_ckpt(name: str, params: ParameterSet, rng_state: dict) -> None:
        path = out_path / name
        save_checkpoint(path, params)
        Path(f"{path}.rng.json").write_text(json.dumps(rng_state), encoding="utf-8")

    def commit() -> None:
        """Write the pending epoch, taking its reports first if it was evaluated."""
        nonlocal pending
        if pending is None:
            return
        row, params, rng_state, reports = pending
        pending = None
        if reports is not None:
            row.train_report, row.val_report = reports()
            row.gap = evalkit.generalization_gap(row.train_report, row.val_report)
            if record.best_val_rmean is None or row.val_report.rmean > record.best_val_rmean:
                record.best_val_rmean = row.val_report.rmean
                record.best_epoch = row.epoch
                save_ckpt("best.ckpt", params, rng_state)
            record.final_val_rmean = row.val_report.rmean
        record.rows.append(row)
        for line in metrics_rows(row):
            metrics_fh.write(line + "\n")
        metrics_fh.flush()
        if row.epoch == config.total_epochs or (
            config.checkpoint_every and row.epoch % config.checkpoint_every == 0
        ):
            save_ckpt(f"epoch_{row.epoch}.ckpt", params, rng_state)

    evaluate = functools.partial(_evaluate, model, dataset, train_eval_table, ks)
    # Entered in order: the worker forks before this process opens any file of the run.
    with worker.forked(evaluate, "eval worker") as submit, (out_path / "metrics.csv").open(
        "w", encoding="utf-8"
    ) as metrics_fh:
        metrics_fh.write(METRICS_HEADER + "\n")
        metrics_fh.flush()
        for epoch in range(config.total_epochs):
            state.epoch = epoch
            step_fn = baseline_step
            if config.gamma > 0.0 and epoch >= config.warmup_epochs:
                step_fn = wrf_step
            order = state.rng_shuffle.permutation(len(dataset.train))
            losses, kinds = [], []
            tick = time.perf_counter()
            try:
                for idx in _epoch_batches(order, config.batch_size):
                    batch = TripletBatch(
                        refs=dataset.train.refs[idx],
                        mods=dataset.mod_embeddings[dataset.train.mod_codes[idx]],
                        targets=dataset.gallery[dataset.train.target_indices[idx]],
                    )
                    info = step_fn(state, batch, config, objective)
                    losses.append(info.loss)
                    kinds.append(info.kind)
            except Exception:
                commit()  # the epoch before this one ends first, as in a sequential loop
                raise
            seconds = time.perf_counter() - tick

            epoch_no = epoch + 1
            row = EpochRow(
                epoch=epoch_no,
                train_loss=float(np.mean(losses)),
                lr=current_lr(config, epoch),
                seconds=seconds,
                adv_steps=kinds.count("adversarial"),
                rand_steps=kinds.count("random"),
            )
            commit()  # one evaluation in flight at a time
            params = state.params.copy()  # the next epoch updates state.params in place
            reports = None
            if epoch_no % config.eval_every == 0 or epoch_no == config.total_epochs:
                reports = submit(params)
            pending = (row, params, state.rng_state(), reports)
        commit()
    return record
