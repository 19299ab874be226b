"""Training loops: warm-up, two-pass perturbed updates, optimizers.

A WRF step costs two forward-backward passes: gradient at theta picks
the perturbation direction, gradient at theta+delta drives the
optimizer update, and theta itself is never mutated in between (the
perturbation is applied to a copy, and dropping the copy restores theta
exactly). Baseline steps (warm-up epochs, or gamma=0 runs) do one pass.

Optimizer moments see only the perturbed-pass gradient; decoupled
weight decay acts on the unperturbed weights. A literal
subtract-the-delta SGD variant, wrf_step_literal_sgd, cross-checks the
copy-on-apply implementation: `wrf selfcheck`'s dual-update-forms
check runs both forms, and so does acceptance check 4.

train() writes every run into an out_dir. Per-epoch Recall@K
evaluation goes through worker.forked: submit(params) returns the call
that gives the reports of params. The evaluation overlaps the next
epoch's training in a forked eval worker under worker.available()'s
start rule; otherwise the call evaluates in-process when it is made.
train() keeps at most one epoch uncommitted: at the end of epoch
e it commits epoch e-1, copies the parameters once and, if epoch e is
evaluated, submits the copy. Committing an evaluated epoch first makes
its call, at the end of the next epoch. It then writes what depends on
the reports (gap, best-so-far with the RunRecord's gap_at_best,
best.ckpt, checkpoints, then metrics.csv) with that epoch's
parameters, so artifacts are the same on both paths and as in a
sequential loop; metrics.csv trails training by one epoch. Every file
is written whole by checkpoint.write_whole, so a kill leaves no
half-written file, and a row reaches disk after the files it
describes. Worker passes do not reach this process's
diffcore.pass_counts().
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol

import numpy as np

from . import evalkit, worker
from .checkpoint import save_checkpoint, value_text, write_whole, writing
from .errors import ConfigError, NumericError
from .model import ModelConfig, RetrievalModel
from .params import ParameterSet
from .perturb import (
    adversarial_perturbation,
    apply_perturbation,
    choose_kind,
    random_perturbation,
)
from .synthcir import SynthDataset, TripletBatch

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

METRICS_HEADER = ",".join([
    "epoch", "split", "loss", *(f"r_at_{k}" for k in EVAL_KS), "rmean", "rsubset_at_1",
    "gap", "lr", "seconds", "adv_steps", "rand_steps",
])


class Objective(Protocol):
    def loss_and_grads(
        self, params: ParameterSet, batch: TripletBatch
    ) -> tuple[float, np.ndarray]: ...


@dataclass
class RetrievalObjective:
    model: RetrievalModel
    tau: float

    def loss_and_grads(self, params, batch):
        return self.model.loss_and_grads(params, batch, self.tau)

    def loss(self, params, batch):
        return self.model.batch_loss(params, batch, self.tau)


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
    finetune_mode: str = "full"  # with lora_rank, checked by the RetrievalModel train() builds
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainState:
    params: ParameterSet
    rng_shuffle: np.random.Generator
    rng_kind: np.random.Generator
    rng_noise: np.random.Generator
    epoch: int = 0
    adam_t: int = 0
    m: np.ndarray | None = None  # AdamW moments, laid out like params.flat
    v: np.ndarray | None = None


def new_train_state(config: TrainConfig, params: ParameterSet) -> TrainState:
    return TrainState(
        params=params,
        rng_shuffle=np.random.default_rng([_SHUFFLE_TAG, config.seed]),
        rng_kind=np.random.default_rng([_KIND_TAG, config.seed]),
        rng_noise=np.random.default_rng([_NOISE_TAG, config.seed]),
    )


def current_lr(config: TrainConfig, epoch: int) -> float:
    if config.schedule == "constant":
        return config.eta0
    return config.eta0 * 0.5 * (1.0 + math.cos(math.pi * epoch / config.total_epochs))


@dataclass
class StepInfo:
    loss: float
    lr: float
    kind: str | None = None  # perturbation kind, None for baseline steps
    loss_perturbed: float | None = None


# Overflow is not a warning here: a later pass or evaluation rejects
# non-finite parameters with a NumericError.
@np.errstate(over="ignore", invalid="ignore")
def _optimizer_update(state: TrainState, g: np.ndarray, lr: float, config: TrainConfig) -> None:
    # In place on params.flat. AdamW keeps the operation order of
    # m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    # theta -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * theta).
    theta = state.params.flat
    if config.optimizer == "sgd":
        theta -= lr * g
        return
    if state.m is None:
        state.m, state.v = np.zeros_like(theta), np.zeros_like(theta)
    state.adam_t += 1
    b1, b2, m, v = config.beta1, config.beta2, state.m, state.v
    tmp, step = np.empty_like(theta), np.empty_like(theta)
    m *= b1
    m += np.multiply(1.0 - b1, g, out=tmp)
    v *= b2
    v += np.multiply(np.multiply(1.0 - b2, g, out=tmp), g, out=tmp)
    np.sqrt(np.divide(v, 1.0 - b2**state.adam_t, out=tmp), out=tmp)
    tmp += config.eps
    np.divide(np.divide(m, 1.0 - b1**state.adam_t, out=step), tmp, out=step)
    step += np.multiply(config.weight_decay, theta, out=tmp)
    step *= lr
    theta -= step


def _pass(objective: Objective, params: ParameterSet, batch: TripletBatch,
          name: str, state: TrainState, gamma: float) -> tuple[float, np.ndarray]:
    """One loss_and_grads pass (the gradient is laid out like params.flat);
    a NumericError names the pass and the layer norms of state.params."""
    try:
        return objective.loss_and_grads(params, batch)
    except NumericError as exc:
        with np.errstate(over="ignore", invalid="ignore"):
            norms = {n: round(float(np.linalg.norm(state.params[n])), 6)
                     for n in state.params.trainable_names}
        raise NumericError(f"{name} failed: {exc} [gamma={gamma}, layer norms={norms}]") from exc


def baseline_step(
    state: TrainState, batch: TripletBatch, config: TrainConfig, objective: Objective
) -> StepInfo:
    """Plain step: one pass at theta, optimizer update with its gradient."""
    lr = current_lr(config, state.epoch)
    loss, grad = _pass(objective, state.params, batch, "loss pass", state, 0.0)
    _optimizer_update(state, grad, lr, config)
    return StepInfo(loss=loss, lr=lr)


def _two_passes(state: TrainState, batch: TripletBatch, config: TrainConfig, objective: Objective):
    """Pass at theta, kind draw, perturbation of a copy, pass at theta+delta:
    (StepInfo, delta, perturbed copy, gradient there); theta untouched."""
    lr = current_lr(config, state.epoch)
    loss, grad = _pass(objective, state.params, batch, "pass at theta", state, config.gamma)
    kind = choose_kind(config.rho, state.rng_kind)
    if kind == "adversarial":
        delta = adversarial_perturbation(state.params, grad, config.gamma)
    else:
        delta = random_perturbation(state.params, config.gamma, state.rng_noise)
    perturbed = apply_perturbation(state.params, delta)
    loss_p, grad_p = _pass(objective, perturbed, batch, "pass at theta+delta", state, config.gamma)
    return StepInfo(loss=loss, lr=lr, kind=kind, loss_perturbed=loss_p), delta, perturbed, grad_p


def wrf_step(
    state: TrainState, batch: TripletBatch, config: TrainConfig, objective: Objective
) -> StepInfo:
    """Two-pass step: direction from theta, update gradient from theta+delta."""
    info, _, _, grad_p = _two_passes(state, batch, config, objective)
    # state.params was never mutated: dropping the perturbed copy restores
    # theta bit for bit. The optimizer then sees theta.
    _optimizer_update(state, grad_p, info.lr, config)
    return info


def wrf_step_literal_sgd(
    state: TrainState, batch: TripletBatch, config: TrainConfig, objective: Objective
) -> StepInfo:
    """Update-rule cross-check: step at theta+delta, then subtract delta.

    Mathematically the same update as wrf_step under SGD; numerically it
    reintroduces delta round-off, which is why the production path
    perturbs a copy instead. `wrf selfcheck`'s dual-update-forms check
    runs both forms and bounds their gap, and so does acceptance check 4.
    """
    if config.optimizer != "sgd":
        raise ConfigError("the literal update form is defined for sgd only")
    info, delta, perturbed, grad_p = _two_passes(state, batch, config, objective)
    perturbed.flat -= info.lr * grad_p
    perturbed.flat -= delta
    state.params = perturbed
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
    rows: list[EpochRow] = field(default_factory=list)
    best_epoch: int | None = None
    best_val_rmean: float | None = None
    gap_at_best: float | None = None  # the gap of best_epoch
    final_val_rmean: float | None = None

    def seconds_per_epoch(self, skip_warmup: int = 0) -> float:
        rows = [r for r in self.rows if r.epoch > skip_warmup]
        return float(np.mean([r.seconds for r in rows])) if rows else float("nan")


def _recall_cells(report: "evalkit.MetricReport | None") -> list:
    """r_at_K for each of EVAL_KS, rmean and rsubset_at_1 of a report; all absent without one."""
    if report is None:
        return [None] * (len(EVAL_KS) + 2)
    return [*(report.recall_at.get(k) for k in EVAL_KS), report.rmean, report.rsubset_at_1]


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
    return [",".join(map(value_text, values)) for values in rows]


def _epoch_batches(order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        idx = order[start : start + batch_size]
        if len(idx) >= 2:  # singleton remainders carry no negatives; dropped
            yield idx


def _evaluate(model, dataset, train_eval_table, ks, params):
    """(train report, val report) of one epoch's parameters. The first call
    builds dataset.candidates, in the eval worker when there is one."""
    gallery_embs = model.embed_targets(params, dataset.gallery)
    return tuple(
        evalkit.recall_report(
            model.embed_queries(params, table.refs, dataset.mod_embeddings[table.mod_codes]),
            gallery_embs, table.target_indices, dataset.candidates[table.target_indices], ks,
        )
        for table in (train_eval_table, dataset.val)
    )


def train(
    config: TrainConfig,
    model_config: ModelConfig,
    dataset: SynthDataset,
    out_dir: str | Path,
) -> RunRecord:
    """Run the full loop, write its artifacts into out_dir and return the RunRecord.

    out_dir holds one run: the checkpoints, landscape.csv and *.tmp
    files of an earlier run there are removed first. metrics.csv holds
    the header before epoch 1 and is rewritten whole after each
    committed epoch's checkpoints (partial results survive a numeric
    abort), best.ckpt tracks the highest val rmean, and epoch_<n>.ckpt is
    written per checkpoint_every and for the final epoch. Per-epoch
    seconds cover the step loop only, so perturbation overhead is
    measurable next to evaluation.

    Evaluation goes through worker.forked, in a forked worker when
    worker.available() and in-process otherwise (see the module
    docstring); only this process writes files. Failures keep the order of a
    sequential loop: an evaluation error is raised after the rows of the
    epochs before it; an exception or Ctrl-C in a step first commits
    the previous epoch. The worker is stopped before train() returns or raises.
    """
    model = RetrievalModel(model_config, mode=config.finetune_mode, lora_rank=config.lora_rank)
    objective = RetrievalObjective(model, tau=config.tau)
    state = new_train_state(config, model.init_params())
    record = RunRecord()
    ks = [k for k in EVAL_KS if k <= dataset.gallery.shape[0]]
    train_eval_table = dataset.train  # read-only, so shared rather than copied
    if len(dataset.train) > TRAIN_EVAL_CAP:
        rng = np.random.default_rng([_EVAL_SUBSET_TAG, config.seed])
        train_eval_table = dataset.train.take(
            np.sort(rng.permutation(len(dataset.train))[:TRAIN_EVAL_CAP]))

    out_path = Path(out_dir)
    with writing(out_path):
        out_path.mkdir(parents=True, exist_ok=True)
    # *.ckpt.rng.json: the rng sidecars that older versions wrote; *.tmp: writes a kill cut short.
    for pattern in ("best.ckpt", "epoch_*.ckpt", "*.ckpt.rng.json", "landscape.csv", "*.tmp"):
        for stale in out_path.glob(pattern):
            stale.unlink()
    metrics = [METRICS_HEADER]  # the header and the rows of the committed epochs
    write_whole(out_path / "metrics.csv", f"{METRICS_HEADER}\n".encode("utf-8"))
    # The last epoch trained and not yet committed: (row, epoch-end params
    # copy, the call that returns its reports or None).
    pending: tuple[EpochRow, ParameterSet, Callable | None] | None = None

    def commit() -> None:
        """Write the pending epoch, taking its reports first if it was evaluated."""
        nonlocal pending
        if pending is None:
            return
        row, params, reports = pending
        pending = None
        if reports is not None:
            row.train_report, row.val_report = reports()
            row.gap = evalkit.generalization_gap(row.train_report, row.val_report)
            if record.best_val_rmean is None or row.val_report.rmean > record.best_val_rmean:
                record.best_val_rmean = row.val_report.rmean
                record.best_epoch = row.epoch
                record.gap_at_best = row.gap
                save_checkpoint(out_path / "best.ckpt", params)
            record.final_val_rmean = row.val_report.rmean
        if row.epoch == config.total_epochs or (
            config.checkpoint_every and row.epoch % config.checkpoint_every == 0
        ):
            save_checkpoint(out_path / f"epoch_{row.epoch}.ckpt", params)
        record.rows.append(row)
        metrics.extend(metrics_rows(row))
        write_whole(out_path / "metrics.csv", ("\n".join(metrics) + "\n").encode("utf-8"))

    evaluate = functools.partial(_evaluate, model, dataset, train_eval_table, ks)
    with worker.forked(evaluate, "eval worker") as submit:
        try:
            for epoch in range(config.total_epochs):
                state.epoch = epoch
                two_pass = config.gamma > 0.0 and epoch >= config.warmup_epochs
                step_fn = wrf_step if two_pass else baseline_step
                order = state.rng_shuffle.permutation(len(dataset.train))
                losses, kinds = [], []
                tick = time.perf_counter()
                for idx in _epoch_batches(order, config.batch_size):
                    info = step_fn(state, dataset.batch(dataset.train, idx), config, objective)
                    losses.append(info.loss)
                    kinds.append(info.kind)
                seconds = time.perf_counter() - tick

                epoch_no = epoch + 1
                row = EpochRow(epoch=epoch_no, train_loss=float(np.mean(losses)),
                               lr=current_lr(config, epoch), seconds=seconds,
                               adv_steps=kinds.count("adversarial"),
                               rand_steps=kinds.count("random"))
                commit()  # one evaluation in flight at a time
                params = state.params.copy()  # the next epoch updates state.params in place
                reports = None
                if epoch_no % config.eval_every == 0 or epoch_no == config.total_epochs:
                    reports = submit(params)
                pending = (row, params, reports)
        finally:
            commit()  # the last epoch, or the one before a failing epoch, as in a sequential loop
    return record
