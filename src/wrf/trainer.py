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

Per-epoch Recall@K evaluation overlaps the next epoch's training. Where
the fork start method exists, the process runs a single thread and it
may run on more CPUs than BLAS starts threads (OPENBLAS_NUM_THREADS=1 on
two CPUs, say), train() forks one eval worker per run and sends it the
epoch's parameters; the worker embeds the gallery and both query splits and returns the two
reports while the parent trains on. The parent does everything that
depends on the reports (gap, best-so-far, best.ckpt, metrics.csv rows,
checkpoints) when they come back, strictly in epoch order and with that
epoch's parameters and rng state, so every artifact is the same as in a
run without the worker. At most one evaluation is in flight. Otherwise
the same deferred path evaluates in-process at the end of each eval
epoch: on one CPU the worker would only take turns with training, and
next to a BLAS pool that already uses every CPU it slows each training
step more than it saves. Forward passes inside the worker do not reach
this process's diffcore.pass_counts().
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Protocol

import numpy as np

from . import evalkit
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
from .synthcir import SynthDataset, TripletTable

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
        if not (self.eps > 0.0):
            raise ConfigError("eps must be positive")
        if self.weight_decay < 0.0:
            raise ConfigError("weight_decay must be >= 0")
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
    adv_steps: int = 0
    rand_steps: int = 0

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


def _diagnostics(params: ParameterSet, gamma: float) -> str:
    norms = {n: round(float(np.linalg.norm(params[n])), 6) for n in params.trainable_names}
    return f"gamma={gamma}, layer norms={norms}"


def baseline_step(
    state: TrainState, batch: TripletBatch, config: TrainConfig, objective: Objective
) -> StepInfo:
    """Plain step: one pass at theta, optimizer update with its gradient."""
    lr = current_lr(config, state.epoch)
    try:
        loss, grads = objective.loss_and_grads(state.params, batch)
    except NumericError as exc:
        raise NumericError(f"loss pass failed: {exc} [{_diagnostics(state.params, 0.0)}]") from exc
    _optimizer_update(state, grads, lr, config)
    state.step += 1
    return StepInfo(loss=loss, lr=lr)


def _draw_perturbation(state: TrainState, config: TrainConfig, grads: GradientSet):
    kind = choose_kind(config.rho, state.rng_kind)
    if kind == "adversarial":
        return adversarial_perturbation(state.params, grads, config.gamma)
    return random_perturbation(state.params, config.gamma, state.rng_noise)


def wrf_step(
    state: TrainState, batch: TripletBatch, config: TrainConfig, objective: Objective
) -> StepInfo:
    """Two-pass step: direction from theta, update gradient from theta+delta."""
    lr = current_lr(config, state.epoch)
    try:
        loss, grads = objective.loss_and_grads(state.params, batch)
    except NumericError as exc:
        raise NumericError(
            f"pass at theta failed: {exc} [{_diagnostics(state.params, config.gamma)}]"
        ) from exc
    pert = _draw_perturbation(state, config, grads)
    perturbed = apply_perturbation(state.params, pert)
    try:
        loss_p, grads_p = objective.loss_and_grads(perturbed, batch)
    except NumericError as exc:
        raise NumericError(
            f"pass at theta+delta failed: {exc} [{_diagnostics(state.params, config.gamma)}]"
        ) from exc
    # state.params was never mutated: dropping `perturbed` here restores
    # theta bit for bit. The optimizer then sees theta.
    _optimizer_update(state, grads_p, lr, config)
    state.step += 1
    if pert.kind == "adversarial":
        state.adv_steps += 1
    else:
        state.rand_steps += 1
    return StepInfo(loss=loss, lr=lr, kind=pert.kind, loss_perturbed=loss_p)


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
    lr = current_lr(config, state.epoch)
    loss, grads = objective.loss_and_grads(state.params, batch)
    pert = _draw_perturbation(state, config, grads)
    perturbed = apply_perturbation(state.params, pert)
    loss_p, grads_p = objective.loss_and_grads(perturbed, batch)
    for name in perturbed.trainable_names:
        arr = perturbed[name]
        arr -= lr * grads_p[name]
        arr -= pert.deltas[name]
    state.params = perturbed
    state.step += 1
    if pert.kind == "adversarial":
        state.adv_steps += 1
    else:
        state.rand_steps += 1
    return StepInfo(loss=loss, lr=lr, kind=pert.kind, loss_perturbed=loss_p)


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


def _csv_num(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _metric_fields(report: "evalkit.MetricReport | None") -> list[str]:
    if report is None:
        return [""] * 6
    cells = [_csv_num(report.recall_at.get(k)) for k in EVAL_KS]
    cells.append(_csv_num(report.rmean))
    sub = report.recall_subset_at or {}
    cells.append(_csv_num(sub.get(1)))
    return cells


def metrics_rows(row: EpochRow) -> list[str]:
    """CSV lines for one epoch: a train row, and a val row when evaluated.

    Epoch-level quantities (loss, lr, seconds, step counts) ride on the
    train row; the gap rides on the val row. Absent metrics are empty
    fields, never zeros.
    """
    lines = []
    train_cells = [
        str(row.epoch),
        "train",
        _csv_num(row.train_loss),
        *_metric_fields(row.train_report),
        "",  # gap lives on the val row
        _csv_num(row.lr),
        _csv_num(row.seconds),
        str(row.adv_steps),
        str(row.rand_steps),
    ]
    lines.append(",".join(train_cells))
    if row.val_report is not None:
        val_cells = [
            str(row.epoch),
            "val",
            "",
            *_metric_fields(row.val_report),
            _csv_num(row.gap),
            "",
            "",
            "",
            "",
        ]
        lines.append(",".join(val_cells))
    return lines


def _epoch_batches(table: TripletTable, order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        idx = order[start : start + batch_size]
        if len(idx) >= 2:  # singleton remainders carry no negatives; dropped
            yield idx


def _split_report(model, params, table, gallery_embs, mod_embs, ks, split):
    queries = model.embed_queries(params, table.refs, mod_embs[table.mod_codes])
    return evalkit.recall_report(
        queries, gallery_embs, table.target_indices, table.subsets, ks, split
    )


def _evaluate(model, dataset, train_eval_table, ks, params):
    """(train report, val report) of one epoch's parameters."""
    gallery_embs = model.embed_targets(params, dataset.gallery)
    return (
        _split_report(model, params, train_eval_table, gallery_embs,
                      dataset.mod_embeddings, ks, "train"),
        _split_report(model, params, dataset.val, gallery_embs,
                      dataset.mod_embeddings, ks, "val"),
    )


class _Evaluator:
    """Runs evaluate(params) for each eval epoch; a with block stops it."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(failed=exc_type is not None)

    def close(self, failed: bool) -> None:
        pass


class _InlineEval(_Evaluator):
    """Evaluates at submit time, in this process."""

    def __init__(self, evaluate):
        self._evaluate = evaluate
        self._reports = None

    def submit(self, params: ParameterSet) -> None:
        self._reports = self._evaluate(params)

    def ready(self) -> bool:
        return True

    def result(self):
        return self._reports


def _worker_loop(conn, parent_end, evaluate) -> None:
    """Eval worker body: parameters in, (ok, reports or exception) out."""
    # Without the parent's end of the pipe, a parent that dies leaves
    # this process an EOF instead of a recv that never returns.
    parent_end.close()
    # Ctrl-C reaches the whole process group; the parent stops this process.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            params = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, evaluate(params))
        except Exception as exc:
            reply = (False, exc)
        conn.send(reply)


class _EvalWorker(_Evaluator):
    """A forked process that runs one evaluation at a time."""

    def __init__(self, evaluate):
        ctx = multiprocessing.get_context("fork")
        self._conn, child_end = ctx.Pipe()
        self._proc = ctx.Process(
            target=_worker_loop, args=(child_end, self._conn, evaluate),
            name="wrf-eval", daemon=True,
        )
        self._proc.start()
        child_end.close()
        self._busy = False

    def _exited(self) -> RuntimeError:
        self._proc.join()
        return RuntimeError(f"eval worker exited with code {self._proc.exitcode}")

    def submit(self, params: ParameterSet) -> None:
        try:
            self._conn.send(params)
        except BrokenPipeError:
            raise self._exited() from None
        self._busy = True

    def ready(self) -> bool:
        """True when result() would not block."""
        return not self._busy or self._conn.poll()

    def result(self):
        """The reports of the evaluation in flight; its error is raised here.

        The worker holds the only other end of the pipe, so its exit
        ends a blocked recv() with EOFError.
        """
        try:
            ok, value = self._conn.recv()
        except EOFError:
            raise self._exited() from None
        self._busy = False
        if not ok:
            raise value
        return value

    def close(self, failed: bool) -> None:
        self._conn.close()  # the worker sees EOF and returns
        if not failed:
            self._proc.join(timeout=10.0)
        if self._proc.is_alive():
            self._proc.terminate()
        self._proc.join()


# Unset, OpenBLAS and MKL start one BLAS thread per usable CPU.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_threads(cpus: int) -> int:
    """BLAS threads per process, as the environment sets them."""
    for var in _BLAS_THREAD_VARS:
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if n >= 1:
            return min(n, cpus)
    return cpus


def _eval_worker_available() -> bool:
    """fork to share the dataset, safe only while this process runs one
    thread; a CPU that training's BLAS threads leave free; and a process
    that may have children (a daemonic one may not)."""
    if "fork" not in multiprocessing.get_all_start_methods() or not hasattr(os, "sched_getaffinity"):
        return False
    cpus = len(os.sched_getaffinity(0))
    return (
        cpus > _blas_threads(cpus)
        and threading.active_count() == 1
        and not multiprocessing.current_process().daemon
    )


@contextmanager
def _metrics_file(out_path: Path | None):
    """metrics.csv with its header written, or None without an out_dir."""
    if out_path is None:
        yield None
        return
    with (out_path / "metrics.csv").open("w", encoding="utf-8") as fh:
        fh.write(METRICS_HEADER + "\n")
        fh.flush()
        yield fh


@dataclass
class _PendingEpoch:
    """An epoch whose artifacts wait for its evaluation (or an earlier one)."""

    row: EpochRow
    params: ParameterSet  # the epoch-end parameters
    rng_state: dict  # the epoch-end rng streams
    evaluated: bool


def train(
    config: TrainConfig,
    model_config: ModelConfig,
    dataset: SynthDataset,
    out_dir: str | Path | None = None,
) -> RunRecord:
    """Run the full loop; returns the RunRecord and (optionally) writes artifacts.

    With an out_dir: metrics.csv is flushed row by row (partial results
    survive a numeric abort), best.ckpt tracks the highest val rmean,
    epoch_<n>.ckpt is written per checkpoint_every and for the final
    epoch, and each checkpoint gets a .rng.json sidecar holding the
    three rng stream states. Per-epoch seconds cover the step loop
    only, so perturbation overhead is measurable next to evaluation.

    Evaluation runs in a forked worker when _eval_worker_available(),
    in-process otherwise (see the module docstring); only this process
    writes files. Failures keep the order of a sequential loop: an
    evaluation error is raised after the rows of the epochs before it,
    and a step that fails while the previous epoch is being evaluated
    first lets that epoch finish. The worker is stopped before train()
    returns or raises.
    """
    if len(dataset.train) < 2:
        raise ConfigError("training split needs at least two triplets")
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

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    pending: deque[_PendingEpoch] = deque()

    def save_ckpt(name: str, params: ParameterSet, rng_state: dict) -> None:
        if out_path is None:
            return
        path = out_path / name
        save_checkpoint(path, params)
        Path(f"{path}.rng.json").write_text(json.dumps(rng_state), encoding="utf-8")

    def finish(epoch: _PendingEpoch, reports) -> None:
        row = epoch.row
        if reports is not None:
            row.train_report, row.val_report = reports
            row.gap = evalkit.generalization_gap(row.train_report, row.val_report)
            if record.best_val_rmean is None or row.val_report.rmean > record.best_val_rmean:
                record.best_val_rmean = row.val_report.rmean
                record.best_epoch = row.epoch
                save_ckpt("best.ckpt", epoch.params, epoch.rng_state)
            record.final_val_rmean = row.val_report.rmean
        record.rows.append(row)
        if metrics_fh is not None:
            for line in metrics_rows(row):
                metrics_fh.write(line + "\n")
            metrics_fh.flush()
        if config.checkpoint_every and row.epoch % config.checkpoint_every == 0:
            save_ckpt(f"epoch_{row.epoch}.ckpt", epoch.params, epoch.rng_state)

    def collect() -> None:
        """Finish every pending epoch, waiting for the evaluation in flight."""
        while pending:
            epoch = pending.popleft()
            finish(epoch, evaluator.result() if epoch.evaluated else None)

    evaluate = functools.partial(_evaluate, model, dataset, train_eval_table, ks)
    evaluator = _EvalWorker(evaluate) if _eval_worker_available() else _InlineEval(evaluate)
    # The worker forks before this process opens any file of the run.
    with evaluator, _metrics_file(out_path) as metrics_fh:
        for epoch in range(config.total_epochs):
            state.epoch = epoch
            step_fn = baseline_step
            if config.gamma > 0.0 and epoch >= config.warmup_epochs:
                step_fn = wrf_step
            adv_before, rand_before = state.adv_steps, state.rand_steps
            order = state.rng_shuffle.permutation(len(dataset.train))
            losses = []
            tick = time.perf_counter()
            try:
                for idx in _epoch_batches(dataset.train, order, config.batch_size):
                    batch = TripletBatch(
                        refs=dataset.train.refs[idx],
                        mods=dataset.mod_embeddings[dataset.train.mod_codes[idx]],
                        targets=dataset.gallery[dataset.train.target_indices[idx]],
                    )
                    info = step_fn(state, batch, config, objective)
                    losses.append(info.loss)
            except Exception:
                collect()  # the epochs before this one end first, as in a sequential loop
                raise
            seconds = time.perf_counter() - tick

            epoch_no = epoch + 1
            row = EpochRow(
                epoch=epoch_no,
                train_loss=float(np.mean(losses)),
                lr=current_lr(config, epoch),
                seconds=seconds,
                adv_steps=state.adv_steps - adv_before,
                rand_steps=state.rand_steps - rand_before,
            )
            evaluated = epoch_no % config.eval_every == 0 or epoch_no == config.total_epochs
            if evaluated:
                collect()  # one evaluation in flight at a time
                evaluator.submit(state.params)
            pending.append(_PendingEpoch(row, state.params, state.rng_state(), evaluated))
            if evaluator.ready():
                collect()
            # The next epoch updates state.params in place.
            for waiting in pending:
                if waiting.params is state.params:
                    waiting.params = state.params.copy()
        collect()
        save_ckpt(f"epoch_{config.total_epochs}.ckpt", state.params, state.rng_state())
    return record
