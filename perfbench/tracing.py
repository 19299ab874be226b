"""Outside-in tracing of the wrf package for the benchmark's traced runs.

Nothing in ``src/wrf`` knows about this module. ``Probes.install`` looks
up each public entry point by name, replaces every binding of it inside
the ``wrf`` package (``trainer`` imports ``save_checkpoint`` by name, so
patching ``wrf.checkpoint`` alone would miss the trainer's calls) with a
wrapper that records a span, and ``Probes.uninstall`` puts every
original back. The diffcore op kernels are wrapped through the ``_OPS``
registry, the same hook ``wrf.selfcheck.inject_fault`` uses.

An entry point that no longer exists is skipped with a printed note, so
a refactor that removes or renames one drops its metrics instead of
crashing the run.

Spans live in flat arrays until the run ends: name, parent span, start
and end (``time.perf_counter`` seconds), plus the repetition id that all
spans of one traced setup-and-unit share.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import math
import os
import sys
import time
from array import array
from contextlib import contextmanager

# (span name, module, attribute path). The span name's first component
# is the layer its self time is charged to.
ENTRY_POINTS = (
    ("cli.run_experiment", "wrf.cli", "run_experiment"),
    ("synthcir.generate", "wrf.synthcir", "generate"),
    ("synthcir.subsample", "wrf.synthcir", "subsample_dataset"),
    ("trainer.train", "wrf.trainer", "train"),
    ("trainer.wrf_step", "wrf.trainer", "wrf_step"),
    ("trainer.baseline_step", "wrf.trainer", "baseline_step"),
    ("model.loss_and_grads", "wrf.model", "RetrievalModel.loss_and_grads"),
    ("model.batch_loss", "wrf.model", "RetrievalModel.batch_loss"),
    ("model.embed_queries", "wrf.model", "RetrievalModel.embed_queries"),
    ("model.embed_targets", "wrf.model", "RetrievalModel.embed_targets"),
    ("diffcore.forward", "wrf.diffcore", "Executor.forward"),
    ("diffcore.backward", "wrf.diffcore", "Executor.backward"),
    ("params.copy", "wrf.params", "ParameterSet.copy"),
    ("perturb.adversarial", "wrf.perturb", "adversarial_perturbation"),
    ("perturb.random", "wrf.perturb", "random_perturbation"),
    ("perturb.apply", "wrf.perturb", "apply_perturbation"),
    ("evalkit.recall_report", "wrf.evalkit", "recall_report"),
    ("evalkit.target_ranks", "wrf.evalkit", "target_ranks"),
    ("evalkit.subset_target_ranks", "wrf.evalkit", "subset_target_ranks"),
    ("evalkit.landscape_probe", "wrf.evalkit", "landscape_probe"),
    ("evalkit.landscape_to_csv", "wrf.evalkit", "landscape_to_csv"),
    ("checkpoint.save", "wrf.checkpoint", "save_checkpoint"),
    ("checkpoint.load", "wrf.checkpoint", "load_checkpoint"),
)

OPS = (
    "matmul", "add", "bias_add", "tanh", "relu", "row_concat",
    "l2norm_rows", "pairwise_dot", "scalar_mul", "softmax_xent",
)
LOSS_OPS = ("pairwise_dot", "scalar_mul", "softmax_xent")


def note(message: str) -> None:
    print(f"note: {message}", flush=True)


class Tracer:
    """Span store shared by every wrapper of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.run_id = -1
        # (run id, span name) -> summed value of a measured side quantity.
        self.extra: dict[tuple[int, str], float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.run.append(self.run_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def wrap(self, fn, name: str, meter=None):
        name_id = self.name_id(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            t0 = perf()
            self.start[idx] = t0
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                self.stack.pop()
            if meter is not None:
                for key, value in meter(args, kwargs, out).items():
                    k = (self.run_id, key)
                    self.extra[k] = self.extra.get(k, 0.0) + value
            return out

        return traced

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.name_id(name))
        self.start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    def new_run(self) -> int:
        self.run_id += 1
        return self.run_id

    def write_gz(self, path) -> int:
        """Write every span as CSV (times relative to the first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("run,span,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.run[i]},{i},{self.parent[i]},{self.names[self.name[i]]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n"
                )
        return len(self.start)


def _score_meter(args, kwargs, out):
    queries = args[0] if args else kwargs["query_embs"]
    gallery = args[1] if len(args) > 1 else kwargs["gallery_embs"]
    q, g = int(queries.shape[0]), int(gallery.shape[0])
    return {"evalkit.score_matrices": 1.0, "evalkit.score_bytes": 8.0 * q * g}


def _save_meter(args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    return {"checkpoint.save.bytes": float(os.path.getsize(path))}


# Side quantities measured at a boundary. Each listed evalkit entry point
# computes one Q x G score matrix (query rows against the whole gallery);
# its float64 bytes are computed from the argument shapes, not measured.
METERS = {
    "evalkit.target_ranks": _score_meter,
    "evalkit.subset_target_ranks": _score_meter,
    "checkpoint.save": _save_meter,
}


class Probes:
    """Installs and removes the wrappers; remembers every patched slot."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._restore: list[tuple] = []  # (kind, holder, key, original)
        self.missing: set[str] = set()

    def _note_once(self, name: str, message: str) -> None:
        if name not in self.missing:
            self.missing.add(name)
            note(message)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("probes are already installed")
        try:
            for name, module_name, path in ENTRY_POINTS:
                self._install_entry(name, module_name, path)
            self._install_ops()
        except BaseException:
            self.uninstall()
            raise

    def _install_entry(self, name: str, module_name: str, path: str) -> None:
        try:
            module = importlib.import_module(module_name)
            holder = module
            *outer, attr = path.split(".")
            for part in outer:
                holder = getattr(holder, part)
            original = getattr(holder, attr)
        except (ImportError, AttributeError):
            self._note_once(name, f"{module_name}.{path} not found; metrics of {name} dropped")
            return
        wrapper = self.tracer.wrap(original, name, METERS.get(name))
        if outer:  # a method: patch the class attribute
            self._restore.append(("attr", holder, attr, holder.__dict__[attr]))
            setattr(holder, attr, wrapper)
            return
        # A function: rebind it wherever a wrf module imported it by name.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "wrf" or mod_name.startswith("wrf.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append(("attr", mod, key, original))
                    setattr(mod, key, wrapper)

    def _install_ops(self) -> None:
        try:
            diffcore = importlib.import_module("wrf.diffcore")
            registry = diffcore._OPS
        except (ImportError, AttributeError):
            for op in OPS:
                self._note_once(f"diffcore.op.{op}", "wrf.diffcore._OPS not found; op metrics dropped")
            return
        for op in OPS:
            entry = registry.get(op)
            if entry is None:
                self._note_once(f"diffcore.op.{op}", f"diffcore op {op!r} not registered; its metrics dropped")
                continue
            self._restore.append(("item", registry, op, entry))
            registry[op] = entry._replace(
                forward=self.tracer.wrap(entry.forward, f"diffcore.op.{op}.fwd"),
                backward=self.tracer.wrap(entry.backward, f"diffcore.op.{op}.bwd"),
            )

    def uninstall(self) -> None:
        while self._restore:
            kind, holder, key, original = self._restore.pop()
            if kind == "item":
                holder[key] = original
            else:
                setattr(holder, key, original)


def _self_times(tracer: Tracer):
    """Per span: duration and self time (duration minus child spans)."""
    n = len(tracer.start)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
    return dur, [dur[i] - child[i] for i in range(n)]


def percentile(values, q):
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def layer_metrics(tracer: Tracer, reps: list[dict]) -> dict[str, float]:
    """Per-layer metrics, as means per traced repetition.

    ``reps`` holds per passed repetition: ``run_id``, ``passes`` (forward/backward deltas
    from ``diffcore.pass_counts``),
    ``epoch_seconds`` (sum of the RunRecord epoch seconds, 0 for the
    probe) and ``unit_s``. Means keep the accounting exact: the layer
    self times plus ``unattributed_s`` sum to ``traced_s``. Counts must
    repeat exactly across repetitions; one that does not gets a note.
    """
    dur, self_t = _self_times(tracer)
    names = [tracer.names[k] for k in tracer.name]
    # Spans of a repetition that failed its gate are left out.
    per_rep: dict[int, dict[str, float]] = {rep["run_id"]: {} for rep in reps}

    def add(r, key, value):
        if r in per_rep:
            per_rep[r][key] = per_rep[r].get(key, 0.0) + value

    children: dict[int, list[int]] = {}
    for i, name in enumerate(names):
        r = tracer.run[i]
        is_op = name.startswith("diffcore.op.")
        add(r, f"{name}.calls", 1.0)
        add(r, f"{name}_s" if is_op else f"{name}.s", dur[i])
        add(r, f"self_s.{name.split('.', 1)[0]}", self_t[i])
        if is_op:
            add(r, "diffcore.kernel_s", dur[i])
            if name.split(".")[2] in LOSS_OPS:
                add(r, "loss.kernel_s", dur[i])
        if name in ("bench.setup", "bench.unit"):
            add(r, "traced_s", dur[i])
        if tracer.parent[i] >= 0:
            children.setdefault(tracer.parent[i], []).append(i)
    for (r, key), value in tracer.extra.items():
        add(r, key, value)

    eval_epochs: list[float] = []
    for i, name in enumerate(names):
        r = tracer.run[i]
        if r not in per_rep:
            continue
        kids = children.get(i, [])
        if name == "trainer.wrf_step":
            passes = [k for k in kids if names[k] == "model.loss_and_grads"]
            build = sum(dur[k] for k in kids if names[k] in ("perturb.adversarial", "perturb.random"))
            apply_s = sum(dur[k] for k in kids if names[k] == "perturb.apply")
            theta = dur[passes[0]] if passes else 0.0
            perturbed = sum(dur[k] for k in passes[1:])
            add(r, "trainer.phase.pass_theta_s", theta)
            add(r, "trainer.phase.perturb_build_s", build)
            add(r, "trainer.phase.apply_s", apply_s)
            add(r, "trainer.phase.pass_perturbed_s", perturbed)
            add(r, "trainer.phase.update_s", dur[i] - theta - build - apply_s - perturbed)
        elif name == "trainer.train":
            # An eval epoch is a gallery embedding followed by the split
            # embeddings and reports, up to the next other call.
            group = None
            for k in kids:
                if names[k] == "model.embed_targets":
                    if group is not None:
                        eval_epochs.append(group)
                    group = dur[k]
                elif group is not None and names[k] in ("model.embed_queries", "evalkit.recall_report"):
                    group += dur[k]
                elif group is not None:
                    eval_epochs.append(group)
                    group = None
            if group is not None:
                eval_epochs.append(group)

    for rep in reps:
        row = per_rep[rep["run_id"]]
        row["diffcore.forward.calls"] = float(rep["passes"]["forward"])
        row["diffcore.backward.calls"] = float(rep["passes"]["backward"])
        if rep["epoch_seconds"]:
            steps_s = row.get("trainer.wrf_step.s", 0.0) + row.get("trainer.baseline_step.s", 0.0)
            row["trainer.batch_wait_s"] = rep["epoch_seconds"] - steps_s
        row["run_s.traced"] = rep["unit_s"]
        row["unattributed_s"] = row.pop("self_s.bench", 0.0)
        passes_s = row.get("diffcore.forward.s", 0.0) + row.get("diffcore.backward.s", 0.0)
        row["diffcore.overhead_s"] = passes_s - row.get("diffcore.kernel_s", 0.0)

    out: dict[str, float] = {}
    for key in sorted(set().union(*per_rep.values())):
        values = [row.get(key, 0.0) for row in per_rep.values()]
        if (key.endswith(".calls") or key == "evalkit.score_matrices") and len(set(values)) > 1:
            note(f"count {key} differs between repetitions: {values}")
        out[key] = sum(values) / len(values)
    passes_s = out.get("diffcore.forward.s", 0.0) + out.get("diffcore.backward.s", 0.0)
    out["diffcore.overhead_share"] = out["diffcore.overhead_s"] / passes_s if passes_s else 0.0
    out["model.self_s"] = out.get("self_s.model", 0.0)
    if eval_epochs:
        out["trainer.eval_s.p50"] = percentile(eval_epochs, 50)
        out["trainer.eval_s.p90"] = percentile(eval_epochs, 90)
    return out


def derived_from(metric: str, span_names) -> bool:
    """True when ``metric`` is one of the span's own metrics."""
    return any(metric.startswith((f"{s}.", f"{s}_")) for s in span_names)
