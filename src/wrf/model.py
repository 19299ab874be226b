"""Toy composed-retrieval model.

Two branches share an embedding space: a fusion MLP maps the
concatenation of a reference vector and a modification embedding to a
query embedding, and a single linear projection maps candidate target
vectors into the same space. Both outputs are row-normalized, so
retrieval is by dot product.

Each RetrievalModel holds one graph: the query branch, then the target
branch, then one contrastive loss head per temperature, appended on
first use. An embedding pass runs the graph to its branch's output and
so needs only that branch's inputs; a loss pass takes one TripletBatch,
whose field names are the graph's input leaves, and runs it to the head.
The loss head is the mean cross-entropy of each query's own target
among the batch's targets, with logits tau * <u_i, v_j> and a fixed tau.

An optional low-rank adapter mode freezes every weight matrix and
trains factor pairs on the fusion layers instead: the effective weight
is W + A·B with A seeded-random (in x rank) and B zero-initialized
(rank x out), so at step zero the adapted model equals the base model.
RetrievalModel.init_params adds the adapters to init_model's weights.
RetrievalModel alone checks finetune_mode and lora_rank: lora needs a
rank of 1 up to each fusion layer's smaller dim, full a rank of 0 or None.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import Executor, Graph
from .errors import ConfigError
from .params import ParameterSet
from .synthcir import TripletBatch

# Seed stream tags, distinct across modules so an equal integer seed
# never aliases two different random draws.
_INIT_TAG = 0x11
_LORA_TAG = 0x12

ACTIVATIONS = ("tanh", "relu")
MODES = ("full", "lora")


@dataclass(frozen=True)
class ModelConfig:
    d_ref: int = 32
    d_mod: int = 8
    hidden: tuple[int, ...] = (64, 64)
    d_out: int = 16
    activation: str = "tanh"
    init_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        dims = (self.d_ref, self.d_mod, self.d_out, *self.hidden)
        if any(d < 1 for d in dims):
            raise ConfigError(f"all dimensions must be >= 1, got {dims}")
        if not (np.isfinite(self.init_scale) and self.init_scale > 0):
            raise ConfigError(f"init_scale must be positive, got {self.init_scale}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def fusion_dims(config: ModelConfig) -> list[int]:
    return [config.d_ref + config.d_mod, *config.hidden, config.d_out]


def init_model(config: ModelConfig) -> ParameterSet:
    """Seeded uniform init in [-s/sqrt(fan_in), s/sqrt(fan_in)], zero biases."""
    rng = np.random.default_rng([_INIT_TAG, config.seed])
    layers: dict[str, np.ndarray] = {}
    dims = fusion_dims(config)
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        bound = config.init_scale / np.sqrt(fan_in)
        layers[f"fusion.{i}.w"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        layers[f"fusion.{i}.b"] = np.zeros(fan_out)
    bound = config.init_scale / np.sqrt(config.d_ref)
    layers["target.w"] = rng.uniform(-bound, bound, size=(config.d_ref, config.d_out))
    layers["target.b"] = np.zeros(config.d_out)
    return ParameterSet(layers)


def _fusion_weight_node(graph: Graph, stem: str, mode: str) -> int:
    w = graph.param(f"{stem}.w")
    if mode == "lora":
        adapter = graph.matmul(graph.param(f"{stem}.lora_a"), graph.param(f"{stem}.lora_b"))
        return graph.add(w, adapter)
    return w


def _append_query_branch(g: Graph, config: ModelConfig, mode: str) -> int:
    x = g.row_concat(g.input("refs"), g.input("mods"))
    n_affine = len(config.hidden) + 1
    for i in range(n_affine):
        w = _fusion_weight_node(g, f"fusion.{i}", mode)
        x = g.bias_add(g.matmul(x, w), g.param(f"fusion.{i}.b"))
        if i < n_affine - 1:
            x = g.tanh(x) if config.activation == "tanh" else g.relu(x)
    return g.l2norm_rows(x)


def _append_target_branch(g: Graph) -> int:
    x = g.bias_add(g.matmul(g.input("targets"), g.param("target.w")), g.param("target.b"))
    return g.l2norm_rows(x)


def attach_q2t_loss(graph: Graph, query_node: int, target_node: int, tau: float) -> int:
    """Append the contrastive loss over two row-normalized embedding nodes;
    returns the scalar loss node. softmax_xent stabilizes itself."""
    scores = graph.pairwise_dot(query_node, target_node)
    return graph.softmax_xent(graph.scalar_mul(scores, tau))


@dataclass
class RetrievalModel:
    """Owns the graph for one (config, mode) pair and runs it."""

    config: ModelConfig
    mode: str = "full"
    lora_rank: int | None = None

    def __post_init__(self):
        rank = self.lora_rank or 0  # errors name the config keys, as the CLI shows them
        if self.mode not in MODES:
            raise ConfigError(f"finetune_mode must be one of {MODES}, got {self.mode!r}")
        if rank < 0:
            raise ConfigError(f"lora_rank must be >= 0, got {rank}")
        if self.mode == "full" and rank:
            raise ConfigError(f"lora_rank must be 0 unless finetune_mode=lora, got {rank}")
        if self.mode == "lora" and rank < 1:
            raise ConfigError("lora mode needs lora_rank >= 1")
        dims = fusion_dims(self.config)
        for i, shape in enumerate(zip(dims[:-1], dims[1:])):
            if rank > min(shape):  # never in full mode, whose rank is 0
                raise ConfigError(f"rank {rank} exceeds min dim of "
                                  f"'fusion.{i}.w' with shape {shape}")
        self._graph, self._losses = Graph(), {}
        self._query_out = _append_query_branch(self._graph, self.config, self.mode)
        self._target_out = _append_target_branch(self._graph)

    def init_params(self) -> ParameterSet:
        """init_model's set, all trainable (full), or with the weight matrices
        frozen and an adapter pair lora_a (seeded), lora_b (zeros) after each
        fusion weight (lora), which trains the adapters and biases."""
        base = init_model(self.config)
        if self.mode == "full":
            return base
        rank = int(self.lora_rank)
        rng = np.random.default_rng([_LORA_TAG, self.config.seed])
        layers: dict[str, np.ndarray] = {}
        trainable: list[str] = []
        for name, arr in base.items():
            layers[name] = arr
            if name.startswith("fusion.") and name.endswith(".w"):
                n_in, n_out = arr.shape
                stem = name[: -len(".w")]
                bound = self.config.init_scale / np.sqrt(n_in)
                layers[f"{stem}.lora_a"] = rng.uniform(-bound, bound, size=(n_in, rank))
                layers[f"{stem}.lora_b"] = np.zeros((rank, n_out))
                trainable += [f"{stem}.lora_a", f"{stem}.lora_b"]
            elif name.endswith(".b"):
                trainable.append(name)
        return ParameterSet(layers, trainable)

    def embed_queries(self, params: ParameterSet, refs: np.ndarray, mods: np.ndarray) -> np.ndarray:
        return Executor(self._graph).forward(dict(refs=refs, mods=mods), params, self._query_out)

    def embed_targets(self, params: ParameterSet, targets: np.ndarray) -> np.ndarray:
        return Executor(self._graph).forward({"targets": targets}, params, self._target_out)

    def _loss_node(self, tau: float) -> int:
        """The loss head for tau over both branches, appended once."""
        key = float(tau)
        if key not in self._losses:
            self._losses[key] = attach_q2t_loss(self._graph, self._query_out, self._target_out, key)
        return self._losses[key]

    def batch_loss(self, params: ParameterSet, batch: TripletBatch, tau: float) -> float:
        return float(Executor(self._graph).forward(batch._asdict(), params, self._loss_node(tau)))

    def loss_and_grads(
        self, params: ParameterSet, batch: TripletBatch, tau: float
    ) -> tuple[float, np.ndarray]:
        ex = Executor(self._graph)
        return float(ex.forward(batch._asdict(), params, self._loss_node(tau))), ex.backward()
