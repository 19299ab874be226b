"""Reference forms the tests check the package against.

Each function here is the plain, full-materialization version of
something the package computes a cheaper way: a full gallery sort for
the rank-of-target counting in ``wrf.evalkit`` and for the nearest
neighbour subsets in ``wrf.synthcir``, a redraw of the edit maps that
``wrf.synthcir.generate`` does not keep, a replay of its gallery through
one per-row gather of those maps, the contrastive loss on plain
arrays for the graph form in ``wrf.model``, a node-by-node executor
without backward pruning for ``wrf.diffcore.Executor``, the softmax
cross-entropy kernel pair that forms the probabilities in forward, the
l2norm_rows pair in its np.where form only, and one forward plus one
backward through a graph's final node. The layer-by-layer forms of the
optimizer updates, the perturbation build and its apply are the
references for the package's single operations on ``ParameterSet.flat``.

It also holds the small helpers only tests use: pass-count deltas,
packing a per-layer dict into a buffer laid out like ``ParameterSet.flat``,
bit-for-bit parameter equality, sharpness under a perturbation and the
CIRR-style average of two recalls.
"""

import numpy as np

from wrf import diffcore
from wrf.diffcore import Executor, Graph
from wrf.errors import ConfigError, DataError, NumericError, ShapeError
from wrf.evalkit import MetricReport
from wrf.params import ParameterSet
from wrf.perturb import ZERO_NORM_EPS, apply_perturbation
from wrf.synthcir import DatasetConfig

# How far a row norm may drift from 1 before contrastive_q2t rejects it.
UNIT_NORM_ATOL = 1e-6


def rank_gallery(queries: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """(Q, G) gallery indices per query, best first; ties by ascending index."""
    if queries.ndim != 2 or gallery.ndim != 2 or queries.shape[1] != gallery.shape[1]:
        raise ShapeError(f"embedding dims do not match: {queries.shape} vs {gallery.shape}")
    scores = queries @ gallery.T
    return np.argsort(-scores, axis=1, kind="stable")


def target_ranks_by_sort(queries, gallery, targets, subsets=None):
    """Rank of each target in the full sorted gallery, and within its subset."""
    rankings = rank_gallery(queries, gallery)
    targets = np.asarray(targets)
    ranks = 1 + np.argmax(rankings == targets[:, None], axis=1)
    if subsets is None:
        return ranks
    sub_ranks = np.array([
        1 + [g for g in row if g in set(members.tolist())].index(t)
        for row, members, t in zip(rankings, subsets, targets)
    ])
    return ranks, sub_ranks


def edit_maps(config: DatasetConfig) -> np.ndarray:
    """The (n_mods, d_ref, d_ref) edit maps of generate(config).

    They are the first draw of the dataset's [0x41, seed] stream, with
    each column scaled to unit norm.
    """
    rng = np.random.default_rng([0x41, config.seed])
    maps = rng.standard_normal((config.n_mods, config.d_ref, config.d_ref))
    return maps / np.linalg.norm(maps, axis=1, keepdims=True)


def gallery_by_gather(config: DatasetConfig) -> np.ndarray:
    """The gallery of generate(config), its targets edited through maps[codes].

    Replays the dataset's [0x41, seed] stream (edit maps, mod embeddings,
    references, codes, noise), applies each row's map from one
    (gallery_size, d_ref, d_ref) gather of the maps, adds the noise and
    normalizes the rows.
    """
    rng = np.random.default_rng([0x41, config.seed])
    total, d, m = config.gallery_size, config.d_ref, config.n_mods
    maps = rng.standard_normal((m, d, d))
    maps = maps / np.linalg.norm(maps, axis=1, keepdims=True)
    rng.standard_normal((m, config.d_mod))  # the mod embeddings
    refs = rng.standard_normal((total, d))
    refs = refs / np.linalg.norm(refs, axis=1, keepdims=True)
    codes = rng.integers(0, m, size=total)
    noise = rng.standard_normal((total, d))
    raw = np.einsum("nij,nj->ni", maps[codes], refs) + config.noise_sigma * noise
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def nearest_subsets_by_sort(gallery: np.ndarray, targets: np.ndarray, subset_size: int) -> np.ndarray:
    """Target first, then the head of a full stable sort of its gallery scores."""
    scores = gallery[targets] @ gallery.T
    scores[np.arange(len(targets)), targets] = -np.inf
    order = np.argsort(-scores, axis=1, kind="stable")
    return np.concatenate(
        [targets[:, None], order[:, : subset_size - 1]], axis=1
    ).astype(np.uint32)


def softmax_xent_forward(i, logits):
    """Mean row cross-entropy against the diagonal; ctx holds the probabilities."""
    n, m = logits.shape
    if n != m:
        raise ShapeError(f"node {i} (softmax_xent): logits must be square, got {logits.shape}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=1, keepdims=True)
    lse = np.log(expd.sum(axis=1)) + logits.max(axis=1)
    loss = np.float64((lse - np.diag(logits)).mean())
    return loss, (probs, n)


def softmax_xent_backward(i, g, ctx):
    probs, n = ctx
    return ((probs - np.eye(n)) * (float(g) / n),)


def l2norm_rows_forward(i, x):
    """Unit rows; rows with norm <= NORM_EPS map to 0, through np.where always."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    safe = norms > diffcore.NORM_EPS
    y = np.where(safe, x / np.where(safe, norms, 1.0), 0.0)
    return y, (y, norms, safe)


def l2norm_rows_backward(i, g, ctx):
    y, norms, safe = ctx
    inner = (g * y).sum(axis=1, keepdims=True)
    return (np.where(safe, (g - inner * y) / np.where(safe, norms, 1.0), 0.0),)


def sgd_per_layer(params: ParameterSet, grads, lr: float) -> None:
    """theta_l -= lr * g_l, one layer at a time."""
    for name in params.trainable_names:
        arr = params[name]
        arr -= lr * grads[name]


def adamw_per_layer(params: ParameterSet, moments: dict, grads, lr: float, config) -> None:
    """One AdamW step, one layer at a time; moments holds m, v (per-layer
    dicts, created on the first call) and t."""
    if "m" not in moments:
        moments["m"] = {n: np.zeros_like(params[n]) for n in params.trainable_names}
        moments["v"] = {n: np.zeros_like(params[n]) for n in params.trainable_names}
        moments["t"] = 0
    moments["t"] += 1
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1 ** moments["t"]
    bc2 = 1.0 - b2 ** moments["t"]
    m, v = moments["m"], moments["v"]
    for name in params.trainable_names:
        g = grads[name]
        m[name] = b1 * m[name] + (1.0 - b1) * g
        v[name] = b2 * v[name] + (1.0 - b2) * g * g
        m_hat = m[name] / bc1
        v_hat = v[name] / bc2
        arr = params[name]
        arr -= lr * (m_hat / (np.sqrt(v_hat) + config.eps) + config.weight_decay * arr)


def random_directions_per_layer(params: ParameterSet, rng: np.random.Generator) -> dict:
    """One standard normal draw per trainable layer, in trainable order."""
    return {n: rng.standard_normal(params[n].shape) for n in params.trainable_names}


def build_per_layer(params: ParameterSet, raw, gamma: float) -> dict:
    """delta_l = raw_l * (gamma * ||theta_l|| / ||raw_l||), zeros where a norm
    is below ZERO_NORM_EPS or gamma is 0."""
    deltas = {}
    for name in params.trainable_names:
        w_norm = float(np.linalg.norm(params[name]))
        direction = raw[name]
        d_norm = float(np.linalg.norm(direction))
        if gamma == 0.0 or d_norm < ZERO_NORM_EPS or w_norm < ZERO_NORM_EPS:
            deltas[name] = np.zeros_like(params[name])
        else:
            deltas[name] = direction * (gamma * w_norm / d_norm)
    return deltas


def apply_per_layer(params: ParameterSet, deltas) -> ParameterSet:
    """A copy of params with each delta added to its layer."""
    out = params.copy()
    for name, delta in deltas.items():
        arr = out[name]
        arr += delta
    return out


class NodeByNodeExecutor:
    """Walks the graph's node list up to the output on every pass, kernels
    from ``diffcore._OPS``.

    Same interface as ``Executor`` for forward and backward; it does no
    pass counting, checks every node it walks, and backpropagates through
    every node, reachable from a trainable parameter or not.
    """

    def __init__(self, graph: Graph):
        self.graph = graph

    def forward(self, inputs, params, output):
        """Every node up to output, needed by it or not."""
        nodes = self.graph.nodes[: output + 1]
        values: list = [None] * len(nodes)
        ctxs: list = [None] * len(nodes)
        for i, node in enumerate(nodes):
            if node.op == "input":
                values[i] = np.asarray(inputs[node.arg], dtype=np.float64)
                continue
            if node.op == "param":
                values[i] = params[node.arg]
                continue
            args = [values[j] for j in node.inputs]
            if node.op == "scalar_mul":
                args.append(node.arg)
            with np.errstate(over="ignore", invalid="ignore"):
                out, ctx = diffcore._OPS[node.op].forward(i, *args)
            if not np.all(np.isfinite(out)):
                raise NumericError(f"node {i} ({node.op}) produced non-finite values")
            values[i], ctxs[i] = out, ctx
        self._values, self._ctx, self._params, self._output = values, ctxs, params, output
        return values[output]

    def backward(self):
        """Per-layer gradient dict of forward's output, every trainable layer present."""
        nodes = self.graph.nodes
        adjoints: list = [None] * len(self._values)
        adjoints[self._output] = np.ones_like(self._values[self._output])
        params = self._params
        grads = {}
        for i in range(self._output, -1, -1):
            g = adjoints[i]
            node = nodes[i]
            if g is None or node.op == "input":
                continue
            if node.op == "param":
                if node.arg in params.trainable_names:
                    grads[node.arg] = np.array(g, dtype=np.float64)
                continue
            in_grads = diffcore._OPS[node.op].backward(i, g, self._ctx[i])
            for j, gj in zip(node.inputs, in_grads):
                if adjoints[j] is None:
                    adjoints[j] = gj.copy() if isinstance(gj, np.ndarray) else np.asarray(gj)
                else:
                    adjoints[j] = adjoints[j] + gj
        for name in params.trainable_names:
            if name not in grads:
                grads[name] = np.zeros_like(params[name])
        return grads


def recall_at_k(rankings: np.ndarray, targets: np.ndarray, k: int) -> float:
    if k < 1:
        raise ConfigError(f"K must be >= 1, got {k}")
    if k > rankings.shape[1]:
        raise ConfigError(f"K={k} exceeds gallery size {rankings.shape[1]}")
    hits = (rankings[:, :k] == np.asarray(targets)[:, None]).any(axis=1)
    return float(100.0 * hits.mean())


def recall_subset_at_k(
    rankings: np.ndarray, subsets: np.ndarray, targets: np.ndarray, k: int
) -> float:
    """Recall after restricting each query's ranking to its candidate subset."""
    if not (1 <= k <= subsets.shape[1]):
        raise ConfigError(f"K must lie in [1, subset_size], got {k}")
    targets = np.asarray(targets)
    if not (subsets == targets[:, None]).any(axis=1).all():
        raise DataError("a candidate subset is missing its query's target")
    q, g = rankings.shape
    inv = np.empty_like(rankings)
    np.put_along_axis(inv, rankings, np.broadcast_to(np.arange(g), (q, g)), axis=1)
    member_pos = np.take_along_axis(inv, subsets.astype(np.int64), axis=1)
    target_pos = np.take_along_axis(inv, targets[:, None].astype(np.int64), axis=1)
    subset_rank = 1 + (member_pos < target_pos).sum(axis=1)
    return float(100.0 * (subset_rank <= k).mean())


def contrastive_q2t(queries: np.ndarray, targets: np.ndarray, tau: float = 10.0) -> float:
    """Contrastive loss on plain arrays.

    queries, targets: (B, d) with unit rows, B >= 2. Stabilized with the
    row-max trick so large tau stays finite.
    """
    tau = float(tau)
    if not (np.isfinite(tau) and tau > 0.0):
        raise ConfigError(f"temperature must be positive and finite, got {tau}")
    u = np.asarray(queries, dtype=np.float64)
    v = np.asarray(targets, dtype=np.float64)
    if u.ndim != 2 or v.ndim != 2 or u.shape != v.shape:
        raise ShapeError(f"expected matching (B, d) embeddings, got {u.shape} and {v.shape}")
    if u.shape[0] < 2:
        raise ValueError("contrastive loss needs a batch of at least two pairs")
    for role, mat in (("query", u), ("target", v)):
        norms = np.linalg.norm(mat, axis=1)
        drift = np.abs(norms - 1.0).max()
        if drift > UNIT_NORM_ATOL:
            raise ValueError(f"{role} rows are not unit-normalized (max drift {drift:.3e})")
    logits = tau * (u @ v.T)
    row_max = logits.max(axis=1)
    lse = row_max + np.log(np.exp(logits - row_max[:, None]).sum(axis=1))
    return float((lse - np.diag(logits)).mean())


def value_and_grad(
    graph: Graph, inputs: dict[str, np.ndarray], params: ParameterSet
) -> tuple[float, np.ndarray]:
    """One forward plus one backward through the final (scalar) node; the
    gradient is laid out like params.flat."""
    ex = Executor(graph)
    loss = ex.forward(inputs, params, len(graph.nodes) - 1)
    return float(np.ravel(loss)[0]), ex.backward()


def pack(params: ParameterSet, layers) -> np.ndarray:
    """A per-layer dict (every trainable layer) as one buffer laid out like params.flat."""
    return np.concatenate([np.ravel(layers[n]) for n in params.trainable_names], dtype=np.float64)


def pass_count_delta(before: dict[str, int]) -> dict[str, int]:
    """Forward/backward passes since ``before = diffcore.pass_counts()``."""
    now = diffcore.pass_counts()
    return {kind: now[kind] - before[kind] for kind in now}


def equal_bits(a: ParameterSet, b: ParameterSet) -> bool:
    """True when both sets hold bit-identical tensors in the same order."""
    if a.names != b.names:
        return False
    return all(np.array_equal(a[n], b[n]) for n in a.names)


def sharpness(loss_fn, params: ParameterSet, delta: np.ndarray) -> float:
    """Loss increase under a perturbation: L(theta+delta) - L(theta)."""
    return loss_fn(apply_perturbation(params, delta)) - loss_fn(params)


def cirr_avg(report: MetricReport) -> float:
    """Mean of Recall@5 and Recall_subset@1."""
    if 5 not in report.recall_at:
        raise ConfigError("report lacks Recall@5")
    return (report.recall_at[5] + report.rsubset_at_1) / 2.0


def landscape_direction_by_loop(params: ParameterSet, seed: int, d_id: int) -> dict[str, np.ndarray]:
    """One landscape direction drawn and rescaled layer by layer, as
    ``wrf.evalkit.landscape_probe`` did before it took its directions
    from ``random_perturbation``."""
    rng = np.random.default_rng([0x51, seed, d_id])
    direction = {}
    for name in params.trainable_names:
        raw = rng.standard_normal(params[name].shape)
        w_norm = float(np.linalg.norm(params[name]))
        r_norm = float(np.linalg.norm(raw))
        if w_norm < 1e-12 or r_norm < 1e-12:
            direction[name] = np.zeros_like(raw)
        else:
            direction[name] = raw * (w_norm / r_norm)
    return direction
