"""Query-to-target contrastive loss for batch retrieval training.

For a batch of B (query, target) embedding pairs the loss is the mean
cross-entropy of classifying each query's own target against the other
targets in the batch, with logits tau * <u_i, v_j>. Rows are expected
to be unit-normalized; the temperature is a fixed constant rather than
a learned parameter.
"""

from __future__ import annotations

import numpy as np

from .diffcore import Graph
from .errors import ConfigError


def attach_q2t_loss(graph: Graph, query_node: int, target_node: int, tau: float) -> int:
    """Append the contrastive loss to a graph; returns the scalar loss node.

    The embedding nodes should already be row-normalized (l2norm_rows);
    the softmax cross-entropy op handles stabilization itself.
    """
    tau = float(tau)
    if not (np.isfinite(tau) and tau > 0.0):
        raise ConfigError(f"temperature must be positive and finite, got {tau}")
    scores = graph.pairwise_dot(query_node, target_node)
    return graph.softmax_xent(graph.scalar_mul(scores, tau))
