"""Weight-perturbed fine-tuning on a synthetic composed-retrieval task.

The package is organized bottom-up:

- diffcore: reverse-mode autodiff over a fixed ten-op set, backward pruned
  to the trainable layers
- params / checkpoint: named float64 tensors and their binary format
- model: fusion MLP + target projection, optional low-rank adapters
- loss: query-to-target contrastive objective
- perturb: adversarial / random weight perturbations with per-layer budgets
- trainer: SGD / AdamW loops with the two-pass perturbed update; each
  epoch is committed once the next one has trained
- synthcir: seeded synthetic retrieval datasets
- evalkit: recall metrics, loss-landscape probes along random perturbations
- worker: the forked worker that evaluates epochs and probes directions
- cli: train / sweep / landscape / selfcheck commands; __main__ runs it
  with one BLAS thread unless the environment sets one
"""

__version__ = "0.1.0"
