"""Weight-perturbed fine-tuning on a synthetic composed-retrieval task.

The package is organized bottom-up:

- diffcore: reverse-mode autodiff over a fixed ten-op set, backward pruned
  to the trainable layers
- params / checkpoint: named float64 tensors and their binary format
- model: fusion MLP + target projection, optional low-rank adapters, and
  the query-to-target contrastive loss head, all in one graph
- perturb: adversarial / random weight perturbations with per-layer budgets
- trainer: SGD / AdamW loops with the two-pass perturbed update; each
  epoch is committed once the next one has trained
- synthcir: seeded synthetic retrieval datasets and the batches built from them
- evalkit: recall metrics, loss-landscape probes along random perturbations
- worker: the forked worker that evaluates epochs and probes directions
- cli: train / sweep / landscape / selfcheck commands; __main__ runs it
  with one BLAS thread unless the environment sets one

A value is checked once, where it enters (a config, a CLI flag or a file
it reads), and the functions below trust their callers: below the entry
points a check exists only where a misuse or an overflow would otherwise
give a wrong number without an error (the README's "Tests" lists them).
"""

__version__ = "0.1.0"
