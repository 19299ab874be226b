"""The flat-buffer step against its layer-by-layer reference forms.

The optimizer updates, the perturbation build and its apply run as
single operations on ``ParameterSet.flat`` and on gradients and deltas
laid out like it; ``oracles`` keeps the layer-by-layer forms, which
take per-layer dicts. Whole trajectories must match them byte for byte.
"""

import numpy as np
import pytest

from wrf.model import ModelConfig, RetrievalModel
from wrf.params import ParameterSet, carve
from wrf.perturb import (
    adversarial_perturbation,
    apply_perturbation,
    choose_kind,
    random_perturbation,
)
from wrf.trainer import (
    RetrievalObjective,
    TrainConfig,
    TripletBatch,
    baseline_step,
    current_lr,
    new_train_state,
    wrf_step,
    wrf_step_literal_sgd,
)

from oracles import (
    adamw_per_layer,
    apply_per_layer,
    build_per_layer,
    pack,
    random_directions_per_layer,
    sgd_per_layer,
)

STEPS = 320
WARMUP_STEPS = 20  # baseline steps before the two-pass ones
EPOCH_STEPS = 32  # steps per epoch of the cosine schedule


def set_bytes(ps: ParameterSet) -> bytes:
    return b"".join(ps[n].tobytes() for n in ps.names)


def layer_bytes(arrays: dict, names) -> bytes:
    return b"".join(arrays[n].tobytes() for n in names)


def make_case(mode: str, optimizer: str):
    activation = "relu" if mode == "full" else "tanh"
    model = RetrievalModel(
        ModelConfig(d_ref=6, d_mod=3, hidden=(8,), d_out=4, activation=activation, seed=3),
        mode=mode, lora_rank=2 if mode == "lora" else None,
    )
    config = TrainConfig(
        gamma=0.05, rho=0.5, eta0=0.05 if optimizer == "sgd" else 0.01, optimizer=optimizer,
        total_epochs=STEPS // EPOCH_STEPS, warmup_epochs=0, seed=11, weight_decay=0.05,
    )
    rng = np.random.default_rng(5)
    batches = []
    for _ in range(8):
        targets = rng.normal(size=(6, 6))
        batches.append(TripletBatch(rng.normal(size=(6, 6)), rng.normal(size=(6, 3)),
                                    targets / np.linalg.norm(targets, axis=1, keepdims=True)))
    return model, config, RetrievalObjective(model, tau=5.0), batches


def reference_update(params, moments, grads, lr, config):
    if config.optimizer == "sgd":
        sgd_per_layer(params, grads, lr)
    else:
        adamw_per_layer(params, moments, grads, lr, config)


def reference_step(ref, moments, batch, config, objective, two_pass=True, literal=False):
    """baseline_step, wrf_step or wrf_step_literal_sgd from the oracle forms,
    on ref (a TrainState) and moments (adamw_per_layer's dict); each
    gradient is cut into per-layer views."""
    lr = current_lr(config, ref.epoch)
    loss, grad = objective.loss_and_grads(ref.params, batch)
    grads = carve(grad, ref.params.spans)
    if not two_pass:
        reference_update(ref.params, moments, grads, lr, config)
        return None, loss, None
    kind = choose_kind(config.rho, ref.rng_kind)
    if kind == "adversarial":
        raw = grads
    else:
        raw = random_directions_per_layer(ref.params, ref.rng_noise)
    deltas = build_per_layer(ref.params, raw, config.gamma)
    perturbed = apply_per_layer(ref.params, deltas)
    loss_p, grad_p = objective.loss_and_grads(perturbed, batch)
    grads_p = carve(grad_p, perturbed.spans)
    if literal:
        for name in perturbed.trainable_names:
            arr = perturbed[name]
            arr -= lr * grads_p[name]
            arr -= deltas[name]
        ref.params = perturbed
    else:
        reference_update(ref.params, moments, grads_p, lr, config)
    return kind, loss, loss_p


@pytest.mark.parametrize("optimizer", ["adamw", "sgd"])
@pytest.mark.parametrize("mode", ["full", "lora"])
def test_flat_trajectory_matches_the_per_layer_forms(mode, optimizer):
    model, config, objective, batches = make_case(mode, optimizer)
    state = new_train_state(config, model.init_params())
    ref, moments = new_train_state(config, model.init_params()), {}
    kinds = []
    for step in range(STEPS):
        state.epoch = ref.epoch = step // EPOCH_STEPS
        batch = batches[step % len(batches)]
        two_pass = step >= WARMUP_STEPS
        info = (wrf_step if two_pass else baseline_step)(state, batch, config, objective)
        kind, loss, loss_p = reference_step(ref, moments, batch, config, objective, two_pass)
        assert (info.kind, info.loss, info.loss_perturbed) == (kind, loss, loss_p), step
        assert set_bytes(state.params) == set_bytes(ref.params), step
        kinds.append(kind)
    assert kinds.count("adversarial") > 50 and kinds.count("random") > 50
    if optimizer == "adamw":
        names = state.params.trainable_names
        assert state.adam_t == moments["t"] == STEPS
        assert state.m.tobytes() == layer_bytes(moments["m"], names)
        assert state.v.tobytes() == layer_bytes(moments["v"], names)
    else:
        assert state.m is None and state.adam_t == 0
    if mode == "lora":  # the frozen base matrices never move
        assert state.params.frozen.tobytes() == model.init_params().frozen.tobytes()


@pytest.mark.parametrize("mode", ["full", "lora"])
def test_flat_literal_sgd_matches_the_per_layer_form(mode):
    model, config, objective, batches = make_case(mode, "sgd")
    state = new_train_state(config, model.init_params())
    ref = new_train_state(config, model.init_params())
    for step in range(STEPS):
        state.epoch = ref.epoch = step // EPOCH_STEPS
        batch = batches[step % len(batches)]
        info = wrf_step_literal_sgd(state, batch, config, objective)
        kind, loss, loss_p = reference_step(ref, None, batch, config, objective, literal=True)
        assert (info.kind, info.loss, info.loss_perturbed) == (kind, loss, loss_p), step
        assert set_bytes(state.params) == set_bytes(ref.params), step


def mixed_set(rng, scale=1.0):
    """Trainable and frozen layers interleaved, with a scalar and an empty layer."""
    layers = {
        "w0": rng.normal(size=(4, 3)) * scale,
        "a": rng.normal(size=(4, 2)) * scale,
        "s": np.float64(rng.normal() * scale),
        "w1": rng.normal(size=(2, 3)) * scale,
        "e": np.zeros((0, 3)),
        "b": rng.normal(size=5) * scale,
        "z": np.zeros(3),
    }
    return ParameterSet(layers, trainable=["a", "s", "e", "b", "z"])


@pytest.mark.parametrize("seed", range(20))
def test_one_flat_normal_draw_is_the_per_layer_draws(seed):
    ps = mixed_set(np.random.default_rng(seed))
    flat_rng, layer_rng = np.random.default_rng([9, seed]), np.random.default_rng([9, seed])
    flat = flat_rng.standard_normal(ps.flat.size)
    per_layer = random_directions_per_layer(ps, layer_rng)
    assert flat.tobytes() == layer_bytes(per_layer, ps.trainable_names)
    assert flat_rng.random() == layer_rng.random()  # both generators end in one state


@pytest.mark.parametrize("seed", range(20))
def test_perturbations_match_the_per_layer_build_and_apply(seed):
    rng = np.random.default_rng([0x7E, seed])
    ps = mixed_set(rng, scale=float(10.0 ** rng.uniform(-3, 3)))
    grads = {n: rng.normal(size=ps[n].shape) for n in ps.trainable_names}
    grads["b"] = np.zeros(5)  # a stationary layer gets an exact +0.0 delta
    names = ps.trainable_names
    for gamma in (0.0, float(10.0 ** rng.uniform(-4, 0))):
        delta = adversarial_perturbation(ps, pack(ps, grads), gamma)
        want = build_per_layer(ps, grads, gamma)
        assert delta.tobytes() == layer_bytes(want, names)
        assert set_bytes(apply_perturbation(ps, delta)) == set_bytes(apply_per_layer(ps, want))
        delta = random_perturbation(ps, gamma, np.random.default_rng([1, seed]))
        want = build_per_layer(ps, random_directions_per_layer(ps, np.random.default_rng([1, seed])),
                               gamma)
        assert delta.tobytes() == layer_bytes(want, names)
        assert set_bytes(apply_perturbation(ps, delta)) == set_bytes(apply_per_layer(ps, want))
        deltas = carve(delta, ps.spans)
        assert all(deltas[n].tobytes() == want[n].tobytes() for n in names)
