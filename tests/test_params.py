"""ParameterSet construction, ordering, copying, and validation."""

import pickle

import numpy as np
import pytest

from wrf.errors import ConfigError, NumericError
from wrf.params import ParameterSet
from wrf.perturb import adversarial_perturbation, apply_perturbation

from oracles import equal_bits


def test_iteration_order_is_insertion_order():
    ps = ParameterSet({"z": np.ones(2), "a": np.ones(3), "m": np.ones(1)})
    assert ps.names == ("z", "a", "m")


def test_arrays_are_copied_in_and_cast_to_float64():
    src = np.array([1, 2, 3], dtype=np.int32)
    ps = ParameterSet({"w": src})
    src[0] = 99
    assert ps["w"].dtype == np.float64
    assert ps["w"][0] == 1.0


def test_copy_is_deep():
    ps = ParameterSet(
        {"w": np.ones((2, 3)), "b": np.arange(3.0), "s": np.float64(2.5)}, trainable=["b", "s"]
    )
    dup = ps.copy()
    assert equal_bits(dup, ps)
    assert dup.trainable_names == ps.trainable_names
    assert "w" not in dup.trainable_names
    for name in ps.names:
        assert not np.shares_memory(dup[name], ps[name]), name
        assert dup[name].dtype == np.float64 and dup[name].shape == ps[name].shape
    dup["w"][0, 0] = 7.0
    dup["s"][...] = 3.0
    assert ps["w"][0, 0] == 1.0 and ps["s"] == 2.5


def test_require_finite_names_the_first_nonfinite_layer():
    # The constructor requires finite values; nothing after it checks them.
    ps = ParameterSet({"a": np.ones(2), "b": np.ones(3), "c": np.ones(1)})
    ps["b"][1] = np.nan  # in-place updates are not checked
    ps["c"][0] = np.inf
    dup = ps.copy()  # nor is a copy: it hands the set on as it is
    assert np.isnan(dup["b"][1])
    for s in (ps, dup):
        with pytest.raises(NumericError, match="layer 'b' has non-finite entries"):
            ParameterSet(dict(s.items()))


def test_trainable_subset_preserves_layer_order():
    ps = ParameterSet(
        {"a": np.ones(1), "b": np.ones(1), "c": np.ones(1)}, trainable=["c", "a"]
    )
    assert ps.trainable_names == ("a", "c")
    assert "a" in ps.trainable_names and "b" not in ps.trainable_names


def test_rejects_nonfinite_and_empty_and_unknown_trainable():
    with pytest.raises(NumericError):
        ParameterSet({"w": np.array([1.0, np.inf])})
    with pytest.raises(ConfigError):
        ParameterSet({})
    with pytest.raises(ConfigError):
        ParameterSet({"w": np.ones(1)}, trainable=["nope"])
    with pytest.raises(ConfigError):
        ParameterSet({"w": np.ones(1)}, trainable=[])


def test_equal_bits_detects_any_difference():
    ps = ParameterSet({"w": np.array([1.0, 2.0])})
    same = ps.copy()
    assert equal_bits(ps, same)
    same["w"][1] = np.nextafter(2.0, 3.0)
    assert not equal_bits(ps, same)


def lora_like_set():
    """Frozen and trainable layers interleaved, as in lora mode."""
    return ParameterSet(
        {"w0": np.ones((2, 3)), "a0": np.full((2, 1), 2.0), "b0": np.full((1, 3), 3.0),
         "bias": np.arange(3.0), "w1": np.full((3, 2), 4.0), "s": np.float64(5.0)},
        trainable=["a0", "b0", "bias", "s"],
    )


def test_a_gradient_or_delta_not_laid_out_like_flat_names_both_shapes():
    ps = lora_like_set()
    ps.check_flat(np.zeros(9), "gradient")
    with pytest.raises(ConfigError, match=r"^gradient has shape \(21,\), expected \(9,\)$"):
        adversarial_perturbation(ps, np.zeros(21), gamma=0.1)  # flat and frozen together
    with pytest.raises(ConfigError, match=r"^perturbation has shape \(3, 3\), expected \(9,\)$"):
        apply_perturbation(ps, np.zeros((3, 3)))
    with pytest.raises(ConfigError, match=r"^perturbation has shape \(1,\), expected \(9,\)$"):
        apply_perturbation(ps, np.zeros(1))  # would broadcast


def test_a_nonfinite_gradient_names_its_layer():
    ps = lora_like_set()
    grad = np.ones(ps.flat.size)
    grad[[6, 8]] = [np.inf, np.nan]  # in "bias" and "s"
    with pytest.raises(NumericError, match="^gradient for layer 'bias' has non-finite entries$"):
        adversarial_perturbation(ps, grad, gamma=0.1)


def test_layers_are_views_of_the_two_buffers():
    ps = lora_like_set()
    assert ps.flat.shape == (2 + 3 + 3 + 1,) and ps.frozen.shape == (6 + 6,)
    for name in ps.names:
        buf = ps.flat if name in ps.trainable_names else ps.frozen
        assert np.shares_memory(ps[name], buf), name
    # trainable layers sit in trainable order in flat, frozen ones in insertion order
    assert ps.flat.tolist() == [2.0, 2.0, 3.0, 3.0, 3.0, 0.0, 1.0, 2.0, 5.0]
    assert ps.frozen.tolist() == [1.0] * 6 + [4.0] * 6
    assert [s[:3] for s in ps.spans] == [("a0", 0, 2), ("b0", 2, 5), ("bias", 5, 8), ("s", 8, 9)]
    ps.flat[5] = -1.0
    ps["w1"][0, 0] = -4.0
    assert ps["bias"][0] == -1.0 and ps.frozen[6] == -4.0


def test_copy_is_independent_of_its_source():
    ps = lora_like_set()
    dup = ps.copy()
    assert dup.names == ps.names and dup.spans == ps.spans
    assert not np.shares_memory(dup.flat, ps.flat)
    assert not np.shares_memory(dup.frozen, ps.frozen)
    assert all(np.shares_memory(dup[n], dup.flat if n in dup.trainable_names else dup.frozen)
               for n in dup.names)
    dup.flat += 1.0
    dup.frozen[...] = 0.0
    assert equal_bits(ps, lora_like_set())
    ps["bias"][...] = 7.0
    assert dup["bias"].tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize(
    "bad, named", [(("b0", "w1"), "b0"), (("w1", "s"), "w1"), (("w0", "a0"), "w0")],
)
def test_require_finite_names_the_first_layer_in_insertion_order_across_buffers(bad, named):
    ps = lora_like_set()
    for name in bad:
        ps[name].flat[-1] = np.inf if name == bad[0] else np.nan
    with pytest.raises(NumericError, match=f"layer '{named}' has non-finite entries"):
        ParameterSet(dict(ps.items()), trainable=ps.trainable_names)


def test_pickle_round_trip_keeps_the_aliasing():
    ps = lora_like_set()
    fn, args = ps.__reduce__()
    assert args[1] is ps.flat and args[2] is ps.frozen  # the buffers, not one array per layer
    back = pickle.loads(pickle.dumps(ps))
    assert equal_bits(back, ps)
    assert back.trainable_names == ps.trainable_names and back.spans == ps.spans
    for name in back.names:
        assert np.shares_memory(back[name], back.flat if name in back.trainable_names
                                else back.frozen), name
    back.flat[...] = 0.0
    assert not back["a0"].any() and ps["a0"].all()
