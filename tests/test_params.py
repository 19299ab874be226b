"""ParameterSet construction, ordering, copying, and validation."""

import numpy as np
import pytest

from wrf.errors import ConfigError, NumericError
from wrf.params import ParameterSet, check_gradient_keys

from oracles import equal_bits


def test_iteration_order_is_insertion_order():
    ps = ParameterSet({"z": np.ones(2), "a": np.ones(3), "m": np.ones(1)})
    assert ps.names == ("z", "a", "m")
    assert list(ps) == ["z", "a", "m"]


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
    ps = ParameterSet({"a": np.ones(2), "b": np.ones(3), "c": np.ones(1)})
    ps.require_finite()
    ps["b"][1] = np.nan  # in-place updates are not checked
    ps["c"][0] = np.inf
    dup = ps.copy()  # nor is a copy: it hands the set on as it is
    assert np.isnan(dup["b"][1])
    for s in (ps, dup):
        with pytest.raises(NumericError, match="layer 'b' has non-finite entries"):
            s.require_finite()


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


def test_check_gradient_keys_contract():
    ps = ParameterSet({"a": np.ones((2, 2)), "b": np.ones(3)}, trainable=["a"])
    check_gradient_keys(ps, {"a": np.zeros((2, 2))})
    with pytest.raises(ConfigError):
        check_gradient_keys(ps, {"a": np.zeros((2, 2)), "b": np.zeros(3)})
    with pytest.raises(ConfigError):
        check_gradient_keys(ps, {"a": np.zeros((2, 3))})
