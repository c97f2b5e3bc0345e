"""Tests for the argument-validation helpers."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_binary_array,
    check_choice,
    check_in_range,
    check_positive,
    check_power_of_two,
    check_probability,
)


class TestCheckPositive:
    def test_accepts_positive_int(self):
        check_positive("x", 3)

    def test_accepts_positive_float(self):
        check_positive("x", 0.5)

    def test_rejects_zero_by_default(self):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0)

    def test_accepts_zero_when_allowed(self):
        check_positive("x", 0, allow_zero=True)

    def test_rejects_negative_even_when_zero_allowed(self):
        with pytest.raises(ValueError):
            check_positive("x", -1, allow_zero=True)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive("x", True)

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            check_positive("x", "5")


class TestCheckInRange:
    def test_inclusive_bounds_accepted(self):
        check_in_range("x", 0.0, 0.0, 1.0)
        check_in_range("x", 1.0, 0.0, 1.0)

    def test_exclusive_bounds_rejected(self):
        with pytest.raises(ValueError):
            check_in_range("x", 0.0, 0.0, 1.0, inclusive=False)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            check_in_range("x", 1.5, 0.0, 1.0)

    def test_interior_value_accepted_in_both_modes(self):
        check_in_range("x", 0.5, 0.0, 1.0)
        check_in_range("x", 0.5, 0.0, 1.0, inclusive=False)


class TestCheckProbability:
    def test_accepts_unit_interval(self):
        check_probability("p", 0.0)
        check_probability("p", 0.5)
        check_probability("p", 1.0)

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            check_probability("p", 1.01)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_probability("p", -0.1)


class TestCheckPowerOfTwo:
    @pytest.mark.parametrize("value", [1, 2, 4, 64, 4096])
    def test_accepts_powers_of_two(self, value):
        check_power_of_two("n", value)

    @pytest.mark.parametrize("value", [0, 3, 6, 100, -8])
    def test_rejects_non_powers(self, value):
        with pytest.raises(ValueError):
            check_power_of_two("n", value)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_power_of_two("n", 4.0)


class TestCheckBinaryArray:
    def test_accepts_zeros_and_ones(self):
        result = check_binary_array("bits", np.array([0, 1, 1, 0]))
        assert result.dtype == np.uint8

    def test_rejects_other_values(self):
        with pytest.raises(ValueError):
            check_binary_array("bits", np.array([0, 2]))

    def test_empty_array_passes(self):
        assert check_binary_array("bits", np.array([])).size == 0


class TestCheckChoice:
    def test_accepts_member(self):
        check_choice("mode", "fast", ("fast", "slow"))

    def test_rejects_non_member(self):
        with pytest.raises(ValueError, match="mode"):
            check_choice("mode", "medium", ("fast", "slow"))
