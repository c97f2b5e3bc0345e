"""Tests for the pixel-selection XOR unit (node V2)."""

import numpy as np
import pytest

from repro.pixel.selection import v2_output, xor_select


class TestXorSelect:
    @pytest.mark.parametrize(
        "row,col,expected", [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    )
    def test_truth_table(self, row, col, expected):
        assert xor_select(row, col) == expected

    def test_vectorised(self):
        rows = np.array([0, 0, 1, 1])
        cols = np.array([0, 1, 0, 1])
        assert xor_select(rows, cols).tolist() == [0, 1, 1, 0]

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            xor_select(2, 0)

    def test_half_of_combinations_select_the_pixel(self):
        """The property the paper highlights: the XOR selects in half the cases."""
        combinations = [(r, c) for r in (0, 1) for c in (0, 1)]
        selected = sum(xor_select(r, c) for r, c in combinations)
        assert selected == 2


class TestV2Output:
    def test_stuck_high_when_deselected(self):
        assert v2_output(0, 1, 1) == 1
        assert v2_output(1, 1, 1) == 1
        assert v2_output(0, 0, 0) == 1
        assert v2_output(1, 0, 0) == 1

    def test_inverts_v1_when_selected(self):
        assert v2_output(0, 0, 1) == 1
        assert v2_output(1, 0, 1) == 0
        assert v2_output(1, 1, 0) == 0

    def test_rejects_invalid_levels(self):
        with pytest.raises(ValueError):
            v2_output(0, 1, 2)
