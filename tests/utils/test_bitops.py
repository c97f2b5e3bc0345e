"""Tests for the register-width helper."""

import pytest

from repro.utils.bitops import bit_width


class TestBitWidth:
    @pytest.mark.parametrize(
        "value,expected", [(0, 1), (1, 1), (2, 2), (255, 8), (256, 9), (1044480, 20)]
    )
    def test_known_widths(self, value, expected):
        assert bit_width(value) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bit_width(-1)
