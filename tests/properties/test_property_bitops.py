"""Property-based tests for the register-width helpers."""

from hypothesis import given
from hypothesis import strategies as st

from repro.sensor.sample_add import required_sample_bits
from repro.utils.bitops import bit_width


@given(value=st.integers(0, 2**32 - 1))
def test_bit_width_is_tight(value):
    width = bit_width(value)
    assert value < (1 << width)
    if value > 0:
        assert value >= (1 << (width - 1))


@given(n_values=st.integers(1, 10_000), value_bits=st.integers(1, 12))
def test_sample_bits_are_sufficient_and_tight(n_values, value_bits):
    """Eq. (1) generalised: the returned width holds the worst case, one bit less does not."""
    width = required_sample_bits(n_values, value_bits)
    worst_case = n_values * ((1 << value_bits) - 1)
    assert worst_case <= (1 << width) - 1
    if width > 1:
        assert worst_case > (1 << (width - 1)) - 1
