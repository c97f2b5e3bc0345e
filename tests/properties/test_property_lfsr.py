"""Property-based tests for the LFSR substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lfsr.lfsr import FibonacciLFSR


@settings(max_examples=40, deadline=None)
@given(n_bits=st.integers(4, 24), seed=st.integers(0, 10_000), n=st.integers(1, 200))
def test_fibonacci_state_never_zero_and_bits_binary(n_bits, seed, n):
    lfsr = FibonacciLFSR(n_bits, seed=seed)
    bits = lfsr.bits(n)
    assert set(np.unique(bits)).issubset({0, 1})
    assert lfsr.state != 0


@settings(max_examples=30, deadline=None)
@given(n_bits=st.integers(4, 20), seed=st.integers(0, 10_000), n=st.integers(1, 100))
def test_reset_gives_identical_replay(n_bits, seed, n):
    lfsr = FibonacciLFSR(n_bits, seed=seed)
    first = lfsr.bits(n)
    lfsr.reset()
    assert np.array_equal(first, lfsr.bits(n))


@settings(max_examples=20, deadline=None)
@given(n_bits=st.integers(4, 10), state=st.integers(1, 2**10 - 1))
def test_full_period_visits_each_state_once(n_bits, state):
    state &= (1 << n_bits) - 1
    if state == 0:
        state = 1
    lfsr = FibonacciLFSR(n_bits, state=state)
    seen = set()
    for _ in range(lfsr.period):
        assert lfsr.state not in seen
        seen.add(lfsr.state)
        lfsr.step()
    assert len(seen) == lfsr.period
