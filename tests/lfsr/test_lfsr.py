"""Tests for the LFSR generators and the LFSR-driven selection baseline."""

import numpy as np
import pytest

from repro.lfsr.lfsr import FibonacciLFSR, LFSRSelectionGenerator


class TestFibonacciLFSR:
    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            FibonacciLFSR(8, state=0)

    def test_state_never_becomes_zero(self):
        lfsr = FibonacciLFSR(8, state=0xA5)
        for _ in range(600):
            lfsr.step()
            assert lfsr.state != 0

    def test_reproducible_from_seed(self):
        a = FibonacciLFSR(16, seed=3)
        b = FibonacciLFSR(16, state=a.state)
        assert np.array_equal(a.bits(100), b.bits(100))

    def test_reset_replays_sequence(self):
        lfsr = FibonacciLFSR(12, seed=5)
        first = lfsr.bits(50)
        lfsr.reset()
        assert np.array_equal(first, lfsr.bits(50))

    def test_reset_to_new_state_becomes_the_replay_point(self):
        lfsr = FibonacciLFSR(12, seed=5)
        lfsr.bits(17)
        lfsr.reset(0x5A5)
        assert lfsr.state == 0x5A5
        first = lfsr.bits(50)
        lfsr.reset()
        assert np.array_equal(first, lfsr.bits(50))
        assert np.array_equal(first, FibonacciLFSR(12, state=0x5A5).bits(50))

    def test_reset_to_zero_state_rejected(self):
        lfsr = FibonacciLFSR(8, state=3)
        with pytest.raises(ValueError):
            lfsr.reset(0x100)  # masks to zero in an 8-bit register
        assert lfsr.state == 3

    def test_output_bits_are_balanced_over_full_period(self):
        lfsr = FibonacciLFSR(10, state=1)
        bits = lfsr.bits(lfsr.period)
        # A maximal LFSR emits 2^(n-1) ones and 2^(n-1) - 1 zeros per period.
        assert int(bits.sum()) == 1 << 9

    def test_state_bits_msb_first(self):
        lfsr = FibonacciLFSR(8, state=0b10000001)
        assert lfsr.state_bits().tolist() == [1, 0, 0, 0, 0, 0, 0, 1]

    def test_invalid_tap_rejected(self):
        with pytest.raises(ValueError):
            FibonacciLFSR(8, taps=(9, 1), state=1)


class TestLFSRSelectionGenerator:
    def test_pattern_shape(self):
        generator = LFSRSelectionGenerator(16, 12, seed=1)
        assert generator.next_pattern().shape == (16, 12)

    def test_reset_replays_patterns(self):
        generator = LFSRSelectionGenerator(8, 8, seed=2)
        first = [generator.next_pattern() for _ in range(4)]
        generator.reset()
        second = [generator.next_pattern() for _ in range(4)]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_matrix_reconstructible_from_seed(self):
        generator = LFSRSelectionGenerator(8, 8, seed=3)
        matrix = generator.measurement_matrix(10)
        clone = LFSRSelectionGenerator(8, 8, state=generator.seed_value)
        assert np.array_equal(matrix, clone.measurement_matrix(10))

    def test_sample_index_advances(self):
        generator = LFSRSelectionGenerator(8, 8, seed=4)
        generator.next_pattern()
        generator.next_pattern()
        assert generator.sample_index == 2

    def test_average_density_near_half(self):
        generator = LFSRSelectionGenerator(32, 32, seed=5)
        densities = [generator.next_pattern().mean() for _ in range(50)]
        assert 0.35 < float(np.mean(densities)) < 0.65
