"""Tests for the CA-driven row/column selection generator."""

import numpy as np
import pytest

from repro.ca.automaton import BoundaryCondition, ElementaryCellularAutomaton
from repro.ca.selection import (
    CASelectionGenerator,
    ca_measurement_matrix,
    ca_selection_factors,
    selection_masks_from_states,
)
from repro.stream.protocol import advance_seed_state
from repro.utils.rng import nonzero_seed_bits


class TestConstruction:
    def test_seed_state_length_must_match(self):
        with pytest.raises(ValueError):
            CASelectionGenerator(8, 8, seed_state=np.ones(10, dtype=np.uint8))

    def test_seed_state_preserved(self):
        seed = np.array([1, 0] * 8, dtype=np.uint8)
        generator = CASelectionGenerator(8, 8, seed_state=seed)
        assert np.array_equal(generator.seed_state, seed)

    def test_random_seed_reproducible(self):
        a = CASelectionGenerator(8, 8, seed=5)
        b = CASelectionGenerator(8, 8, seed=5)
        assert np.array_equal(a.seed_state, b.seed_state)


class TestPatterns:
    def test_mask_shape_and_binary(self):
        generator = CASelectionGenerator(16, 12, seed=1)
        pattern = generator.next_pattern()
        assert pattern.mask.shape == (16, 12)
        assert set(np.unique(pattern.mask)).issubset({0, 1})

    def test_mask_is_xor_of_signals(self):
        generator = CASelectionGenerator(8, 8, seed=2)
        pattern = generator.next_pattern()
        expected = np.bitwise_xor.outer(pattern.row_signals, pattern.col_signals)
        assert np.array_equal(pattern.mask, expected)

    def test_pattern_indices_increase(self):
        generator = CASelectionGenerator(8, 8, seed=2)
        indices = [generator.next_pattern().index for _ in range(5)]
        assert indices == [0, 1, 2, 3, 4]

    def test_successive_patterns_differ(self):
        generator = CASelectionGenerator(16, 16, seed=3, warmup_steps=4)
        first = generator.next_pattern().mask
        second = generator.next_pattern().mask
        assert not np.array_equal(first, second)

    def test_density_close_to_half(self):
        """The XOR construction selects each pixel in half of the signal combinations."""
        generator = CASelectionGenerator(32, 32, seed=4, warmup_steps=8)
        densities = [generator.next_pattern().density for _ in range(64)]
        assert 0.35 < float(np.mean(densities)) < 0.65

    def test_as_vector_matches_mask_raster_order(self):
        generator = CASelectionGenerator(4, 4, seed=5)
        pattern = generator.next_pattern()
        assert np.array_equal(pattern.as_vector(), pattern.mask.reshape(-1))

    def test_patterns_iterator_count(self):
        generator = CASelectionGenerator(8, 8, seed=6)
        assert len(list(generator.patterns(7))) == 7


class TestDeterminismAndReset:
    def test_reset_replays_the_same_sequence(self):
        generator = CASelectionGenerator(12, 12, seed=7, warmup_steps=3)
        first_run = [generator.next_pattern().mask for _ in range(5)]
        generator.reset()
        second_run = [generator.next_pattern().mask for _ in range(5)]
        for a, b in zip(first_run, second_run):
            assert np.array_equal(a, b)

    def test_measurement_matrix_matches_pattern_stream(self):
        generator = CASelectionGenerator(8, 8, seed=8, warmup_steps=2)
        matrix = ca_measurement_matrix(6, 8, 8, generator.seed_state, warmup_steps=2)
        for row_index in range(6):
            assert np.array_equal(matrix[row_index], generator.next_pattern().as_vector())

    def test_same_seed_two_generators_identical(self):
        """The property the channel relies on: seed fully determines Φ."""
        seed = CASelectionGenerator(16, 16, seed=10).seed_state
        a = CASelectionGenerator(16, 16, seed_state=seed, warmup_steps=5)
        b = CASelectionGenerator(16, 16, seed_state=seed, warmup_steps=5)
        assert np.array_equal(a.next_states(20), b.next_states(20))

    def test_steps_per_sample_changes_sequence(self):
        seed = CASelectionGenerator(8, 8, seed=11).seed_state
        one = ca_measurement_matrix(5, 8, 8, seed, steps_per_sample=1)
        two = ca_measurement_matrix(5, 8, 8, seed, steps_per_sample=2)
        assert not np.array_equal(one, two)


class TestMatrixProperties:
    def test_matrix_rows_are_distinct(self):
        seed = nonzero_seed_bits(32, 12)
        matrix = ca_measurement_matrix(40, 16, 16, seed, warmup_steps=4)
        assert len({row.tobytes() for row in matrix}) == 40

    def test_matrix_dtype_and_shape(self):
        matrix = ca_measurement_matrix(9, 8, 12, nonzero_seed_bits(20, 13))
        assert matrix.shape == (9, 96)
        assert matrix.dtype == np.uint8

    @pytest.mark.parametrize(
        "n_samples, steps_per_sample, warmup_steps",
        [(0, 1, 0), (4, 0, 0), (4, 1, -1)],
        ids=["no-samples", "zero-stride", "negative-warmup"],
    )
    def test_builder_rejects_bad_sequencing(self, n_samples, steps_per_sample, warmup_steps):
        seed = nonzero_seed_bits(16, 14)
        for builder in (ca_measurement_matrix, ca_selection_factors):
            with pytest.raises(ValueError):
                builder(
                    n_samples, 8, 8, seed,
                    steps_per_sample=steps_per_sample, warmup_steps=warmup_steps,
                )

    @pytest.mark.parametrize(
        "seed_state",
        [np.ones(15, dtype=np.uint8), np.full(16, 2, dtype=np.uint8)],
        ids=["wrong-length", "non-binary"],
    )
    def test_builder_rejects_bad_seed(self, seed_state):
        for builder in (ca_measurement_matrix, ca_selection_factors):
            with pytest.raises(ValueError):
                builder(4, 8, 8, seed_state)


class TestBatchedStateAccess:
    def test_batched_masks_match_pattern_stream(self):
        seed = CASelectionGenerator(8, 8, seed=20).seed_state
        batched = CASelectionGenerator(8, 8, seed_state=seed, warmup_steps=2)
        sequential = CASelectionGenerator(8, 8, seed_state=seed, warmup_steps=2)
        masks = selection_masks_from_states(batched.next_states(7), 8, 8)
        for row in masks:
            assert np.array_equal(row, sequential.next_pattern().as_vector())
        assert batched.sample_index == sequential.sample_index

    def test_next_states_continue_mid_stream(self):
        seed = CASelectionGenerator(8, 8, seed=21).seed_state
        batched = CASelectionGenerator(8, 8, seed_state=seed, steps_per_sample=2)
        sequential = CASelectionGenerator(8, 8, seed_state=seed, steps_per_sample=2)
        batched.next_pattern()
        sequential.next_pattern()
        states = batched.next_states(4)
        for state in states:
            pattern = sequential.next_pattern()
            expected = np.concatenate([pattern.row_signals, pattern.col_signals])
            assert np.array_equal(state, expected)

    def test_partial_iterator_consumption_stays_lazy(self):
        """Breaking out of patterns() must leave the generator on the last
        pattern actually taken, not at the end of the requested stretch."""
        generator = CASelectionGenerator(8, 8, seed=22)
        iterator = generator.patterns(10)
        next(iterator)
        next(iterator)
        assert generator.sample_index == 2
        follow_up = generator.next_pattern()
        fresh = CASelectionGenerator(8, 8, seed_state=generator.seed_state, warmup_steps=0)
        expected = [fresh.next_pattern() for _ in range(3)][2]
        assert np.array_equal(follow_up.mask, expected.mask)


def stepped_state(state, rule, n_steps, boundary=BoundaryCondition.PERIODIC):
    """The per-generation reference: ``n_steps`` calls of ``step(1)``."""
    automaton = ElementaryCellularAutomaton(
        len(state), rule, seed_state=state, boundary=boundary
    )
    for _ in range(n_steps):
        automaton.step(1)
    return automaton.state


def multi_stepped_state(state, rule, n_steps, boundary=BoundaryCondition.PERIODIC):
    """One ``step(n_steps)`` call, the path the warm-ups and seed chain take."""
    automaton = ElementaryCellularAutomaton(
        len(state), rule, seed_state=state, boundary=boundary
    )
    automaton.step(n_steps)
    assert automaton.generation == n_steps
    return automaton.state


class TestMultiGenerationStep:
    """``step(n)`` on the packed path against ``n`` calls of ``step(1)``."""

    @pytest.mark.parametrize("rule", [30, 90, 110, 150])
    @pytest.mark.parametrize("n_steps", [0, 1, 7, 1645])
    @pytest.mark.parametrize("seed", [0, 11, 2024])
    def test_matches_step_by_step_reference_byte_for_byte(self, rule, n_steps, seed):
        state = nonzero_seed_bits(128, seed)
        advanced = multi_stepped_state(state, rule, n_steps)
        reference = stepped_state(state, rule, n_steps)
        assert advanced.dtype == reference.dtype == np.uint8
        assert advanced.tobytes() == reference.tobytes()

    @pytest.mark.parametrize(
        "boundary", [BoundaryCondition.FIXED_ZERO, BoundaryCondition.FIXED_ONE]
    )
    def test_fixed_boundaries_match_the_reference(self, boundary):
        state = nonzero_seed_bits(21, 5)
        advanced = multi_stepped_state(state, 30, 40, boundary)
        assert advanced.tobytes() == stepped_state(state, 30, 40, boundary).tobytes()

    def test_does_not_mutate_the_seed(self):
        state = nonzero_seed_bits(24, 3)
        before = state.copy()
        automaton = ElementaryCellularAutomaton(24, 30, seed_state=state)
        automaton.step(9)
        assert np.array_equal(state, before)
        assert np.array_equal(automaton.initial_state, before)

    def test_returns_a_copy_of_the_new_state(self):
        automaton = ElementaryCellularAutomaton(24, 30, seed=3)
        returned = automaton.step(9)
        returned[:] = 0
        assert automaton.state.any()

    @pytest.mark.parametrize(
        "n_samples,steps_per_sample,warmup_steps", [(1, 1, 0), (1638, 1, 0), (40, 3, 17)]
    )
    def test_seed_chain_matches_stepping_the_total(
        self, n_samples, steps_per_sample, warmup_steps
    ):
        state = nonzero_seed_bits(128, 8)
        total = warmup_steps + (n_samples - 1) * steps_per_sample
        chained = advance_seed_state(
            state, 30, n_samples=n_samples, steps_per_sample=steps_per_sample,
            warmup_steps=warmup_steps,
        )
        assert chained.tobytes() == stepped_state(state, 30, total).tobytes()

    def test_warmup_matches_stepping_the_generator(self):
        generator = CASelectionGenerator(12, 9, seed=4, warmup_steps=23)
        reference = stepped_state(generator.seed_state, 30, 23)
        row_factors, _ = ca_selection_factors(1, 12, 9, generator.seed_state, warmup_steps=23)
        assert row_factors[0].tobytes() == reference[:12].tobytes()
        assert generator.next_pattern().row_signals.tobytes() == reference[:12].tobytes()
