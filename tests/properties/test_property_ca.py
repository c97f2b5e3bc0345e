"""Property-based tests for the cellular-automaton substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ca.automaton import ElementaryCellularAutomaton
from repro.ca.rule30 import Rule30Register, rule30_next_state
from repro.ca.rules import RuleTable
from repro.ca.selection import CASelectionGenerator, ca_measurement_matrix

seed_bits = st.lists(st.integers(0, 1), min_size=6, max_size=40).filter(lambda bits: any(bits))


@given(
    rule=st.integers(0, 255),
    left=st.integers(0, 1),
    center=st.integers(0, 1),
    right=st.integers(0, 1),
)
def test_rule_table_output_is_binary(rule, left, center, right):
    assert RuleTable(rule).next_state(left, center, right) in (0, 1)


@given(left=st.integers(0, 1), center=st.integers(0, 1), right=st.integers(0, 1))
def test_gate_level_rule30_matches_wolfram_code(left, center, right):
    assert rule30_next_state(left, center, right) == RuleTable(30).next_state(left, center, right)


@settings(max_examples=30, deadline=None)
@given(bits=seed_bits, rule=st.sampled_from([30, 90, 110, 150]), steps=st.integers(1, 30))
def test_automaton_is_deterministic(bits, rule, steps):
    """Two automata with the same seed always agree — the channel-sync property."""
    a = ElementaryCellularAutomaton(len(bits), rule, seed_state=bits)
    b = ElementaryCellularAutomaton(len(bits), rule, seed_state=bits)
    assert np.array_equal(a.step(steps), b.step(steps))


@settings(max_examples=30, deadline=None)
@given(bits=seed_bits, steps=st.integers(1, 20))
def test_state_stays_binary_and_size_constant(bits, steps):
    automaton = ElementaryCellularAutomaton(len(bits), 30, seed_state=bits)
    state = automaton.step(steps)
    assert state.shape == (len(bits),)
    assert set(np.unique(state)).issubset({0, 1})


@settings(max_examples=20, deadline=None)
@given(
    bits=st.lists(st.integers(0, 1), min_size=6, max_size=24).filter(lambda b: any(b)),
    steps=st.integers(1, 12),
)
def test_gate_level_register_matches_engine(bits, steps):
    """The Fig. 3 ring of cells and the vectorised engine are the same machine."""
    register = Rule30Register(seed_state=bits)
    automaton = ElementaryCellularAutomaton(len(bits), 30, seed_state=bits)
    register.clock(steps)
    automaton.step(steps)
    assert np.array_equal(register.state, automaton.state)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(4, 12),
    cols=st.integers(4, 12),
    n_samples=st.integers(1, 12),
    seed=st.integers(0, 10_000),
)
def test_selection_matrix_rebuildable_from_seed(rows, cols, n_samples, seed):
    """Φ is a pure function of (seed, parameters): sensor and receiver always agree."""
    sensor_side = CASelectionGenerator(rows, cols, seed=seed, warmup_steps=3)
    receiver_side = ca_measurement_matrix(
        n_samples, rows, cols, sensor_side.seed_state, warmup_steps=3
    )
    assert np.array_equal(
        np.array([pattern.as_vector() for pattern in sensor_side.patterns(n_samples)]),
        receiver_side,
    )


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(4, 12), cols=st.integers(4, 12), seed=st.integers(0, 10_000))
def test_selection_mask_is_xor_of_signals(rows, cols, seed):
    generator = CASelectionGenerator(rows, cols, seed=seed)
    pattern = generator.next_pattern()
    for i in range(rows):
        for j in range(cols):
            assert pattern.mask[i, j] == pattern.row_signals[i] ^ pattern.col_signals[j]
