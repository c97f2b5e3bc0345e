"""Tests for the elementary CA engine."""

import numpy as np
import pytest

from repro.ca.automaton import BoundaryCondition, ElementaryCellularAutomaton, rule_monomials
from repro.ca.rules import RuleTable


class TestConstruction:
    def test_requires_at_least_three_cells(self):
        with pytest.raises(ValueError):
            ElementaryCellularAutomaton(2)

    def test_explicit_seed_state_used(self):
        seed = [1, 0, 0, 1, 0]
        automaton = ElementaryCellularAutomaton(5, seed_state=seed)
        assert automaton.state.tolist() == seed

    def test_seed_state_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ElementaryCellularAutomaton(5, seed_state=[1, 0, 1])

    def test_random_seed_reproducible(self):
        a = ElementaryCellularAutomaton(16, seed=99)
        b = ElementaryCellularAutomaton(16, seed=99)
        assert np.array_equal(a.state, b.state)

    def test_accepts_rule_table_instance(self):
        automaton = ElementaryCellularAutomaton(8, RuleTable(110), seed=0)
        assert automaton.rule.number == 110


class TestStepping:
    def test_known_rule30_evolution_periodic(self):
        """One Rule 30 step of 00100 on a ring is 01110."""
        automaton = ElementaryCellularAutomaton(5, 30, seed_state=[0, 0, 1, 0, 0])
        assert automaton.step().tolist() == [0, 1, 1, 1, 0]

    def test_known_rule30_second_step(self):
        automaton = ElementaryCellularAutomaton(5, 30, seed_state=[0, 0, 1, 0, 0])
        automaton.step(2)
        assert automaton.state.tolist() == [1, 1, 0, 0, 1]

    def test_generation_counter(self):
        automaton = ElementaryCellularAutomaton(8, seed=1)
        automaton.step(5)
        assert automaton.generation == 5

    def test_step_zero_is_noop(self):
        automaton = ElementaryCellularAutomaton(8, seed=1)
        before = automaton.state
        automaton.step(0)
        assert np.array_equal(automaton.state, before)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            ElementaryCellularAutomaton(8, seed=1).step(-1)

    def test_states_remain_binary(self):
        automaton = ElementaryCellularAutomaton(32, seed=5)
        for _ in range(50):
            assert set(np.unique(automaton.step())).issubset({0, 1})


class TestBoundaries:
    def test_fixed_zero_boundary_differs_from_periodic(self):
        seed = [1, 0, 0, 0, 0, 0, 0, 1]
        ring = ElementaryCellularAutomaton(8, 30, seed_state=seed)
        fixed = ElementaryCellularAutomaton(
            8, 30, seed_state=seed, boundary=BoundaryCondition.FIXED_ZERO
        )
        ring.step()
        fixed.step()
        assert not np.array_equal(ring.state, fixed.state)

    def test_fixed_one_boundary_accepted(self):
        automaton = ElementaryCellularAutomaton(
            8, 30, seed_state=[0] * 8, boundary=BoundaryCondition.FIXED_ONE
        )
        # With all-zero state and '1' boundaries, only edge cells can activate.
        state = automaton.step()
        assert state[0] == 1
        assert state[-1] == 1
        assert state[1:-1].sum() == 0

    def test_all_zero_ring_stays_zero_under_rule30(self):
        automaton = ElementaryCellularAutomaton(8, 30, seed_state=[0] * 8)
        assert automaton.step(10).sum() == 0


class TestResetAndRun:
    def test_reset_restores_seed(self):
        automaton = ElementaryCellularAutomaton(16, seed=3)
        seed = automaton.state
        automaton.step(17)
        automaton.reset()
        assert np.array_equal(automaton.state, seed)
        assert automaton.generation == 0

    def test_reset_with_new_seed(self):
        automaton = ElementaryCellularAutomaton(4, seed=3)
        automaton.reset([1, 1, 0, 0])
        assert automaton.state.tolist() == [1, 1, 0, 0]

    def test_run_shape_includes_initial_row(self):
        automaton = ElementaryCellularAutomaton(10, seed=2)
        diagram = automaton.run(7)
        assert diagram.shape == (8, 10)

    def test_run_without_initial_row(self):
        automaton = ElementaryCellularAutomaton(10, seed=2)
        diagram = automaton.run(7, include_initial=False)
        assert diagram.shape == (7, 10)

    def test_run_rows_match_sequential_steps(self):
        a = ElementaryCellularAutomaton(12, seed=4)
        b = ElementaryCellularAutomaton(12, seed=4)
        diagram = a.run(5)
        for row in diagram[1:]:
            assert np.array_equal(row, b.step())

    def test_center_column_length(self):
        automaton = ElementaryCellularAutomaton(33, seed=1)
        assert automaton.center_column(64).shape == (64,)

    def test_determinism_from_equal_seeds(self):
        a = ElementaryCellularAutomaton(64, seed=11)
        b = ElementaryCellularAutomaton(64, seed_state=a.state)
        for _ in range(20):
            assert np.array_equal(a.step(), b.step())


class TestEvolveStates:
    """Snapshot bookkeeping: the strided stack replays the matching step()
    calls, and leaves the state and generation counter where they would."""

    @pytest.mark.parametrize("rule", [30, 90, 110, 184, 45, 0, 255])
    @pytest.mark.parametrize("n_cells", [3, 7, 16, 128, 130])
    def test_matches_sequential_steps_periodic(self, rule, n_cells):
        seed = (np.arange(n_cells) % 3 == 0).astype(np.uint8)
        a = ElementaryCellularAutomaton(n_cells, rule, seed_state=seed)
        b = ElementaryCellularAutomaton(n_cells, rule, seed_state=seed)
        snapshots = a.evolve_states(6, 2)
        reference = [b.state] + [b.step(2) for _ in range(5)]
        assert np.array_equal(snapshots, np.array(reference, dtype=np.uint8))
        assert np.array_equal(a.state, b.state)
        assert a.generation == b.generation

    @pytest.mark.parametrize(
        "boundary", [BoundaryCondition.FIXED_ZERO, BoundaryCondition.FIXED_ONE]
    )
    def test_matches_sequential_steps_fixed_boundaries(self, boundary):
        seed = np.ones(16, dtype=np.uint8)
        a = ElementaryCellularAutomaton(16, 30, seed_state=seed, boundary=boundary)
        b = ElementaryCellularAutomaton(16, 30, seed_state=seed, boundary=boundary)
        snapshots = a.evolve_states(5, 1)
        reference = [b.state] + [b.step() for _ in range(4)]
        assert np.array_equal(snapshots, np.array(reference, dtype=np.uint8))

    def test_step_before_first_offsets_the_stream(self):
        a = ElementaryCellularAutomaton(16, 30, seed_state=np.ones(16, dtype=np.uint8))
        b = ElementaryCellularAutomaton(16, 30, seed_state=np.ones(16, dtype=np.uint8))
        snapshots = a.evolve_states(4, 3, step_before_first=True)
        reference = [b.step(3) for _ in range(4)]
        assert np.array_equal(snapshots, np.array(reference, dtype=np.uint8))

    def test_zero_snapshots(self):
        automaton = ElementaryCellularAutomaton(8, 30, seed_state=np.ones(8, np.uint8))
        assert automaton.evolve_states(0, 1).shape == (0, 8)
        assert automaton.generation == 0

    def test_invalid_arguments(self):
        automaton = ElementaryCellularAutomaton(8, 30, seed_state=np.ones(8, np.uint8))
        with pytest.raises(ValueError):
            automaton.evolve_states(-1, 1)
        with pytest.raises(ValueError):
            automaton.evolve_states(3, 0)


def reference_evolution(rule, seed, boundary, n_steps):
    """``n_steps + 1`` states from a per-cell truth-table loop (row 0 is ``seed``)."""
    states = [np.asarray(seed, dtype=np.uint8)]
    for _ in range(n_steps):
        state = states[-1]
        if boundary is BoundaryCondition.PERIODIC:
            left, right = np.roll(state, 1), np.roll(state, -1)
        else:
            fill = int(boundary is BoundaryCondition.FIXED_ONE)
            padded = np.concatenate(([fill], state, [fill])).astype(np.uint8)
            left, right = padded[:-2], padded[2:]
        states.append(rule.apply(left, state, right))
    return np.array(states, dtype=np.uint8)


@pytest.mark.parametrize("boundary", list(BoundaryCondition))
@pytest.mark.parametrize("n_cells", [3, 8, 65, 130])
def test_every_update_matches_the_truth_table_oracle(boundary, n_cells):
    """Every stepping entry point replays the per-cell oracle, for all 256 rules."""
    seeds = np.random.default_rng(n_cells).integers(0, 2, size=(256, n_cells), dtype=np.uint8)
    centre = n_cells // 2

    def fresh(number, seed):
        return ElementaryCellularAutomaton(
            n_cells, number, seed_state=seed, boundary=boundary
        )

    for number, seed in enumerate(seeds):
        reference = reference_evolution(RuleTable(number), seed, boundary, 16)

        stepped = fresh(number, seed)
        assert stepped.step().tobytes() == reference[1].tobytes()
        assert stepped.step(5).tobytes() == reference[6].tobytes()
        assert stepped.state.tobytes() == reference[6].tobytes()
        assert stepped.generation == 6

        evolved = fresh(number, seed)
        assert evolved.evolve_states(4, 3).tobytes() == reference[0:10:3].tobytes()
        assert evolved.generation == 9
        snapshots = evolved.evolve_states(3, 2, step_before_first=True)
        assert snapshots.tobytes() == reference[11:16:2].tobytes()
        assert evolved.state.tobytes() == reference[15].tobytes()
        assert evolved.generation == 15

        ran = fresh(number, seed)
        assert ran.run(6).tobytes() == reference[0:7].tobytes()
        assert ran.run(4, include_initial=False).tobytes() == reference[7:11].tobytes()
        assert ran.state.tobytes() == reference[10].tobytes()
        assert ran.generation == 10

        column = fresh(number, seed)
        assert column.center_column(7).tobytes() == reference[1:8, centre].tobytes()
        assert column.state.tobytes() == reference[7].tobytes()
        assert column.generation == 7


class TestAlgebraicNormalForm:
    """The packed engine steps every rule from its monomials."""

    def test_rule30_is_l_xor_c_xor_r_xor_cr(self):
        assert sorted(rule_monomials(30)) == [(0,), (1,), (1, 2), (2,)]

    def test_constant_rules(self):
        assert rule_monomials(0) == ()
        assert rule_monomials(255) == ((),)
