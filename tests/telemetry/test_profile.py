"""Solver profiling hooks: series semantics and strict read-only behaviour."""

import numpy as np
import pytest

from repro.cs.solvers.batched import batched_proximal_gradient
from repro.cs.solvers.iterative import fista, ista
from repro.cs.structured import StructuredSensingOperator
from repro.optics.scenes import make_scene
from repro.recon.operator import frame_operator
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.telemetry import SolverProfile


def _problem(seed=0, m=30, n=64):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((m, n))
    signal = np.zeros(n)
    signal[[3, 17, 40]] = [1.0, -2.0, 0.5]
    return matrix, matrix @ signal


def _operator_stack(n_tiles=4, m=24, side=8):
    operators = []
    for index in range(n_tiles):
        rng = np.random.default_rng(index)
        rows = (rng.random((m, side)) < 0.5).astype(float)
        cols = (rng.random((m, side)) < 0.5).astype(float)
        operators.append(StructuredSensingOperator(rows, cols))
    measurements = np.stack(
        [
            op.matvec(np.random.default_rng(100 + index).standard_normal(op.n_coefficients))
            for index, op in enumerate(operators)
        ]
    )
    return operators, measurements


class TestSolverProfileObject:
    def test_records_and_finishes(self):
        profile = SolverProfile()
        profile.record_step_size(0.5, provenance="provided")
        profile.record_iteration(2.0, 1.0, frozen=0, stage=0, regularization=0.3)
        profile.record_iteration(1.0, 0.5, frozen=3, stage=1, regularization=0.1)
        profile.finish(converged=True)
        assert profile.step_size == 0.5
        assert profile.step_size_provenance == "provided"
        assert profile.objectives == [2.0, 1.0]
        assert profile.residual_norms == [1.0, 0.5]
        assert profile.frozen_counts == [0, 3]
        assert profile.stages == [0, 1]
        assert profile.regularizations == [0.3, 0.1]
        assert profile.n_iterations == 2
        assert profile.converged is True
        assert profile.monotone

    def test_bound_provenance_is_accepted(self):
        profile = SolverProfile()
        profile.record_step_size(0.5, provenance="bound")
        assert profile.step_size_provenance == "bound"
        assert profile.step_reductions == 0

    def test_provenance_is_validated(self):
        with pytest.raises(ValueError, match="provenance"):
            SolverProfile().record_step_size(0.5, provenance="guessed")

    def test_monotone_detects_increases(self):
        profile = SolverProfile()
        profile.record_iteration(1.0, 1.0, frozen=0, stage=0, regularization=0.1)
        profile.record_iteration(2.0, 1.0, frozen=0, stage=0, regularization=0.1)
        assert not profile.monotone


class TestIterativeSolverHooks:
    def test_ista_profile_matches_the_solve(self):
        matrix, measurements = _problem()
        profile = SolverProfile()
        result = ista(
            matrix, measurements, regularization=0.05, max_iterations=40,
            profile=profile,
        )
        assert profile.n_iterations == result.n_iterations
        assert profile.residual_norms == result.history
        assert profile.converged == result.converged
        assert profile.n_tiles == 1
        assert profile.step_size_provenance == "estimated"
        # ISTA is a descent method on the composite objective.
        assert profile.monotone
        # objective = 0.5 r^2 + lambda * l1 >= 0.5 r^2
        for objective, residual in zip(profile.objectives, profile.residual_norms):
            assert objective >= 0.5 * residual**2 - 1e-12

    def test_profiled_solve_is_bit_identical(self):
        matrix, measurements = _problem(seed=3)
        plain = fista(matrix, measurements, regularization=0.05, max_iterations=30)
        profiled = fista(
            matrix, measurements, regularization=0.05, max_iterations=30,
            profile=SolverProfile(),
        )
        assert np.array_equal(plain.coefficients, profiled.coefficients)
        assert plain.history == profiled.history

    def test_provided_step_size_is_stamped(self):
        matrix, measurements = _problem()
        profile = SolverProfile()
        fista(
            matrix, measurements, regularization=0.05, max_iterations=5,
            step_size=1e-3, profile=profile,
        )
        assert profile.step_size == 1e-3
        assert profile.step_size_provenance == "provided"


class TestBatchedSolverHooks:
    def test_batched_profile_counts_frozen_tiles(self):
        operators, measurements = _operator_stack()
        profile = SolverProfile()
        results = batched_proximal_gradient(
            operators, measurements, regularization=0.3, max_iterations=300,
            profile=profile,
        )
        assert profile.n_tiles == len(operators)
        assert profile.step_size_provenance == "estimated"
        assert len(profile.frozen_counts) == profile.n_iterations
        # Every stage starts with no tile frozen; within a stage the count
        # never decreases.
        for stage in set(profile.stages):
            counts = [
                count for count, ran_in in zip(profile.frozen_counts, profile.stages)
                if ran_in == stage
            ]
            assert counts[0] == 0
            assert counts == sorted(counts)
        assert profile.converged == all(result.converged for result in results)
        if profile.converged:
            # Each converged tile stops iterating, so the last iteration ran
            # with every *other* tile already frozen.
            assert profile.frozen_counts[-1] == len(operators) - 1

    def test_batched_profiled_solve_is_bit_identical(self):
        operators, measurements = _operator_stack()
        plain = batched_proximal_gradient(
            operators, measurements, regularization=0.05, max_iterations=25
        )
        profiled = batched_proximal_gradient(
            operators, measurements, regularization=0.05, max_iterations=25,
            profile=SolverProfile(),
        )
        for a, b in zip(plain, profiled):
            assert np.array_equal(a.coefficients, b.coefficients)
            assert a.history == b.history

    def test_provided_steps_are_stamped_with_their_mean(self):
        operators, measurements = _operator_stack()
        steps = np.array([1e-3, 2e-3, 3e-3, 4e-3])
        profile = SolverProfile()
        batched_proximal_gradient(
            operators, measurements, regularization=0.05, max_iterations=5,
            step_sizes=steps, profile=profile,
        )
        assert profile.step_size == pytest.approx(float(steps.mean()))
        assert profile.step_size_provenance == "provided"


def _ca_problem(rule):
    """A 16x16 CA frame operator and the measurements of its centred scene."""
    imager = CompressiveImager(SensorConfig(rows=16, cols=16), rule=rule, seed=9)
    frame = imager.capture_scene(make_scene("natural", (16, 16), seed=9), n_samples=102)
    operator, _ = frame_operator(frame)
    truth = frame.digital_image.astype(float).reshape(-1)
    return operator, operator.phi_dot(truth - truth.mean())


class TestStepProvenance:
    """CA frames step from the closed-form σ̂; the profile says so truthfully."""

    @pytest.mark.parametrize("solver", [fista, ista])
    def test_rule30_profile_reads_bound_without_reductions(self, solver):
        operator, measurements = _ca_problem(30)
        profile = SolverProfile()
        result = solver(operator, measurements, regularization=5.0,
                        max_iterations=60, profile=profile)
        assert profile.step_size_provenance == "bound"
        assert profile.step_size == pytest.approx(1.0 / operator.norm_estimate**2)
        assert profile.step_reductions == result.step_reductions == 0

    @pytest.mark.parametrize("solver", [fista, ista])
    def test_rule110_profile_counts_reductions(self, solver):
        operator, measurements = _ca_problem(110)
        profile = SolverProfile()
        result = solver(operator, measurements, regularization=5.0,
                        max_iterations=60, profile=profile)
        assert profile.step_size_provenance == "bound"
        assert profile.step_reductions == result.step_reductions > 0

    @pytest.mark.parametrize("rule", [30, 110])
    def test_profiled_ca_solve_is_bit_identical(self, rule):
        operator, measurements = _ca_problem(rule)
        plain = fista(operator, measurements, regularization=5.0, max_iterations=60)
        profiled = fista(operator, measurements, regularization=5.0,
                         max_iterations=60, profile=SolverProfile())
        assert plain.coefficients.tobytes() == profiled.coefficients.tobytes()
        assert plain.history == profiled.history
        assert plain.step_reductions == profiled.step_reductions

    def test_batched_profile_reads_bound(self):
        stack = [_ca_problem(rule) for rule in (30, 110)]
        operators = [operator for operator, _ in stack]
        profile = SolverProfile()
        results = batched_proximal_gradient(
            operators, np.stack([y for _, y in stack]), regularization=5.0,
            max_iterations=60, profile=profile,
        )
        assert profile.step_size_provenance == "bound"
        assert results[0].step_reductions == 0
        assert profile.step_reductions == results[1].step_reductions > 0


class TestContinuationFacts:
    """The profile names each iteration's λ-continuation stage and its λ."""

    def test_stages_and_weights_follow_the_lambda_path(self):
        matrix, measurements = _problem()
        profile = SolverProfile()
        result = fista(
            matrix, measurements, regularization=0.05, max_iterations=100,
            tolerance=1e-12, profile=profile,
        )
        assert profile.n_stages == 4
        assert profile.stages == sorted(profile.stages)
        assert set(profile.stages) == {0, 1, 2, 3}
        for stage, weight in zip(profile.stages, profile.regularizations):
            assert weight == 0.05 * 3.0 ** (3 - stage)
        # The last objective is read at the caller's λ.
        assert profile.objectives[-1] == pytest.approx(
            0.5 * result.residual_norm**2 + 0.05 * np.abs(result.coefficients).sum()
        )

    def test_ista_stays_monotone_across_stage_boundaries(self):
        matrix, measurements = _problem(seed=2)
        profile = SolverProfile()
        ista(
            matrix, measurements, regularization=0.05, max_iterations=100,
            tolerance=1e-12, profile=profile,
        )
        assert len(set(profile.stages)) == 4
        assert profile.monotone

    @pytest.mark.parametrize("tolerance, converged", [(1e-12, False), (1e-2, True)])
    def test_converged_means_frozen_in_the_final_stage(self, tolerance, converged):
        matrix, measurements = _problem()
        # Above half of ||A^T y||_inf, the weights λ·27, λ·9 and λ·3 keep the
        # zero start, so the first three stages freeze after one iteration
        # each; only the final stage at λ decides ``converged``.
        weight = 0.5 * np.abs(matrix.T @ measurements).max()
        profile = SolverProfile()
        result = ista(
            matrix, measurements, regularization=weight, max_iterations=100,
            tolerance=tolerance, profile=profile,
        )
        assert profile.stages[:4] == [0, 1, 2, 3]
        assert result.converged is converged
        assert profile.converged is converged
        # A tile that did not freeze ran the final stage's whole quarter.
        assert (profile.stages.count(3) < 25) is converged
        assert result.n_iterations == 3 + profile.stages.count(3)
