"""Operator-level equivalence: the matrix-free fast path vs the dense reference.

Every product the solvers consume — ``matvec``, ``rmatvec``, ``phi_dot``,
``column``, ``columns``, ``dense`` — must agree between
:class:`~repro.cs.structured.StructuredSensingOperator` and the dense
:class:`~repro.cs.operators.SensingOperator` built from the materialised
matrix, across dictionaries, non-square shapes and seeds.  This suite pins
that contract at tight tolerance (the recon-equivalence invariant at the
operator layer), plus the supporting machinery: batched dictionary
transforms and the memoised/tolerance-gated ``operator_norm``.
"""

import numpy as np
import pytest

from repro.ca.selection import (
    ca_measurement_matrix,
    ca_selection_factors,
    selection_masks_from_states,
)
from repro.cs.dictionaries import make_dictionary
from repro.cs.operators import SensingOperator
from repro.cs.solvers import fista, ista
from repro.cs.solvers.batched import (
    batched_operator_norms,
    batched_proximal_gradient,
    steps_from_norms,
)
from repro.cs.structured import StructuredSensingOperator
from repro.utils.rng import nonzero_seed_bits

ATOL = 1e-10

SHAPES = [(8, 8), (8, 16), (16, 8)]
DICTIONARIES = ["identity", "dct", "haar"]


def make_pair(shape, dictionary, *, seed=0, n_samples=40, center=True, **ca_kwargs):
    """A (dense, structured) operator pair built from one CA seed."""
    rows, cols = shape
    seed_state = nonzero_seed_bits(rows + cols, seed)
    row_factors, col_factors = ca_selection_factors(
        n_samples, rows, cols, seed_state, **ca_kwargs
    )
    psi = make_dictionary(dictionary, shape)
    structured = StructuredSensingOperator(row_factors, col_factors, psi)
    density = structured.density if center else 0.0
    structured.center = density
    phi = ca_measurement_matrix(n_samples, rows, cols, seed_state, **ca_kwargs)
    dense = SensingOperator(phi.astype(float) - density, make_dictionary(dictionary, shape))
    return dense, structured


class TestFactorBuilders:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("steps,warmup", [(1, 0), (2, 8), (3, 5)])
    def test_factors_rejoin_to_dense_matrix_bit_for_bit(self, shape, steps, warmup):
        rows, cols = shape
        seed_state = nonzero_seed_bits(rows + cols, 7)
        kwargs = dict(steps_per_sample=steps, warmup_steps=warmup)
        row_factors, col_factors = ca_selection_factors(
            30, rows, cols, seed_state, **kwargs
        )
        dense = ca_measurement_matrix(30, rows, cols, seed_state, **kwargs)
        rejoined = np.bitwise_xor(
            row_factors[:, :, None], col_factors[:, None, :]
        ).reshape(30, rows * cols)
        assert np.array_equal(rejoined, dense)

    def test_factors_match_states_split(self):
        states = np.random.default_rng(3).integers(0, 2, size=(12, 10)).astype(np.uint8)
        from repro.ca.selection import selection_factors_from_states

        row_factors, col_factors = selection_factors_from_states(states, 4, 6)
        assert np.array_equal(row_factors, states[:, :4])
        assert np.array_equal(col_factors, states[:, 4:])
        masks = selection_masks_from_states(states, 4, 6)
        rejoined = np.bitwise_xor(
            row_factors[:, :, None], col_factors[:, None, :]
        ).reshape(12, 24)
        assert np.array_equal(masks, rejoined)

    def test_generator_measurement_factors(self):
        from repro.ca.selection import CASelectionGenerator

        generator = CASelectionGenerator(8, 8, seed=5, warmup_steps=4)
        row_factors, col_factors = generator.measurement_factors(20)
        dense = generator.measurement_matrix(20)
        rejoined = np.bitwise_xor(
            row_factors[:, :, None], col_factors[:, None, :]
        ).reshape(20, 64)
        assert np.array_equal(rejoined, dense)


class TestStructuredEquivalence:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dictionary", DICTIONARIES)
    @pytest.mark.parametrize("seed", [0, 11])
    def test_products_match_dense(self, shape, dictionary, seed):
        dense, structured = make_pair(shape, dictionary, seed=seed)
        rng = np.random.default_rng(seed)
        coefficients = rng.standard_normal(structured.n_coefficients)
        measurements = rng.standard_normal(structured.n_samples)
        np.testing.assert_allclose(
            structured.matvec(coefficients), dense.matvec(coefficients), atol=ATOL
        )
        np.testing.assert_allclose(
            structured.rmatvec(measurements), dense.rmatvec(measurements), atol=ATOL
        )
        pixels = rng.standard_normal(structured.n_coefficients)
        np.testing.assert_allclose(
            structured.phi_dot(pixels), dense.phi_dot(pixels), atol=ATOL
        )

    @pytest.mark.parametrize("dictionary", DICTIONARIES)
    def test_columns_match_dense(self, dictionary):
        dense, structured = make_pair((8, 16), dictionary, seed=2)
        indices = [0, 3, 17, structured.n_coefficients - 1]
        np.testing.assert_allclose(
            structured.columns(indices), dense.columns(indices), atol=ATOL
        )
        np.testing.assert_allclose(
            structured.column(5), dense.column(5), atol=ATOL
        )
        np.testing.assert_allclose(structured.dense(), dense.dense(), atol=ATOL)

    def test_materialised_phi_matches_shared_builder(self):
        dense, structured = make_pair((8, 8), "dct", seed=4)
        assert structured.phi.tobytes() == dense.phi.tobytes()

    def test_density_matches_dense_mean_bit_for_bit(self):
        _, structured = make_pair((8, 16), "identity", seed=9, center=False)
        assert structured.density == float(structured.phi.mean())

    def test_uncentered_operator(self):
        dense, structured = make_pair((8, 8), "dct", seed=1, center=False)
        vector = np.random.default_rng(0).standard_normal(64)
        np.testing.assert_allclose(
            structured.matvec(vector), dense.matvec(vector), atol=ATOL
        )

    def test_operator_norm_matches_dense(self):
        dense, structured = make_pair((8, 16), "dct", seed=3)
        assert structured.operator_norm() == pytest.approx(
            dense.operator_norm(), rel=1e-6
        )

    def test_empty_columns(self):
        _, structured = make_pair((8, 8), "dct")
        assert structured.columns([]).shape == (structured.n_samples, 0)

    def test_validation_errors(self):
        psi = make_dictionary("dct", (8, 8))
        with pytest.raises(ValueError, match="2-D"):
            StructuredSensingOperator(np.zeros(4), np.zeros((4, 8)))
        with pytest.raises(ValueError, match="sample counts"):
            StructuredSensingOperator(
                np.zeros((4, 8), dtype=np.uint8), np.zeros((5, 8), dtype=np.uint8)
            )
        with pytest.raises(ValueError, match="0/1"):
            StructuredSensingOperator(np.full((4, 8), 2), np.zeros((4, 8)))
        with pytest.raises(ValueError, match="dictionary shape"):
            StructuredSensingOperator(
                np.zeros((4, 8), dtype=np.uint8),
                np.zeros((4, 16), dtype=np.uint8),
                psi,
            )
        _, structured = make_pair((8, 8), "dct")
        with pytest.raises(ValueError, match="entries"):
            structured.phi_dot(np.zeros(7))
        with pytest.raises(ValueError, match="entries"):
            structured.rmatvec(np.zeros(3))


class TestBatchedDictionaries:
    @pytest.mark.parametrize("dictionary", DICTIONARIES)
    @pytest.mark.parametrize("shape", [(8, 8), (8, 16)])
    def test_batch_transforms_match_loops(self, dictionary, shape):
        psi = make_dictionary(dictionary, shape)
        batch = np.random.default_rng(0).standard_normal((5, psi.n_pixels))
        looped = np.stack([psi.synthesize(row) for row in batch])
        np.testing.assert_allclose(psi.synthesize_batch(batch), looped, atol=1e-12)
        looped = np.stack([psi.analyze(row) for row in batch])
        np.testing.assert_allclose(psi.analyze_batch(batch), looped, atol=1e-12)

    @pytest.mark.parametrize("dictionary", DICTIONARIES)
    def test_atoms_match_single_atom(self, dictionary):
        psi = make_dictionary(dictionary, (8, 8))
        indices = [0, 7, 21, 63]
        stacked = psi.atoms(indices)
        assert stacked.shape == (64, len(indices))
        for position, index in enumerate(indices):
            np.testing.assert_allclose(stacked[:, position], psi.atom(index), atol=1e-12)

    def test_atoms_validates_indices(self):
        psi = make_dictionary("dct", (8, 8))
        with pytest.raises(ValueError, match="atom index"):
            psi.atoms([64])

    def test_batch_shape_validated(self):
        psi = make_dictionary("dct", (8, 8))
        with pytest.raises(ValueError, match="shape"):
            psi.synthesize_batch(np.zeros((2, 63)))


class TestOperatorNormCaching:
    def test_memoised_on_instance(self):
        dense, _ = make_pair((8, 8), "dct", seed=6)
        calls = {"n": 0}
        original = dense.phi_dot

        def counting_phi_dot(vector):
            calls["n"] += 1
            return original(vector)

        dense.phi_dot = counting_phi_dot
        first = dense.operator_norm()
        after_first = calls["n"]
        second = dense.operator_norm()
        assert second == first
        assert calls["n"] == after_first  # no extra iterations on the second call

    def test_tolerance_early_exit(self):
        dense, _ = make_pair((8, 8), "dct", seed=6)
        calls = {"n": 0}
        original = dense.phi_dot

        def counting_phi_dot(vector):
            calls["n"] += 1
            return original(vector)

        dense.phi_dot = counting_phi_dot
        loose = dense.operator_norm(tolerance=1e-3)
        loose_calls = calls["n"]
        calls["n"] = 0
        exact = dense.operator_norm(tolerance=0.0)
        assert calls["n"] == 50  # tolerance=0 restores the fixed iteration count
        assert loose_calls < 50
        # The relative-change stop leaves a slack roughly 1/(1 - λ2²/λ1²)
        # times the tolerance when the spectrum is clustered; a loose 1e-3
        # stop is still a few-percent-accurate Lipschitz estimate.
        assert loose == pytest.approx(exact, rel=2e-2)


class TestBatchedSolver:
    def _stack(self, n_tiles=3, shape=(8, 8), dictionary="dct", n_samples=40):
        operators = []
        measurements = []
        rng = np.random.default_rng(0)
        for index in range(n_tiles):
            _, structured = make_pair(
                shape, dictionary, seed=20 + index, n_samples=n_samples
            )
            operators.append(structured)
            measurements.append(rng.standard_normal(n_samples))
        return operators, np.stack(measurements)

    def test_batched_norms_match_solo(self):
        operators, _ = self._stack()
        sigmas = batched_operator_norms(operators)
        assert sigmas.shape == (3,)
        for operator, sigma in zip(operators, sigmas):
            assert sigma == operator.operator_norm()

    @pytest.mark.parametrize("accelerated", [True, False])
    def test_batched_solve_matches_per_tile(self, accelerated):
        operators, measurements = self._stack()
        solo_solver = fista if accelerated else ista
        sigmas = batched_operator_norms(operators)
        steps = 1.0 / sigmas ** 2
        batched = batched_proximal_gradient(
            operators,
            measurements,
            regularization=0.05,
            max_iterations=60,
            step_sizes=steps,
            accelerated=accelerated,
        )
        for operator, y, step, result in zip(
            operators, measurements, steps, batched
        ):
            solo = solo_solver(
                operator,
                y,
                regularization=0.05,
                max_iterations=60,
                step_size=float(step),
            )
            assert result.coefficients.tobytes() == solo.coefficients.tobytes()
            assert result.history == solo.history
            assert result.n_iterations == solo.n_iterations
            assert result.converged == solo.converged

    @pytest.mark.parametrize("accelerated", [True, False])
    def test_step_reductions_match_per_tile(self, accelerated):
        # Steps 4x above 1/σ² fail the sufficient-decrease test: each tile
        # backtracks on its own row, exactly as its solo solve does.
        operators, measurements = self._stack()
        solo_solver = fista if accelerated else ista
        steps = 4.0 / batched_operator_norms(operators) ** 2
        batched = batched_proximal_gradient(
            operators, measurements, regularization=0.05, max_iterations=40,
            step_sizes=steps, accelerated=accelerated,
        )
        for operator, y, step, result in zip(operators, measurements, steps, batched):
            solo = solo_solver(
                operator, y, regularization=0.05, max_iterations=40,
                step_size=float(step),
            )
            assert result.step_reductions > 0
            assert result.step_reductions == solo.step_reductions
            assert result.coefficients.tobytes() == solo.coefficients.tobytes()
            assert result.history == solo.history

    def test_per_tile_regularization(self):
        operators, measurements = self._stack(n_tiles=2)
        weights = np.array([0.01, 0.5])
        batched = batched_proximal_gradient(
            operators, measurements, regularization=weights, max_iterations=40
        )
        for operator, y, weight, result in zip(
            operators, measurements, weights, batched
        ):
            solo = fista(operator, y, regularization=float(weight), max_iterations=40)
            assert result.coefficients.tobytes() == solo.coefficients.tobytes()
            assert result.history == solo.history

    def test_heterogeneous_stack_rejected(self):
        operators, measurements = self._stack(n_tiles=2)
        _, odd = make_pair((8, 16), "dct", seed=30, n_samples=40)
        with pytest.raises(ValueError, match="shapes differ"):
            batched_proximal_gradient(
                [operators[0], odd],
                measurements,
                regularization=0.1,
            )

    def test_dense_operator_rejected(self):
        dense, structured = make_pair((8, 8), "dct")
        with pytest.raises(TypeError, match="Structured"):
            batched_proximal_gradient(
                [dense, structured], np.zeros((2, 40)), regularization=0.1
            )

    def test_measurement_shape_validated(self):
        operators, _ = self._stack(n_tiles=2)
        with pytest.raises(ValueError, match="shape"):
            batched_proximal_gradient(
                operators, np.zeros((2, 13)), regularization=0.1
            )

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            batched_operator_norms([])

    def test_mismatched_sample_counts_rejected(self):
        _, a = make_pair((8, 8), "dct", seed=1, n_samples=40)
        _, b = make_pair((8, 8), "dct", seed=2, n_samples=41)
        with pytest.raises(ValueError, match="sample counts"):
            batched_operator_norms([a, b])

    def test_mismatched_dictionaries_rejected(self):
        _, a = make_pair((8, 8), "dct", seed=1)
        _, b = make_pair((8, 8), "haar", seed=2)
        with pytest.raises(ValueError, match="dictionary"):
            batched_operator_norms([a, b])

    def test_negative_regularization_rejected(self):
        operators, measurements = self._stack(n_tiles=2)
        with pytest.raises(ValueError, match="regularization"):
            batched_proximal_gradient(
                operators, measurements, regularization=np.array([0.1, -0.1])
            )

    def test_non_positive_steps_rejected(self):
        operators, measurements = self._stack(n_tiles=2)
        with pytest.raises(ValueError, match="step_sizes"):
            batched_proximal_gradient(
                operators,
                measurements,
                regularization=0.1,
                step_sizes=np.array([0.0, 0.1]),
            )

    def test_estimated_steps_follow_the_solo_rule(self):
        # At this σ, Python's float power and numpy's array square round σ²
        # apart on common libms; a batched tile must take the solo step.
        sigma = 6.258167291445783
        assert steps_from_norms(np.array([sigma, 0.0])).tolist() == [
            1.0 / sigma**2,
            1.0,
        ]

    def test_zero_operator_tile(self):
        """An all-dark Φ (all factors zero) gets σ=0 and the unit fallback step."""
        zero = StructuredSensingOperator(
            np.zeros((40, 8), dtype=np.uint8),
            np.zeros((40, 8), dtype=np.uint8),
            make_dictionary("dct", (8, 8)),
        )
        sigmas = batched_operator_norms([zero])
        assert sigmas[0] == 0.0
        results = batched_proximal_gradient(
            [zero], np.zeros((1, 40)), regularization=0.1, max_iterations=5
        )
        assert results[0].converged
        assert not results[0].coefficients.any()


class TestNonOrthonormalFallback:
    """A custom non-orthonormal Ψ routes the norm through the full A*A pair."""

    @staticmethod
    def _scaled_dictionary():
        from repro.cs.dictionaries import IdentityDictionary

        class ScaledDictionary(IdentityDictionary):
            orthonormal = False

            def synthesize(self, coefficients):
                return 2.0 * super().synthesize(coefficients)

            def analyze(self, image):
                return 2.0 * super().analyze(image)

            def synthesize_batch(self, coefficients):
                return 2.0 * super().synthesize_batch(coefficients)

            def analyze_batch(self, images):
                return 2.0 * super().analyze_batch(images)

        return ScaledDictionary((8, 8))

    def test_solo_norm_includes_dictionary(self):
        _, structured = make_pair((8, 8), "identity", seed=4)
        scaled = StructuredSensingOperator(
            structured.row_factors,
            structured.col_factors,
            self._scaled_dictionary(),
            center=structured.center,
        )
        assert scaled.operator_norm() == pytest.approx(
            2.0 * structured.operator_norm(), rel=1e-6
        )

    def test_batched_norms_include_dictionary(self):
        _, structured = make_pair((8, 8), "identity", seed=4)
        scaled = StructuredSensingOperator(
            structured.row_factors,
            structured.col_factors,
            self._scaled_dictionary(),
            center=structured.center,
        )
        sigmas = batched_operator_norms([scaled])
        assert sigmas[0] == pytest.approx(scaled.operator_norm(), rel=1e-5)
