"""Tests for the sensing operator A = Φ Ψ."""

import numpy as np
import pytest

from repro.cs.dictionaries import DCT2Dictionary, IdentityDictionary
from repro.cs.matrices import bernoulli_matrix, gaussian_matrix
from repro.cs.operators import SensingOperator


class TestConstruction:
    def test_infers_identity_dictionary_for_square_pixel_count(self):
        operator = SensingOperator(np.zeros((5, 16)))
        assert isinstance(operator.dictionary, IdentityDictionary)
        assert operator.dictionary.shape == (4, 4)

    def test_non_square_without_dictionary_uses_1d_identity(self):
        operator = SensingOperator(np.zeros((5, 12)))
        assert isinstance(operator.dictionary, IdentityDictionary)
        assert operator.dictionary.shape == (12, 1)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SensingOperator(np.zeros((5, 16)), DCT2Dictionary((8, 8)))

    def test_shape_properties(self):
        operator = SensingOperator(np.zeros((5, 16)), DCT2Dictionary((4, 4)))
        assert operator.shape == (5, 16)
        assert operator.n_samples == 5
        assert operator.n_coefficients == 16


class TestProducts:
    def test_matvec_matches_dense(self):
        phi = gaussian_matrix(12, 64, seed=0)
        operator = SensingOperator(phi, DCT2Dictionary((8, 8)))
        dense = operator.dense()
        rng = np.random.default_rng(1)
        z = rng.standard_normal(64)
        assert np.allclose(operator.matvec(z), dense @ z)

    def test_rmatvec_is_adjoint_of_matvec(self):
        """<A z, y> == <z, A* y> for random vectors — the adjoint test."""
        phi = gaussian_matrix(20, 64, seed=2)
        operator = SensingOperator(phi, DCT2Dictionary((8, 8)))
        rng = np.random.default_rng(3)
        z = rng.standard_normal(64)
        y = rng.standard_normal(20)
        assert np.dot(operator.matvec(z), y) == pytest.approx(np.dot(z, operator.rmatvec(y)))

    def test_columns_subset(self):
        phi = bernoulli_matrix(10, 16, seed=5)
        operator = SensingOperator(phi, DCT2Dictionary((4, 4)))
        submatrix = operator.columns([1, 3, 7])
        assert submatrix.shape == (10, 3)
        assert np.allclose(submatrix[:, 1], operator.phi_dot(operator.dictionary.atom(3)))

    def test_rmatvec_rejects_wrong_length(self):
        operator = SensingOperator(np.zeros((5, 16)))
        with pytest.raises(ValueError):
            operator.rmatvec(np.zeros(6))


class TestNormAndImages:
    def test_operator_norm_matches_svd(self):
        phi = gaussian_matrix(20, 36, seed=6)
        operator = SensingOperator(phi, DCT2Dictionary((6, 6)))
        exact = np.linalg.svd(operator.dense(), compute_uv=False)[0]
        assert operator.operator_norm(n_iterations=100) == pytest.approx(exact, rel=1e-3)

    def test_identity_dictionary_norm_equals_phi_norm(self):
        phi = gaussian_matrix(15, 25, seed=7)
        operator = SensingOperator(phi, IdentityDictionary((5, 5)))
        exact = np.linalg.svd(phi, compute_uv=False)[0]
        assert operator.operator_norm(n_iterations=100) == pytest.approx(exact, rel=1e-3)

    def test_coefficients_to_image_round_trip(self):
        operator = SensingOperator(np.zeros((3, 64)), DCT2Dictionary((8, 8)))
        rng = np.random.default_rng(8)
        image = rng.standard_normal((8, 8))
        coefficients = operator.image_to_coefficients(image)
        assert np.allclose(operator.coefficients_to_image(coefficients), image)
