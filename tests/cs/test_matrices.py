"""Tests for the measurement-matrix constructions."""

import hashlib

import numpy as np
import pytest

from repro.cs.matrices import (
    _sylvester_hadamard,
    bernoulli_matrix,
    ca_xor_matrix,
    center_matrix,
    gaussian_matrix,
    lfsr_matrix,
    selection_density,
    subsampled_hadamard_matrix,
)


class TestDenseEnsembles:
    def test_gaussian_shape_and_scale(self):
        phi = gaussian_matrix(100, 256, seed=0)
        assert phi.shape == (100, 256)
        # Row norms concentrate around sqrt(n/m) with the 1/sqrt(m) scaling.
        row_norms = np.linalg.norm(phi, axis=1)
        assert np.allclose(row_norms.mean(), np.sqrt(256 / 100), rtol=0.1)

    def test_gaussian_reproducible(self):
        assert np.array_equal(gaussian_matrix(10, 20, seed=1), gaussian_matrix(10, 20, seed=1))

    def test_bernoulli_entries_and_density(self):
        phi = bernoulli_matrix(200, 200, density=0.3, seed=3)
        assert set(np.unique(phi)).issubset({0.0, 1.0})
        assert 0.27 < phi.mean() < 0.33

    def test_bernoulli_invalid_density(self):
        with pytest.raises(ValueError):
            bernoulli_matrix(10, 10, density=1.5)


class TestHadamard:
    def test_shape_and_orthogonal_rows(self):
        phi = subsampled_hadamard_matrix(32, 64, seed=4)
        assert phi.shape == (32, 64)
        gram = phi @ phi.T
        # Distinct Hadamard rows are orthogonal; scaling gives n/m on the diagonal.
        off_diagonal = gram - np.diag(np.diag(gram))
        assert np.allclose(off_diagonal, 0.0, atol=1e-10)

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            subsampled_hadamard_matrix(10, 100)

    @pytest.mark.parametrize("order", [2**k for k in range(11)])
    def test_sylvester_matches_scipy(self, order):
        """The numpy construction equals ``scipy.linalg.hadamard`` entry for
        entry; the doubling step is the same at every order, so 1..1024
        (8 MB each in float64) covers it."""
        from scipy.linalg import hadamard

        assert np.array_equal(_sylvester_hadamard(order), hadamard(order))

    def test_subsampled_bytes_pinned(self):
        """Digest of the ensemble as built on ``scipy.linalg.hadamard``: the
        numpy construction must not change a byte of it."""
        phi = subsampled_hadamard_matrix(32, 64, seed=4)
        assert phi.dtype == np.float64 and phi.flags["C_CONTIGUOUS"]
        assert hashlib.sha256(phi.tobytes()).hexdigest() == (
            "846efb56c60d355dd75afe9c9c906b5fbf4f4c7a188bd18d27fa9f9ab5592806"
        )

    def test_cannot_oversample(self):
        with pytest.raises(ValueError):
            subsampled_hadamard_matrix(128, 64)


class TestCAXorMatrix:
    def test_shape_and_binary_entries(self):
        phi = ca_xor_matrix(50, (16, 16), seed=5)
        assert phi.shape == (50, 256)
        assert set(np.unique(phi)).issubset({0.0, 1.0})

    def test_deterministic_given_seed_state(self):
        seed_state = np.ones(32, dtype=np.uint8)
        seed_state[::3] = 0
        a = ca_xor_matrix(20, (16, 16), seed_state=seed_state)
        b = ca_xor_matrix(20, (16, 16), seed_state=seed_state)
        assert np.array_equal(a, b)

    def test_rows_have_rank_one_xor_structure(self):
        """Each row is an outer XOR of row/column signals: as a 0/1 image it has rank <= 2."""
        phi = ca_xor_matrix(5, (16, 16), seed=6)
        for row in phi:
            mask = row.reshape(16, 16)
            assert np.linalg.matrix_rank(mask) <= 2

    def test_density_near_half(self):
        phi = ca_xor_matrix(100, (16, 16), seed=7, warmup_steps=8)
        assert 0.35 < selection_density(phi) < 0.65


class TestLFSRMatrix:
    def test_shape_and_entries(self):
        phi = lfsr_matrix(30, (8, 8), seed=8)
        assert phi.shape == (30, 64)
        assert set(np.unique(phi)).issubset({0.0, 1.0})

    def test_reproducible(self):
        assert np.array_equal(lfsr_matrix(10, (8, 8), seed=9), lfsr_matrix(10, (8, 8), seed=9))


class TestCentering:
    def test_center_removes_mean(self):
        phi = bernoulli_matrix(50, 100, seed=10)
        centered = center_matrix(phi)
        assert abs(centered.mean()) < 1e-12

    def test_center_with_explicit_density(self):
        phi = np.ones((2, 4))
        centered = center_matrix(phi, density=0.5)
        assert np.allclose(centered, 0.5)

    def test_selection_density_of_known_mask(self):
        assert selection_density(np.array([[1, 0], [0, 1]])) == 0.5

    def test_selection_density_empty_rejected(self):
        with pytest.raises(ValueError):
            selection_density(np.empty((0, 0)))
