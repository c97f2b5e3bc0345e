"""Tests for the coherence / RIP-proxy analysis."""

import numpy as np
import pytest

from repro.cs.dictionaries import DCT2Dictionary
from repro.cs.matrices import bernoulli_matrix, ca_xor_matrix, center_matrix, gaussian_matrix
from repro.cs.rip import (
    effective_rank,
    matrix_quality_report,
    mutual_coherence,
    restricted_isometry_estimate,
)


class TestMutualCoherence:
    def test_orthogonal_matrix_has_zero_coherence(self):
        assert mutual_coherence(np.eye(8)) == pytest.approx(0.0)

    def test_duplicate_columns_have_unit_coherence(self):
        column = np.random.default_rng(0).standard_normal((10, 1))
        matrix = np.hstack([column, column, np.random.default_rng(1).standard_normal((10, 3))])
        assert mutual_coherence(matrix) == pytest.approx(1.0)

    def test_gaussian_coherence_in_expected_range(self):
        phi = gaussian_matrix(64, 128, seed=2)
        coherence = mutual_coherence(phi)
        assert 0.1 < coherence < 0.7

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError):
            mutual_coherence(np.zeros(5))


class TestRipEstimate:
    def test_orthogonal_matrix_has_zero_delta(self):
        report = restricted_isometry_estimate(np.eye(32), sparsity=4, n_trials=50, seed=0)
        assert report["delta_estimate"] == pytest.approx(0.0, abs=1e-10)

    def test_gaussian_better_than_rank_deficient(self):
        phi_good = gaussian_matrix(64, 128, seed=5)
        # A rank-deficient matrix: every row identical.
        phi_bad = np.tile(phi_good[:1], (64, 1))
        good = restricted_isometry_estimate(phi_good, sparsity=6, n_trials=100, seed=1)
        bad = restricted_isometry_estimate(phi_bad, sparsity=6, n_trials=100, seed=1)
        assert good["delta_estimate"] < bad["delta_estimate"]

    def test_delta_grows_with_sparsity(self):
        phi = gaussian_matrix(40, 120, seed=6)
        small = restricted_isometry_estimate(phi, sparsity=2, n_trials=150, seed=2)
        large = restricted_isometry_estimate(phi, sparsity=20, n_trials=150, seed=2)
        assert large["delta_estimate"] >= small["delta_estimate"]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            restricted_isometry_estimate(np.eye(4), sparsity=0)


class TestEffectiveRank:
    def test_full_rank_identity(self):
        assert effective_rank(np.eye(16)) == 16

    def test_rank_one_matrix(self):
        matrix = np.outer(np.ones(8), np.ones(8))
        assert effective_rank(matrix) == 1

    def test_invalid_energy_rejected(self):
        with pytest.raises(ValueError):
            effective_rank(np.eye(4), energy=0.0)


class TestMatrixQualityReport:
    def test_report_fields(self):
        phi = bernoulli_matrix(40, 64, seed=7)
        report = matrix_quality_report(phi, sparsity=4, n_trials=30, seed=3)
        for key in ("mutual_coherence", "delta_estimate", "effective_rank", "row_mean"):
            assert key in report

    def test_centred_ca_matrix_comparable_to_bernoulli(self):
        """The paper's claim in spirit: CA-XOR selection behaves like a random matrix."""
        shape = (16, 16)
        n_samples = 96
        ca = center_matrix(ca_xor_matrix(n_samples, shape, seed=8, warmup_steps=8))
        bern = center_matrix(bernoulli_matrix(n_samples, 256, seed=9))
        dictionary = DCT2Dictionary(shape)
        ca_report = matrix_quality_report(
            ca, sparsity=8, n_trials=40, seed=4, dictionary=dictionary
        )
        bern_report = matrix_quality_report(
            bern, sparsity=8, n_trials=40, seed=4, dictionary=dictionary
        )
        # The CA-XOR matrix has structure (rank-2 masks), so allow a factor but
        # require the same order of magnitude of conditioning.
        assert ca_report["delta_estimate"] < 3.0 * bern_report["delta_estimate"] + 0.5
        assert ca_report["effective_rank"] > 0.5 * bern_report["effective_rank"]
