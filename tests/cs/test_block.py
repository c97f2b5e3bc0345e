"""Tests for block-based compressive sampling (the baseline strategy)."""

import numpy as np
import pytest

from repro.cs.block import BlockCompressiveSampler
from repro.cs.metrics import psnr
from repro.optics.scenes import make_scene


class TestConfiguration:
    def test_block_count_and_sample_budget(self):
        sampler = BlockCompressiveSampler((64, 64), block_size=8, compression_ratio=0.4)
        assert sampler.n_blocks == 64
        assert sampler.samples_per_block == int(round(0.4 * 64))
        assert sampler.total_samples == 64 * sampler.samples_per_block

    def test_indivisible_shape_rejected(self):
        with pytest.raises(ValueError):
            BlockCompressiveSampler((60, 60), block_size=8)

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            BlockCompressiveSampler((64, 64), compression_ratio=0.0)

    def test_describe_reports_budget(self):
        sampler = BlockCompressiveSampler((32, 32), block_size=16, compression_ratio=0.25)
        description = sampler.describe()
        assert description["n_blocks"] == 4
        assert description["compression_ratio"] == pytest.approx(0.25, abs=0.01)


class TestMeasurement:
    def test_measurement_shape(self):
        sampler = BlockCompressiveSampler((32, 32), block_size=8, compression_ratio=0.3, seed=1)
        scene = make_scene("blobs", (32, 32), seed=2)
        samples = sampler.measure(scene)
        assert samples.shape == (16, sampler.samples_per_block)

    def test_measurement_is_linear(self):
        sampler = BlockCompressiveSampler((16, 16), block_size=8, compression_ratio=0.5, seed=3)
        a = make_scene("gradient", (16, 16), seed=4)
        b = make_scene("blobs", (16, 16), seed=5)
        assert np.allclose(sampler.measure(a + b), sampler.measure(a) + sampler.measure(b))

    def test_wrong_shape_rejected(self):
        sampler = BlockCompressiveSampler((32, 32))
        with pytest.raises(ValueError):
            sampler.measure(np.zeros((16, 16)))

    def test_shared_matrix_across_blocks(self):
        """All blocks use the same Φ_B — constant blocks yield identical samples."""
        sampler = BlockCompressiveSampler((16, 16), block_size=8, compression_ratio=0.5, seed=6)
        scene = np.ones((16, 16))
        samples = sampler.measure(scene)
        assert np.allclose(samples, samples[0])


class TestReconstruction:
    def test_reconstruction_recovers_smooth_scene(self):
        sampler = BlockCompressiveSampler((32, 32), block_size=8, compression_ratio=0.5, seed=7)
        scene = make_scene("blobs", (32, 32), seed=8)
        samples = sampler.measure(scene)
        recovered = sampler.reconstruct(samples, max_iterations=150)
        assert recovered.shape == (32, 32)
        assert psnr(scene, recovered) > 20.0

    def test_more_samples_give_better_reconstruction(self):
        scene = make_scene("blobs", (32, 32), seed=9)
        low = BlockCompressiveSampler((32, 32), block_size=8, compression_ratio=0.15, seed=10)
        high = BlockCompressiveSampler((32, 32), block_size=8, compression_ratio=0.6, seed=10)
        psnr_low = psnr(scene, low.reconstruct(low.measure(scene), max_iterations=120))
        psnr_high = psnr(scene, high.reconstruct(high.measure(scene), max_iterations=120))
        assert psnr_high > psnr_low

    def test_wrong_sample_shape_rejected(self):
        sampler = BlockCompressiveSampler((16, 16), block_size=8)
        with pytest.raises(ValueError):
            sampler.reconstruct(np.zeros((3, 3)))


class TestCAMatrixOption:
    def test_ca_matrix_built_by_shared_builder(self):
        from repro.ca.selection import ca_measurement_matrix
        from repro.utils.rng import nonzero_seed_bits

        sampler = BlockCompressiveSampler(
            (16, 16), block_size=8, compression_ratio=0.5, matrix="ca", seed=5
        )
        expected = ca_measurement_matrix(
            sampler.samples_per_block, 8, 8, nonzero_seed_bits(16, 5), warmup_steps=8
        ).astype(float)
        assert np.array_equal(sampler.phi_block, expected)
        assert set(np.unique(sampler.phi_block)).issubset({0.0, 1.0})

    def test_ca_matrix_reconstructs(self):
        sampler = BlockCompressiveSampler(
            (16, 16), block_size=8, compression_ratio=0.6, matrix="ca", seed=6
        )
        scene = make_scene("gradient", (16, 16), seed=3)
        recovered = sampler.reconstruct(sampler.measure(scene), max_iterations=120)
        assert psnr(scene, recovered) > 18.0

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ValueError):
            BlockCompressiveSampler((16, 16), block_size=8, matrix="gaussian")

    def test_ca_matrix_rejects_degenerate_block_size(self):
        with pytest.raises(ValueError, match="block_size"):
            BlockCompressiveSampler((16, 16), block_size=1, matrix="ca")
