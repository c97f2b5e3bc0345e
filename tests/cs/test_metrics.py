"""Tests for the image-quality and recovery metrics."""

import numpy as np
import pytest

from repro.cs.metrics import mse, nmse, psnr, reconstruction_snr, ssim


class TestMseNmse:
    def test_identical_images(self):
        image = np.random.default_rng(0).random((8, 8))
        assert mse(image, image) == 0.0
        assert nmse(image, image) == 0.0

    def test_known_mse(self):
        assert mse(np.zeros((2, 2)), np.ones((2, 2))) == 1.0

    def test_nmse_normalisation(self):
        reference = np.full((4, 4), 2.0)
        estimate = np.full((4, 4), 1.0)
        assert nmse(reference, estimate) == pytest.approx(0.25)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 2)), np.zeros((3, 3)))


class TestPsnr:
    def test_perfect_reconstruction_is_infinite(self):
        image = np.random.default_rng(1).random((8, 8))
        assert psnr(image, image) == float("inf")

    def test_known_value(self):
        reference = np.zeros((4, 4))
        estimate = np.full((4, 4), 0.1)
        assert psnr(reference, estimate, data_range=1.0) == pytest.approx(20.0)

    def test_higher_noise_lower_psnr(self):
        rng = np.random.default_rng(2)
        image = rng.random((16, 16))
        small = image + 0.01 * rng.standard_normal(image.shape)
        large = image + 0.1 * rng.standard_normal(image.shape)
        assert psnr(image, small) > psnr(image, large)

    def test_snr_consistent_with_nmse(self):
        rng = np.random.default_rng(3)
        reference = rng.random((8, 8)) + 1.0
        estimate = reference + 0.05
        expected = -10 * np.log10(nmse(reference, estimate))
        assert reconstruction_snr(reference, estimate) == pytest.approx(expected)


class TestSsim:
    def test_identical_images_score_one(self):
        image = np.random.default_rng(4).random((16, 16))
        assert ssim(image, image) == pytest.approx(1.0)

    def test_noisy_image_scores_lower(self):
        rng = np.random.default_rng(5)
        image = rng.random((32, 32))
        noisy = image + 0.3 * rng.standard_normal(image.shape)
        assert ssim(image, noisy) < 0.9

    def test_monotone_in_noise(self):
        rng = np.random.default_rng(6)
        image = rng.random((32, 32))
        a = ssim(image, image + 0.05 * rng.standard_normal(image.shape))
        b = ssim(image, image + 0.5 * rng.standard_normal(image.shape))
        assert a > b

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            ssim(np.zeros(16), np.zeros(16))

    def test_window_larger_than_image_is_clamped(self):
        image = np.random.default_rng(7).random((4, 4))
        assert ssim(image, image, window=16) == pytest.approx(1.0)
