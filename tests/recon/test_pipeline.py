"""Tests for the end-to-end reconstruction pipeline."""

import numpy as np
import pytest

from repro.cs.matrices import bernoulli_matrix, gaussian_matrix
from repro.optics.photo import PhotoConversion
from repro.optics.scenes import make_scene
from repro.recon.pipeline import reconstruct_frame, reconstruct_samples
from repro.utils.images import image_to_vector


class TestReconstructSamples:
    def test_recovers_smooth_image_from_bernoulli_measurements(self):
        scene = make_scene("blobs", (32, 32), seed=1) * 255
        phi = bernoulli_matrix(400, 1024, seed=2)
        samples = phi @ image_to_vector(scene)
        result = reconstruct_samples(
            phi, samples, (32, 32), solver="fista", max_iterations=150, reference=scene,
        )
        assert result.metrics["psnr_db"] > 22.0

    def test_gaussian_matrix_without_centering(self):
        scene = make_scene("blobs", (16, 16), seed=3) * 255
        phi = gaussian_matrix(140, 256, seed=4)
        samples = phi @ image_to_vector(scene)
        result = reconstruct_samples(
            phi, samples, (16, 16), solver="fista", max_iterations=200, reference=scene,
        )
        assert result.metrics["psnr_db"] > 20.0

    def test_metrics_absent_without_reference(self):
        phi = bernoulli_matrix(50, 256, seed=5)
        samples = phi @ np.ones(256)
        result = reconstruct_samples(phi, samples, (16, 16), max_iterations=20)
        assert result.metrics == {}

    def test_unknown_solver_rejected(self):
        phi = bernoulli_matrix(10, 64, seed=6)
        with pytest.raises(ValueError):
            reconstruct_samples(phi, np.zeros(10), (8, 8), solver="magic")


class TestReconstructFrame:
    @pytest.fixture
    def captured_frame(self, medium_imager):
        scene = make_scene("blobs", (32, 32), seed=7)
        conversion = PhotoConversion(prnu_sigma=0.0, shot_noise=False)
        return medium_imager.capture(conversion.convert(scene), n_samples=400)

    def test_reconstruction_quality_reasonable(self, captured_frame):
        result = reconstruct_frame(captured_frame, max_iterations=150)
        assert result.metrics["psnr_db"] > 22.0

    def test_reconstruction_improves_with_more_samples(self, medium_imager):
        scene = make_scene("blobs", (32, 32), seed=8)
        conversion = PhotoConversion(prnu_sigma=0.0, shot_noise=False)
        current = conversion.convert(scene)
        few = medium_imager.capture(current, n_samples=100)
        many = medium_imager.capture(current, n_samples=500)
        psnr_few = reconstruct_frame(few, max_iterations=120).metrics["psnr_db"]
        psnr_many = reconstruct_frame(many, max_iterations=120).metrics["psnr_db"]
        assert psnr_many > psnr_few

    def test_solver_choices_produce_images(self, captured_frame):
        for solver in ("fista", "ista"):
            result = reconstruct_frame(captured_frame, solver=solver, max_iterations=40)
            assert result.image.shape == (32, 32)

    def test_unknown_solver_rejected(self, captured_frame):
        with pytest.raises(ValueError, match="solver"):
            reconstruct_frame(captured_frame, solver="bogus")

    def test_haar_dictionary_supported(self, captured_frame):
        result = reconstruct_frame(captured_frame, dictionary="haar", max_iterations=80)
        assert result.metrics["psnr_db"] > 15.0

    def test_explicit_reference_overrides_digital_image(self, captured_frame):
        reference = np.zeros((32, 32))
        result = reconstruct_frame(captured_frame, reference=reference, max_iterations=20)
        assert result.metrics["psnr_db"] < 20.0  # against an all-zero reference quality is poor

    def test_reconstruction_without_stored_digital_image(self, medium_imager):
        scene = make_scene("gradient", (32, 32), seed=9)
        frame = medium_imager.capture_scene(scene, n_samples=200, keep_digital_image=False)
        result = reconstruct_frame(frame, max_iterations=60)
        assert result.metrics == {}
        assert result.image.shape == (32, 32)
