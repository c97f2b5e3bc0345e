"""Tests for rebuilding the measurement operator at the receiver."""

import numpy as np
import pytest

from repro.ca.selection import ca_measurement_matrix
from repro.optics.photo import PhotoConversion
from repro.optics.scenes import make_scene
from repro.recon.operator import frame_operator


class TestMeasurementMatrixFromSeed:
    def test_matches_sensor_matrix_bit_for_bit(self, small_imager):
        """Seed-only reconstruction of Φ is exact — the paper's central property."""
        scene = make_scene("blobs", (16, 16), seed=1)
        conversion = PhotoConversion(prnu_sigma=0.0, shot_noise=False)
        frame = small_imager.capture(conversion.convert(scene), n_samples=25)
        receiver_phi = ca_measurement_matrix(
            frame.n_samples,
            16,
            16,
            frame.seed_state,
            rule=frame.rule_number,
            steps_per_sample=frame.steps_per_sample,
            warmup_steps=frame.warmup_steps,
        )
        assert np.array_equal(receiver_phi, frame.measurement_matrix())

    def test_different_seed_gives_different_matrix(self):
        seed_a = np.zeros(32, dtype=np.uint8)
        seed_a[0] = 1
        seed_b = np.zeros(32, dtype=np.uint8)
        seed_b[1] = 1
        a = ca_measurement_matrix(10, 16, 16, seed_a, warmup_steps=4)
        b = ca_measurement_matrix(10, 16, 16, seed_b, warmup_steps=4)
        assert not np.array_equal(a, b)

    def test_wrong_parameters_give_wrong_matrix(self, small_imager):
        """Receiver must use the same sequencing parameters as the sensor."""
        frame = small_imager.capture_scene(make_scene("blobs", (16, 16), seed=2), n_samples=10)
        wrong = ca_measurement_matrix(
            10, 16, 16, frame.seed_state, steps_per_sample=2, warmup_steps=frame.warmup_steps
        )
        assert not np.array_equal(wrong, frame.measurement_matrix())

    def test_invalid_sample_count(self):
        with pytest.raises(ValueError):
            ca_measurement_matrix(0, 16, 16, np.ones(32, dtype=np.uint8))


class TestFrameOperator:
    def test_operator_shape_matches_frame(self, small_imager):
        frame = small_imager.capture_scene(make_scene("blobs", (16, 16), seed=3), n_samples=30)
        operator, density = frame_operator(frame, dictionary="dct")
        assert operator.shape == (30, 256)
        assert 0.0 < density < 1.0

    def test_uncentered_operator_has_zero_density(self, small_imager):
        frame = small_imager.capture_scene(make_scene("blobs", (16, 16), seed=4), n_samples=10)
        operator, density = frame_operator(frame, center=False)
        assert density == 0.0
        assert set(np.unique(operator.phi)).issubset({0.0, 1.0})

    def test_centered_operator_has_near_zero_mean(self, small_imager):
        frame = small_imager.capture_scene(make_scene("blobs", (16, 16), seed=5), n_samples=10)
        operator, _ = frame_operator(frame, center=True)
        assert abs(operator.phi.mean()) < 1e-12
