"""Tests for the top-level CompressiveImager."""

import copy

import numpy as np
import pytest

from repro.optics.photo import PhotoConversion
from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager


def photocurrents(shape, seed=0):
    scene = make_scene("blobs", shape, seed=seed)
    conversion = PhotoConversion(prnu_sigma=0.0, shot_noise=False)
    return conversion.convert(scene)


class TestConstruction:
    def test_conversion_window_must_fit_sample_period(self):
        # A huge counter at a slow clock cannot finish within the 20 us budget.
        config = SensorConfig(clock_frequency=1e6)
        with pytest.raises(ValueError, match="conversion window"):
            CompressiveImager(config)

    def test_ca_seed_is_rows_plus_cols_bits(self, small_imager, small_config):
        assert small_imager.selection.seed_state.size == small_config.rows + small_config.cols

    def test_same_seed_same_ca_seed_state(self, small_config):
        a = CompressiveImager(small_config, seed=7)
        b = CompressiveImager(small_config, seed=7)
        assert np.array_equal(a.selection.seed_state, b.selection.seed_state)


class TestExposureAndCodes:
    def test_auto_expose_keeps_pixels_inside_window(self, small_imager, small_config):
        current = photocurrents((16, 16))
        small_imager.auto_expose(current)
        codes = small_imager.digital_image(current)
        assert codes.max() < small_imager.tdc.max_code
        assert codes.min() >= 0

    def test_digital_image_monotonic_in_light(self, small_imager):
        current = photocurrents((16, 16))
        small_imager.auto_expose(current)
        codes = small_imager.digital_image(current)
        brightest = np.unravel_index(np.argmax(current), current.shape)
        darkest = np.unravel_index(np.argmin(current), current.shape)
        assert codes[brightest] <= codes[darkest]

    def test_wrong_shape_rejected(self, small_imager):
        with pytest.raises(ValueError):
            small_imager.firing_times(np.zeros((8, 8)))

    def test_auto_expose_requires_positive_currents(self, small_imager):
        with pytest.raises(ValueError):
            small_imager.auto_expose(np.zeros((16, 16)))


class TestBehaviouralCapture:
    def test_default_sample_count_follows_compression_ratio(self, small_imager, small_config):
        frame = small_imager.capture(photocurrents((16, 16)))
        assert frame.n_samples == small_config.samples_per_frame

    def test_samples_match_phi_times_codes_without_lsb_error(self, small_imager):
        """Behavioural capture is exactly y = Φ x when the LSB error is disabled."""
        current = photocurrents((16, 16))
        frame = small_imager.capture(current, n_samples=40, lsb_error=False)
        phi = frame.measurement_matrix()
        expected = phi.astype(np.int64) @ frame.digital_image.reshape(-1)
        assert np.array_equal(frame.samples, expected)

    def test_samples_fit_in_compressed_sample_bits(self, small_imager, small_config):
        frame = small_imager.capture(photocurrents((16, 16)), n_samples=64)
        assert frame.samples.max() < (1 << small_config.compressed_sample_bits)
        assert frame.samples.min() >= 0

    def test_lsb_error_perturbs_samples_only_slightly(self, small_imager):
        current = photocurrents((16, 16))
        clean = small_imager.capture(current, n_samples=50, lsb_error=False)
        noisy = small_imager.capture(current, n_samples=50, lsb_error=True)
        difference = np.abs(noisy.samples - clean.samples)
        assert difference.max() <= 16  # a handful of +1 LSB bumps per sample at most
        assert noisy.metadata["n_lsb_errors"] >= 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("fidelity", ["behavioural", "event"])
    def test_capture_is_reproducible(self, small_config, fidelity, seed):
        """``capture`` is a one-frame ``capture_batch`` on a copy of the
        imager: it leaves the CA seed and warm-up where it found them, so a
        repeat capture, or one by a fresh imager, gives the same frame."""
        current = photocurrents((16, 16), seed=seed)
        imager = CompressiveImager(small_config, seed=seed)
        selection, seed_state = imager.selection, imager.selection.seed_state
        batch = copy.deepcopy(imager).capture_batch(
            [current], n_samples=30, fidelity=fidelity
        )[0]
        frames = [
            imager.capture(current, n_samples=30, fidelity=fidelity),
            imager.capture(current, n_samples=30, fidelity=fidelity),
            CompressiveImager(small_config, seed=seed).capture(
                current, n_samples=30, fidelity=fidelity
            ),
        ]
        assert imager.selection is selection
        assert np.array_equal(imager.selection.seed_state, seed_state)
        assert imager.warmup_steps == 8
        for frame in frames:
            assert frame.samples.tobytes() == batch.samples.tobytes()
            assert np.array_equal(frame.seed_state, batch.seed_state)
            assert frame.warmup_steps == batch.warmup_steps == 8
            assert frame.metadata == batch.metadata

    def test_metadata_fields_present(self, small_imager):
        frame = small_imager.capture(photocurrents((16, 16)), n_samples=10)
        for key in ("fidelity", "n_lsb_errors", "n_lost_events", "n_saturated_pixels"):
            assert key in frame.metadata

    def test_behavioural_metadata_is_modelled(self, small_imager):
        """Behavioural captures report modelled event statistics, not zeros."""
        frame = small_imager.capture(photocurrents((16, 16)), n_samples=20)
        assert frame.metadata["event_statistics"] == "modelled"
        # Auto-exposed scene: nothing falls outside the window...
        assert frame.metadata["n_lost_events"] == 0
        # ...but the overlap model still predicts a non-zero queueing
        # expectation (a float — it is an expectation, not a count).
        assert isinstance(frame.metadata["n_queued_events"], float)
        assert frame.metadata["n_queued_events"] > 0.0

    @pytest.mark.parametrize(
        ("side", "n_samples"), [(16, 15), (32, 400)], ids=["16x16", "32x32"]
    )
    def test_behavioural_lost_count_matches_event_prefilter(self, side, n_samples):
        """The modelled loss count equals the event engine's out-of-window
        losses — the behavioural sum keeps those pixels at ``max_code``
        while the event engine drops their pulse, which is exactly the
        distinction the metadata documents.  The larger frame gives the
        rank-structured count many more partial sums to get exact."""
        config = SensorConfig(rows=side, cols=side)
        current = photocurrents((side, side), seed=5) * 1e-3  # dim: most saturate
        behavioural = CompressiveImager(config, seed=11).capture(
            current, n_samples=n_samples, auto_expose=False
        )
        event = CompressiveImager(config, seed=11).capture(
            current, n_samples=n_samples, auto_expose=False, fidelity="event"
        )
        assert behavioural.metadata["n_lost_events"] > 0
        assert (
            behavioural.metadata["n_lost_events"] == event.metadata["n_lost_events"]
        )

    def test_keep_digital_image_flag(self, small_imager):
        frame = small_imager.capture(
            photocurrents((16, 16)), n_samples=5, keep_digital_image=False
        )
        assert frame.digital_image is None

    def test_invalid_fidelity_rejected(self, small_imager):
        with pytest.raises(ValueError):
            small_imager.capture(photocurrents((16, 16)), n_samples=5, fidelity="spice")


class TestEventCapture:
    def test_event_capture_close_to_behavioural(self, small_imager):
        """The event-accurate path must agree with Φx up to the ±1 LSB queueing error."""
        current = photocurrents((16, 16), seed=3)
        behavioural = small_imager.capture(current, n_samples=12, lsb_error=False)
        event = small_imager.capture(current, n_samples=12, fidelity="event")
        assert event.metadata["n_lost_events"] == 0
        n_selected_bound = small_imager.config.n_pixels
        assert np.all(np.abs(event.samples - behavioural.samples) <= n_selected_bound)
        # The relative error of each sample stays tiny.
        relative = np.abs(event.samples - behavioural.samples) / behavioural.samples
        assert relative.max() < 0.02

    def test_event_capture_without_lsb_error_matches_exactly(self, small_imager):
        current = photocurrents((16, 16), seed=4)
        behavioural = small_imager.capture(current, n_samples=8, lsb_error=False)
        event = small_imager.capture(current, n_samples=8, fidelity="event", lsb_error=False)
        assert event.metadata["n_lost_events"] == 0
        assert np.array_equal(event.samples, behavioural.samples)

    def test_event_capture_reports_queueing(self, small_imager):
        # A constant scene makes all selected pixels of a column fire together,
        # which exercises the token protocol heavily.
        current = np.full((16, 16), 5e-9)
        frame = small_imager.capture(current, n_samples=4, fidelity="event")
        assert frame.metadata["n_queued_events"] > 0


class TestCompressedFrame:
    def test_compression_ratio_and_bit_savings(self, small_imager):
        frame = small_imager.capture(photocurrents((16, 16)), n_samples=51)
        assert frame.compression_ratio == pytest.approx(51 / 256)
        assert frame.raw_bits == 256 * 8
        assert frame.compressed_bits == 51 * frame.config.compressed_sample_bits
        assert frame.bit_savings == pytest.approx(1 - frame.compressed_bits / frame.raw_bits)

    def test_measurement_matrix_reproducible_from_seed_only(self, small_imager):
        """Receiver-side property: the frame's seed fully determines Φ."""
        frame = small_imager.capture(photocurrents((16, 16)), n_samples=20)
        phi_a = frame.measurement_matrix()
        phi_b = frame.measurement_matrix()
        assert np.array_equal(phi_a, phi_b)
        assert phi_a.shape == (20, 256)

    def test_error_free_samples_are_phi_times_codes(self, small_imager):
        current = photocurrents((16, 16))
        frame = small_imager.capture(current, n_samples=15, lsb_error=False)
        codes = frame.digital_image.reshape(-1).astype(np.int64)
        ideal = frame.measurement_matrix().astype(np.int64) @ codes
        assert np.array_equal(ideal, frame.samples)

    def test_capture_scene_wrapper(self, small_imager):
        frame = small_imager.capture_scene(make_scene("gradient", (16, 16), seed=1), n_samples=10)
        assert frame.n_samples == 10
