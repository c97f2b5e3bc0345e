"""Seeded equivalence regression tests for the batched capture engine.

The behavioural capture path used to materialise one selection pattern at a
time in a Python loop; it is now a single CA-matrix build plus one
(rank-structured) matmul, with the LSB-error injection vectorised over the
whole frame.  These tests pin the contract that made the rewrite safe: for
the same imager seed, the batched engine produces **byte-identical**
``CompressedFrame.samples`` — including the stochastic LSB-error draws, one
binomial per pattern over its selected, unsaturated codes, which must
consume the generator stream in exactly the per-pattern order — across
sensor shapes, CA sequencing parameters and saturation regimes.
``capture_batch`` is likewise pinned against the sequential re-seeding loop
the video sequencer used to run.
"""

import numpy as np
import pytest

from repro.optics.photo import PhotoConversion
from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.utils.rng import derive_seed, new_rng


def photocurrents(shape, seed=0):
    scene = make_scene("blobs", shape, seed=seed)
    return PhotoConversion(prnu_sigma=0.0, shot_noise=False).convert(scene)


def legacy_behavioural_capture(
    imager: CompressiveImager,
    photocurrent: np.ndarray,
    n_samples: int,
    *,
    lsb_error: bool = True,
    auto_expose: bool = True,
):
    """The per-pattern behavioural loop: the capture's executable specification.

    One selection pattern at a time, one scalar binomial draw per pattern
    for the LSB bumps of its selected, unsaturated codes (a bump on a
    saturated code would clip back to ``max_code``).
    """
    if auto_expose:
        imager.auto_expose(photocurrent)
    rng = new_rng(derive_seed(imager.seed, "capture"))
    times = imager.firing_times(photocurrent, rng=rng)
    codes = imager.tdc.ideal_codes(times)
    imager.selection.reset()
    lsb_probability = 0.0
    if lsb_error:
        lsb_probability = imager.config.event_overlap_probability(imager.config.rows // 2)
    samples = np.empty(n_samples, dtype=np.int64)
    n_bumped = 0
    for index, pattern in enumerate(imager.selection.patterns(n_samples)):
        selected_codes = codes[pattern.mask.astype(bool)]
        bumps = 0
        if lsb_probability > 0.0:
            eligible = int(np.count_nonzero(selected_codes < imager.tdc.max_code))
            bumps = int(rng.binomial(eligible, lsb_probability))
        n_bumped += bumps
        samples[index] = int(selected_codes.sum()) + bumps
    return samples, n_bumped, codes


SENSOR_CASES = [
    pytest.param(dict(rows=16, cols=16), dict(), id="16x16-default"),
    pytest.param(dict(rows=32, cols=32), dict(), id="32x32-default"),
    pytest.param(dict(rows=16, cols=32), dict(), id="16x32-rectangular"),
    pytest.param(dict(rows=16, cols=16), dict(steps_per_sample=3), id="16x16-stride3"),
    pytest.param(dict(rows=16, cols=16), dict(warmup_steps=0), id="16x16-no-warmup"),
    pytest.param(dict(rows=16, cols=16), dict(rule=90), id="16x16-rule90"),
]


class TestBehaviouralEquivalence:
    @pytest.mark.parametrize("config_kwargs, imager_kwargs", SENSOR_CASES)
    @pytest.mark.parametrize("lsb_error", [True, False], ids=["lsb", "no-lsb"])
    def test_batched_capture_matches_legacy_loop(
        self, config_kwargs, imager_kwargs, lsb_error
    ):
        config = SensorConfig(**config_kwargs)
        current = photocurrents((config.rows, config.cols), seed=7)
        n_samples = 60
        reference_imager = CompressiveImager(config, seed=99, **imager_kwargs)
        expected, expected_bumps, expected_codes = legacy_behavioural_capture(
            reference_imager, current, n_samples, lsb_error=lsb_error
        )
        frame = CompressiveImager(config, seed=99, **imager_kwargs).capture(
            current, n_samples=n_samples, lsb_error=lsb_error
        )
        assert frame.samples.dtype == expected.dtype
        assert frame.samples.tobytes() == expected.tobytes()
        assert frame.metadata["n_lsb_errors"] == expected_bumps
        assert np.array_equal(frame.digital_image, expected_codes)

    def test_saturated_codes_match_legacy_loop(self):
        """Saturated pixels leave the bump draw; it must stay exact.

        Without auto-exposure the scene leaves pixels that never fire
        inside the conversion window, so their codes clip at ``max_code``
        and an LSB bump on them must neither shift the sample nor count as
        an error — in either engine.  The regime is mixed: some pixels live,
        some saturated, and the frame books bumps.
        """
        config = SensorConfig(rows=16, cols=16)
        current = photocurrents((16, 16), seed=5)  # unexposed: 154 of 256 saturate
        reference_imager = CompressiveImager(config, seed=11)
        expected, expected_bumps, expected_codes = legacy_behavioural_capture(
            reference_imager, current, 40, auto_expose=False
        )
        saturated = expected_codes >= reference_imager.tdc.max_code
        assert saturated.any() and not saturated.all()  # regime check
        assert expected_bumps >= 1
        frame = CompressiveImager(config, seed=11).capture(
            current, n_samples=40, auto_expose=False
        )
        assert frame.samples.tobytes() == expected.tobytes()
        assert frame.metadata["n_lsb_errors"] == expected_bumps

    def test_generator_left_where_legacy_loop_left_it(self):
        """A follow-up capture must continue the CA exactly as before."""
        config = SensorConfig(rows=16, cols=16)
        current = photocurrents((16, 16), seed=2)
        legacy = CompressiveImager(config, seed=4)
        legacy_behavioural_capture(legacy, current, 25)
        batched = CompressiveImager(config, seed=4)
        batched.capture(current, n_samples=25)
        assert np.array_equal(
            legacy.selection._automaton.state, batched.selection._automaton.state
        )
        assert legacy.selection.sample_index == batched.selection.sample_index


def sequential_capture_batch(
    imager: CompressiveImager, currents, n_samples: int
):
    """The per-frame loop `VideoSequencer` used to run: capture, then re-seed
    the generator from the CA end state with no warm-up."""
    from repro.ca.selection import CASelectionGenerator

    frames = []
    for current in currents:
        frames.append(imager.capture(current, n_samples=n_samples))
        end_state = imager.selection._automaton.state
        imager.selection = CASelectionGenerator(
            imager.config.rows,
            imager.config.cols,
            seed_state=end_state,
            rule=imager.rule_number,
            steps_per_sample=imager.steps_per_sample,
            warmup_steps=0,
        )
        imager.warmup_steps = 0
    return frames


class TestCaptureBatchEquivalence:
    def test_capture_batch_matches_sequential_loop(self):
        config = SensorConfig(rows=16, cols=16)
        currents = [photocurrents((16, 16), seed=s) for s in range(4)]
        expected = sequential_capture_batch(
            CompressiveImager(config, seed=21), currents, 30
        )
        frames = CompressiveImager(config, seed=21).capture_batch(
            currents, n_samples=30
        )
        assert len(frames) == len(expected)
        for frame, reference in zip(frames, expected):
            assert frame.samples.tobytes() == reference.samples.tobytes()
            assert np.array_equal(frame.seed_state, reference.seed_state)
            assert frame.warmup_steps == reference.warmup_steps
            assert frame.metadata["n_lsb_errors"] == reference.metadata["n_lsb_errors"]
            assert np.array_equal(frame.digital_image, reference.digital_image)

    def test_capture_batch_frames_independently_decodable(self):
        config = SensorConfig(rows=16, cols=16)
        currents = [photocurrents((16, 16), seed=s) for s in range(3)]
        imager = CompressiveImager(config, seed=33)
        frames = imager.capture_batch(currents, n_samples=20, lsb_error=False)
        for frame in frames:
            phi = frame.measurement_matrix()
            expected = phi.astype(np.int64) @ frame.digital_image.reshape(-1)
            assert np.array_equal(frame.samples, expected)

    def test_capture_batch_then_capture_continues_the_ca(self):
        config = SensorConfig(rows=16, cols=16)
        currents = [photocurrents((16, 16), seed=s) for s in range(2)]
        sequential = CompressiveImager(config, seed=8)
        sequential_capture_batch(sequential, currents, 15)
        follow_up_expected = sequential.capture(currents[0], n_samples=15)
        batched = CompressiveImager(config, seed=8)
        batched.capture_batch(currents, n_samples=15)
        follow_up = batched.capture(currents[0], n_samples=15)
        assert follow_up.samples.tobytes() == follow_up_expected.samples.tobytes()
        assert np.array_equal(follow_up.seed_state, follow_up_expected.seed_state)

    def test_empty_batch(self):
        imager = CompressiveImager(SensorConfig(rows=16, cols=16), seed=1)
        assert imager.capture_batch([]) == []

    def test_single_sample_frames(self):
        """n_samples=1 makes consecutive frames share their only pattern."""
        config = SensorConfig(rows=16, cols=16)
        currents = [photocurrents((16, 16), seed=s) for s in range(3)]
        expected = sequential_capture_batch(
            CompressiveImager(config, seed=13), currents, 1
        )
        frames = CompressiveImager(config, seed=13).capture_batch(currents, n_samples=1)
        for frame, reference in zip(frames, expected):
            assert frame.samples.tobytes() == reference.samples.tobytes()
            assert np.array_equal(frame.seed_state, reference.seed_state)
