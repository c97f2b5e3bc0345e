"""The behavioural capture draws its LSB errors per sample.

The late-detection error bumps each selected, unsaturated event by one LSB
independently with probability ``p``, so sample ``i`` gains a
Binomial(eligible_i, p) number of bumps.  The exact capture draws that count
directly, one vector ``rng.binomial`` call per frame, instead of one uniform
per selected event.  Pinned here:

* **per-pattern reference** — an unsaturated frame, a frame with saturated
  pixels and a degenerate state stack with empty samples all give the
  samples, error count and next generator draw of a loop that draws one
  scalar binomial per pattern;
* **distribution** — over many seeded draws the per-sample bump counts
  have the Binomial(eligible, p) mean and variance, and their totals match
  the one-uniform-per-event :func:`~repro.sensor.tdc.apply_stochastic_lsb_error`;
* **bounded memory** — a 64x64 capture, saturated or not, and a 256x256
  tiled capture stay within a few MB of traced allocation (a frame's
  per-event draw vector alone used to be 27 MB).
"""

import tracemalloc

import numpy as np

from repro.ca.selection import selection_masks_from_states
from repro.optics.photo import PhotoConversion
from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.shard import TiledSensorArray
from repro.sensor.tdc import apply_stochastic_lsb_error
from repro.utils.rng import new_rng

CONFIG = SensorConfig(rows=64, cols=64)


def per_pattern_reference(imager, states, codes, probability, rng):
    """The per-pattern loop over an explicit state stack.

    One selection mask at a time, one scalar binomial draw per mask over
    its selected, unsaturated codes (a bump on a saturated code clips away).
    """
    flat = codes.reshape(-1)
    masks = selection_masks_from_states(states, imager.config.rows, imager.config.cols)
    samples = np.empty(len(states), dtype=np.int64)
    n_bumped = 0
    for index, mask in enumerate(masks.astype(bool)):
        selected = flat[mask]
        eligible = int(np.count_nonzero(selected < imager.tdc.max_code))
        bumps = int(rng.binomial(eligible, probability))
        n_bumped += bumps
        samples[index] = int(selected.sum()) + bumps
    return samples, n_bumped


def frame_inputs(current, n_samples, *, auto_expose=True, config=CONFIG):
    imager = CompressiveImager(config, seed=99)
    if auto_expose:
        imager.auto_expose(current)
    codes = imager.tdc.ideal_codes(imager.firing_times(current, rng=new_rng(1)))
    return imager, imager.selection.next_states(n_samples), codes


def assert_matches_reference(imager, states, codes):
    probability = imager._behavioural_lsb_probability(True)
    engine_rng, reference_rng = new_rng(5), new_rng(5)
    samples, n_bumped = imager._behavioural_samples(
        states, codes, lsb_probability=probability, rng=engine_rng
    )
    expected, expected_bumps = per_pattern_reference(
        imager, states, codes, probability, reference_rng
    )
    assert samples.tobytes() == expected.tobytes()
    assert n_bumped == expected_bumps
    assert engine_rng.random() == reference_rng.random()


def blobs(seed, shape=(64, 64)):
    scene = make_scene("blobs", shape, seed=seed)
    return PhotoConversion(prnu_sigma=0.0, shot_noise=False).convert(scene)


class TestPerPatternReference:
    def test_unsaturated_frame(self):
        imager, states, codes = frame_inputs(blobs(7), 12)
        assert codes.max() < imager.tdc.max_code  # regime check
        assert_matches_reference(imager, states, codes)

    def test_saturated_frame(self):
        # Unexposed, the blobs leave over half the 64x64 array unfired.
        imager, states, codes = frame_inputs(blobs(5), 12, auto_expose=False)
        saturated = codes >= imager.tdc.max_code
        assert saturated.any() and not saturated.all()  # regime check
        assert_matches_reference(imager, states, codes)

    def test_empty_samples(self):
        """All-equal CA states select nothing: their draws are Binomial(0, p)."""
        imager, states, codes = frame_inputs(blobs(3), 6)
        width = CONFIG.rows + CONFIG.cols
        zeros = np.zeros((2, width), dtype=states.dtype)
        ones = np.ones((1, width), dtype=states.dtype)
        stack = np.concatenate([zeros, states[:2], ones, zeros, states[2:], ones])
        assert_matches_reference(imager, stack, codes)


class TestBumpDistribution:
    """Seeded: the draws cannot turn red by chance."""

    PROBABILITY = 0.2
    N_DRAWS = 400

    def frame(self):
        config = SensorConfig(rows=16, cols=16)
        imager, states, codes = frame_inputs(
            blobs(5, (16, 16)), 40, auto_expose=False, config=config
        )
        live = codes.reshape(-1) < imager.tdc.max_code
        assert live.any() and not live.all()  # regime check
        masks = selection_masks_from_states(states, config.rows, config.cols).astype(bool)
        return imager, states, codes, masks, (masks & live).sum(axis=1)

    def test_per_sample_counts_are_binomial(self):
        imager, states, codes, _, eligible = self.frame()
        p = self.PROBABILITY
        clean, _ = imager._behavioural_samples(
            states, codes, lsb_probability=0.0, rng=new_rng(0)
        )
        bumps = np.array([
            imager._behavioural_samples(
                states, codes, lsb_probability=p, rng=new_rng(seed)
            )[0] - clean
            for seed in range(self.N_DRAWS)
        ])
        assert (bumps >= 0).all() and (bumps <= eligible).all()
        mean, variance = eligible * p, eligible * p * (1 - p)
        # Each sample's mean sits within 4 standard errors of n·p, its
        # variance within 25% of n·p·(1 − p) (400 draws: ~7% standard error).
        assert np.all(np.abs(bumps.mean(axis=0) - mean) <= 4 * np.sqrt(variance / self.N_DRAWS))
        assert np.allclose(bumps.var(axis=0, ddof=1), variance, rtol=0.25)

    def test_totals_match_the_per_event_draw(self):
        imager, states, codes, masks, eligible = self.frame()
        p = self.PROBABILITY
        flat = codes.reshape(-1)
        engine_totals, event_totals = [], []
        for seed in range(self.N_DRAWS):
            engine_totals.append(
                imager._behavioural_samples(
                    states, codes, lsb_probability=p, rng=new_rng(seed)
                )[1]
            )
            rng = new_rng(10_000 + seed)
            event_totals.append(sum(
                int(np.count_nonzero(
                    apply_stochastic_lsb_error(
                        flat[mask], p, max_code=imager.tdc.max_code, rng=rng
                    ) - flat[mask]
                ))
                for mask in masks
            ))
        engine_totals, event_totals = np.array(engine_totals), np.array(event_totals)
        expected_variance = eligible.sum() * p * (1 - p)
        standard_error = np.sqrt(2 * expected_variance / self.N_DRAWS)
        assert abs(engine_totals.mean() - event_totals.mean()) <= 4 * standard_error
        assert abs(engine_totals.mean() - eligible.sum() * p) <= 4 * standard_error
        for totals in (engine_totals, event_totals):
            assert np.isclose(totals.var(ddof=1), expected_variance, rtol=0.25)


def traced_peak_mb(run):
    run()  # warm caches and lazy imports outside the trace
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Traced peaks of full-size captures (one 64x64 frame drew 27 MB)."""

    def test_capture_scene(self):
        imager = CompressiveImager(CONFIG, seed=1)
        scene = make_scene("natural", (64, 64), seed=3)
        assert traced_peak_mb(lambda: imager.capture_scene(scene, n_samples=1638)) <= 8.0

    def test_saturated_capture(self):
        imager = CompressiveImager(CONFIG, seed=1)
        current = make_scene("natural", (64, 64), seed=3)  # raw currents
        frame = imager.capture(current, n_samples=1638)
        assert frame.metadata["n_saturated_pixels"] > 0  # regime check
        assert traced_peak_mb(lambda: imager.capture(current, n_samples=1638)) <= 8.0

    def test_tiled_capture_scene(self):
        # Serial tiles keep the peak deterministic: a thread pool's peak
        # depends on how many tile captures the scheduler overlaps.
        array = TiledSensorArray((256, 256), seed=5, executor="serial")
        scene = make_scene("natural", (256, 256), seed=3)
        assert traced_peak_mb(lambda: array.capture_scene(scene)) <= 10.0
