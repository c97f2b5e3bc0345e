"""The behavioural capture streams its LSB draws through a fixed buffer.

The late-detection error is one uniform draw per selected event.  The exact
capture no longer holds a frame's worth of draws: it takes them
``LSB_DRAW_CHUNK`` at a time from the same generator stream and keeps only
the hits.  Pinned here:

* **chunk boundaries** — with the chunk shrunk to 1, 7 and 4099 draws, so
  that the events of one sample straddle blocks, an unsaturated frame, a
  saturated frame and a degenerate state stack with empty samples all give
  the per-pattern loop's samples, error count and next generator draw;
* **bounded memory** — a 64x64 capture, saturated or not, and a 256x256
  tiled capture stay within a few MB of traced allocation (the draw vector
  alone used to be 27 MB per 64x64 frame).
"""

import tracemalloc

import numpy as np
import pytest

import repro.sensor.tdc as tdc_module
from repro.ca.selection import selection_masks_from_states
from repro.optics.photo import PhotoConversion
from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.shard import TiledSensorArray
from repro.sensor.tdc import apply_stochastic_lsb_error, iter_lsb_bump_hits
from repro.utils.rng import new_rng

CONFIG = SensorConfig(rows=64, cols=64)
CHUNKS = [1, 7, 4099]


def per_pattern_reference(imager, states, codes, probability, rng):
    """The legacy per-pattern loop over an explicit state stack.

    One selection mask at a time, one draw call per mask over its selected
    codes in raster order, no call for an empty mask.
    """
    flat = codes.reshape(-1)
    masks = selection_masks_from_states(states, imager.config.rows, imager.config.cols)
    samples = np.empty(len(states), dtype=np.int64)
    n_bumped = 0
    for index, mask in enumerate(masks.astype(bool)):
        selected = flat[mask]
        if selected.size:
            bumped = apply_stochastic_lsb_error(
                selected, probability, max_code=imager.tdc.max_code, rng=rng
            )
            n_bumped += int(np.count_nonzero(bumped - selected))
            selected = bumped
        samples[index] = int(selected.sum())
    return samples, n_bumped


def frame_inputs(current, n_samples, *, auto_expose=True):
    imager = CompressiveImager(CONFIG, seed=99)
    if auto_expose:
        imager.auto_expose(current)
    codes = imager.tdc.ideal_codes(imager.firing_times(current, rng=new_rng(1)))
    return imager, imager.selection.next_states(n_samples), codes


def assert_matches_reference(imager, states, codes):
    probability = imager._behavioural_lsb_probability(True)
    streamed_rng, reference_rng = new_rng(5), new_rng(5)
    samples, n_bumped = imager._behavioural_samples(
        states, codes, lsb_probability=probability, rng=streamed_rng
    )
    expected, expected_bumps = per_pattern_reference(
        imager, states, codes, probability, reference_rng
    )
    assert samples.tobytes() == expected.tobytes()
    assert n_bumped == expected_bumps
    assert streamed_rng.random() == reference_rng.random()


def blobs(seed):
    scene = make_scene("blobs", (64, 64), seed=seed)
    return PhotoConversion(prnu_sigma=0.0, shot_noise=False).convert(scene)


@pytest.mark.parametrize("chunk", CHUNKS)
class TestChunkBoundaries:
    def test_unsaturated_frame(self, monkeypatch, chunk):
        monkeypatch.setattr(tdc_module, "LSB_DRAW_CHUNK", chunk)
        imager, states, codes = frame_inputs(blobs(7), 12)
        assert codes.max() < imager.tdc.max_code  # regime check
        assert_matches_reference(imager, states, codes)

    def test_saturated_frame(self, monkeypatch, chunk):
        monkeypatch.setattr(tdc_module, "LSB_DRAW_CHUNK", chunk)
        # Unexposed, the blobs leave over half the 64x64 array unfired.
        imager, states, codes = frame_inputs(blobs(5), 12, auto_expose=False)
        saturated = codes >= imager.tdc.max_code
        assert saturated.any() and not saturated.all()  # regime check
        assert_matches_reference(imager, states, codes)

    def test_empty_samples(self, monkeypatch, chunk):
        """All-equal CA states select nothing: their segments are empty."""
        monkeypatch.setattr(tdc_module, "LSB_DRAW_CHUNK", chunk)
        imager, states, codes = frame_inputs(blobs(3), 6)
        width = CONFIG.rows + CONFIG.cols
        zeros = np.zeros((2, width), dtype=states.dtype)
        ones = np.ones((1, width), dtype=states.dtype)
        stack = np.concatenate([zeros, states[:2], ones, zeros, states[2:], ones])
        assert_matches_reference(imager, stack, codes)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_hits_match_the_batched_draw(monkeypatch, chunk):
    monkeypatch.setattr(tdc_module, "LSB_DRAW_CHUNK", chunk)
    streamed_rng, batched_rng = new_rng(3), new_rng(3)
    hits = list(iter_lsb_bump_hits(10_000, 0.1, rng=streamed_rng))
    expected = np.flatnonzero(batched_rng.random(10_000) < 0.1)
    assert np.array_equal(np.concatenate(hits), expected)
    assert streamed_rng.random() == batched_rng.random()


def test_no_draws_yield_nothing():
    rng = new_rng(0)
    assert list(iter_lsb_bump_hits(0, 0.5, rng=rng)) == []
    assert rng.random() == new_rng(0).random()


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
