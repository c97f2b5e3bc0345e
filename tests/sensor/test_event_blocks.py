"""The event-accurate engine arbitrates its samples block by block.

Arbitration is independent per sample, so ``_capture_event`` expands only
``EVENT_BLOCK_SLOTS`` pixel instances at a time and carries the per-column
sums and event counts across blocks.  Pinned here:

* **block boundaries** — with blocks shrunk to one sample, to seven and to a
  ragged last block, captures stay event-for-event identical to the
  reference loop and to a single-block run;
* **bounded memory** — a 64x64, 512-sample event capture stays within a few
  MB of traced allocation (it used to trace 210.6 MB).
"""

import tracemalloc

import numpy as np
import pytest

import repro.sensor.imager as imager_module
from repro.optics.photo import PhotoConversion
from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager

KEYS = ("n_lost_events", "n_queued_events", "n_lsb_errors", "max_queue_delay")


def currents(shape, seed):
    return PhotoConversion(prnu_sigma=0.0, shot_noise=False).convert(
        make_scene("natural", shape, seed=seed)
    )


def event_capture(config, current, n_samples, engine="batched", **kwargs):
    imager = CompressiveImager(config, seed=99)
    return imager.capture(
        current, n_samples=n_samples, fidelity="event", engine=engine, **kwargs
    )


def assert_same_events(got, want):
    assert got.samples.tobytes() == want.samples.tobytes()
    for key in KEYS:
        assert got.metadata[key] == want.metadata[key], key


@pytest.mark.parametrize("samples_per_block", [1, 7, 23])
@pytest.mark.parametrize(
    "config",
    [
        pytest.param(SensorConfig(rows=16, cols=16), id="16x16"),
        pytest.param(SensorConfig(rows=16, cols=16, event_duration=5e-7), id="16x16-queued"),
    ],
)
def test_blocks_match_the_reference_loop(monkeypatch, config, samples_per_block):
    monkeypatch.setattr(
        imager_module, "EVENT_BLOCK_SLOTS", samples_per_block * config.rows * config.cols
    )
    current = currents((16, 16), seed=4)
    batched = event_capture(config, current, 24)
    assert batched.metadata["n_queued_events"] > 0  # regime check
    assert_same_events(batched, event_capture(config, current, 24, engine="reference"))


def test_blocks_match_one_block_at_full_size(monkeypatch):
    config = SensorConfig(rows=64, cols=64)
    current = currents((64, 64), seed=2018)
    blocked = event_capture(config, current, 40)
    monkeypatch.setattr(imager_module, "EVENT_BLOCK_SLOTS", 40 * 64 * 64)
    assert_same_events(blocked, event_capture(config, current, 40))


def test_saturated_blocks_count_lost_events(monkeypatch):
    monkeypatch.setattr(imager_module, "EVENT_BLOCK_SLOTS", 3 * 16 * 16)
    config = SensorConfig(rows=16, cols=16)
    current = currents((16, 16), seed=5) * 1e-3
    batched = event_capture(config, current, 20, auto_expose=False)
    assert batched.metadata["n_lost_events"] > 0  # regime check
    reference = event_capture(config, current, 20, engine="reference", auto_expose=False)
    assert_same_events(batched, reference)


def test_event_capture_memory_is_bounded():
    imager = CompressiveImager(SensorConfig(rows=64, cols=64), seed=1)
    current = currents((64, 64), seed=2018)

    def run():
        return imager.capture(current, n_samples=512, fidelity="event")

    run()  # warm caches and lazy imports outside the trace
    tracemalloc.start()
    try:
        frame = run()
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert frame.metadata["n_queued_events"] > 0 and np.all(frame.samples > 0)
    assert peak_mb <= 16.0
