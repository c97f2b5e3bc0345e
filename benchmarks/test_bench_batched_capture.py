"""E13 — batched capture engine throughput.

Times the layers the batched engines rewrote: the vectorised Φ builder (one
CA evolution + one broadcast XOR), the single-frame behavioural capture
(rank-structured matmul + one LSB draw per selected event, streamed through
a fixed buffer; with and without saturated pixels), the multi-frame
``capture_batch`` fast path that shares one CA state stack across a whole
sequence, and — since PR 2 — the column-parallel event-accurate engine
(vectorised bus arbitration across all sample x column instances).  Together
with ``test_bench_throughput.py`` these numbers make hot-path regressions
visible; the capture-equivalence suites guarantee the speed does not come at
the cost of bit-fidelity, and CI's regression gate
(``benchmarks/check_regression.py``) fails when a tracked group's median
drifts more than 30 % past ``benchmarks/baseline.json``.
"""

import time

import numpy as np
import pytest

from repro.ca.selection import ca_measurement_matrix
from repro.optics.photo import PhotoConversion
from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.video import VideoSequencer


def make_inputs(rows=64, cols=64, seed=2018):
    config = SensorConfig(rows=rows, cols=cols)
    imager = CompressiveImager(config, seed=seed)
    scene = make_scene("natural", (rows, cols), seed=seed)
    current = PhotoConversion(prnu_sigma=0.0, shot_noise=False).convert(scene)
    return imager, current


@pytest.mark.benchmark(group="phi-build")
def test_batched_phi_build_full_frame(benchmark):
    """Φ for a full 64x64 frame (4096 samples) in one batched pass."""
    imager, _ = make_inputs()
    seed_state = imager.selection.seed_state
    phi = benchmark(
        lambda: ca_measurement_matrix(4096, 64, 64, seed_state, warmup_steps=8)
    )
    assert phi.shape == (4096, 4096)
    assert phi.dtype == np.uint8


@pytest.mark.benchmark(group="behavioural-capture")
def test_batched_behavioural_capture_no_lsb(benchmark):
    """The pure Φ@x path, isolating the matmul from the LSB draw cost."""
    imager, current = make_inputs()
    frame = benchmark(lambda: imager.capture(current, n_samples=512, lsb_error=False))
    assert frame.metadata["n_lsb_errors"] == 0


@pytest.mark.benchmark(group="behavioural-capture")
def test_batched_behavioural_capture_with_lsb(benchmark):
    """Same capture with the stochastic LSB error batched over every event."""
    imager, current = make_inputs()
    frame = benchmark(lambda: imager.capture(current, n_samples=512))
    assert frame.n_samples == 512


@pytest.mark.benchmark(group="behavioural-capture")
def test_saturated_behavioural_capture(benchmark):
    """A full-budget frame whose codes saturate: each LSB hit needs its pixel.

    Saturated codes send the streamed LSB draws through the per-hit pixel
    lookup from the CA factor bits (the path that used to build the whole
    frame's mask and per-event index lists).
    """
    imager, current = make_inputs()
    frame = benchmark(
        lambda: imager.capture(current * 0.25, n_samples=1638, auto_expose=False)
    )
    assert frame.metadata["n_saturated_pixels"] > 0


@pytest.mark.benchmark(group="behavioural-capture")
def test_capture_batch_eight_frames(benchmark):
    """Eight 512-sample frames through one shared CA state stack."""
    imager, current = make_inputs()
    currents = [current] * 8

    def run():
        frames = imager.capture_batch(currents, n_samples=512)
        return frames

    frames = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(frames) == 8
    assert all(frame.n_samples == 512 for frame in frames)


@pytest.mark.benchmark(group="behavioural-capture")
def test_video_sequencer_throughput(benchmark):
    """The video path end to end (conversion + batched multi-frame capture)."""
    imager, _ = make_inputs(rows=32, cols=32)
    sequencer = VideoSequencer(
        imager,
        conversion=PhotoConversion(prnu_sigma=0.0, shot_noise=False),
        samples_per_frame=256,
    )
    scenes = [make_scene("blobs", (32, 32), seed=s) for s in range(8)]
    result = benchmark.pedantic(
        lambda: sequencer.capture_sequence(scenes), rounds=3, iterations=1
    )
    assert result.n_frames == 8


# --------------------------------------------------------- event fidelity
@pytest.mark.benchmark(group="event-capture")
def test_batched_event_capture_64x64(benchmark):
    """Event-accurate capture (column-parallel arbitration) at 64x64."""
    imager, current = make_inputs()
    frame = benchmark.pedantic(
        lambda: imager.capture(current, n_samples=256, fidelity="event"),
        rounds=3,
        iterations=1,
    )
    assert frame.n_samples == 256
    assert frame.metadata["event_statistics"] == "exact"


@pytest.mark.benchmark(group="event-capture")
def test_batched_event_capture_heavy_contention(benchmark):
    """A constant scene fires every selected pixel of a column at once."""
    imager, _ = make_inputs(rows=32, cols=32)
    current = np.full((32, 32), 5e-9)
    frame = benchmark.pedantic(
        lambda: imager.capture(current, n_samples=128, fidelity="event"),
        rounds=3,
        iterations=1,
    )
    assert frame.metadata["n_queued_events"] > 0


@pytest.mark.benchmark(group="event-capture")
def test_capture_batch_event_fidelity(benchmark):
    """Four event-accurate frames through one shared CA state stack."""
    imager, current = make_inputs()
    currents = [current] * 4
    frames = benchmark.pedantic(
        lambda: imager.capture_batch(currents, n_samples=128, fidelity="event"),
        rounds=3,
        iterations=1,
    )
    assert len(frames) == 4


def test_event_capture_speedup_over_reference():
    """The batched engine must beat the per-event loop by >= 5x at 64x64.

    Measured on identical captures (same seed, same scene, byte-identical
    output — the equivalence suite's contract); a single round keeps the
    reference loop affordable in CI.
    """
    imager, current = make_inputs()
    start = time.perf_counter()
    reference = imager.capture(
        current, n_samples=32, fidelity="event", engine="reference"
    )
    reference_elapsed = time.perf_counter() - start

    imager, current = make_inputs()
    start = time.perf_counter()
    batched = imager.capture(current, n_samples=32, fidelity="event")
    batched_elapsed = time.perf_counter() - start

    assert batched.samples.tobytes() == reference.samples.tobytes()
    speedup = reference_elapsed / batched_elapsed
    print(
        f"\nevent-accurate 32-sample 64x64 capture: reference "
        f"{reference_elapsed * 1e3:.1f} ms, batched {batched_elapsed * 1e3:.1f} ms "
        f"({speedup:.1f}x)"
    )
    assert speedup >= 5.0
