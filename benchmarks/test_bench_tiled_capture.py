"""E14 — sharded tiled-sensor capture throughput.

A single sensor cannot capture a 256x256 scene at the Table II clocks at
all: the 8-bit TDC conversion window (~10.7 µs) no longer fits the
compressed-sample period (~1.3 µs at R = 0.4, 30 fps), and
:class:`~repro.sensor.imager.CompressiveImager` rejects the configuration.
Scaling the architecture is therefore scaling *out* — a mosaic of 64x64
chips capturing concurrently (:class:`~repro.sensor.shard.TiledSensorArray`)
— and these benchmarks track what that buys:

* the ``tiled-capture`` group times the 256x256 mosaic capture serial,
  threaded, and in the float32 fast mode, so CI's regression gate
  (``benchmarks/check_regression.py``) guards the sharded hot path like any
  other;
* ``test_parallel_capture_beats_serial`` asserts the executor actually pays:
  over paired rounds with BLAS at one thread, ``max_workers > 1`` must beat
  ``max_workers = 1`` wall-clock in the median on any multi-core machine
  (it is skipped on single-core runners, where no executor can win).
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.optics.photo import PhotoConversion
from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.shard import TiledSensorArray

SCENE_SHAPE = (256, 256)


def make_scene_current(shape=SCENE_SHAPE, seed=2018):
    scene = make_scene("natural", shape, seed=seed)
    return PhotoConversion(prnu_sigma=0.0, shot_noise=False).convert(scene)


def make_array(**kwargs):
    kwargs.setdefault("seed", 2018)
    return TiledSensorArray(SCENE_SHAPE, tile_shape=(64, 64), **kwargs)


def test_single_sensor_cannot_reach_256x256():
    """The architectural fact the sharded subsystem exists for."""
    with pytest.raises(ValueError, match="conversion window"):
        CompressiveImager(SensorConfig(rows=256, cols=256))


@pytest.mark.benchmark(group="tiled-capture")
def test_tiled_capture_256x256_serial(benchmark):
    """16 tiles of 64x64, captured inline — the max_workers=1 reference."""
    array = make_array(executor="serial")
    current = make_scene_current()
    result = benchmark.pedantic(
        lambda: array.capture(current, keep_digital_image=False),
        rounds=3,
        iterations=1,
    )
    assert result.n_tiles == 16
    assert result.n_samples == 16 * round(0.4 * 64 * 64)


@pytest.mark.benchmark(group="tiled-capture")
def test_tiled_capture_256x256_threaded(benchmark):
    """The same mosaic through a 4-worker thread pool."""
    array = make_array(executor="thread", max_workers=4)
    current = make_scene_current()
    result = benchmark.pedantic(
        lambda: array.capture(current, keep_digital_image=False),
        rounds=3,
        iterations=1,
    )
    assert result.metadata["executor"] == "thread"


@pytest.mark.benchmark(group="tiled-capture")
def test_tiled_capture_256x256_float32(benchmark):
    """The float32 fast mode: single-precision matmuls, expected-LSB model."""
    array = make_array(executor="thread", max_workers=4, dtype="float32")
    current = make_scene_current()
    result = benchmark.pedantic(
        lambda: array.capture(current, keep_digital_image=False),
        rounds=3,
        iterations=1,
    )
    assert result.metadata["dtype"] == "float32"


#: BLAS thread variables pinned to one thread for the paired comparison.
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PAIRED_ROUNDS = 5


def paired_capture_times(n_rounds=PAIRED_ROUNDS):
    """Wall-clock seconds of back-to-back serial/thread/process captures.

    Each round times the three executors on the same capture, rotating
    which goes first, so a shared runner's speed swings hit every side of
    a round alike.  Returns one ``{executor: seconds}`` dict per round.
    """
    current = make_scene_current()
    array = make_array(executor="serial")
    array.capture(current, keep_digital_image=False)  # warm caches
    configs = [
        ("serial", {"executor": "serial"}),
        ("thread", {"executor": "thread", "max_workers": 4}),
        ("process", {"executor": "process", "max_workers": 4}),
    ]
    rounds = []
    for index in range(n_rounds):
        shift = index % len(configs)
        timings = {}
        for name, capture_kwargs in configs[shift:] + configs[:shift]:
            start = time.perf_counter()
            array.capture(current, keep_digital_image=False, **capture_kwargs)
            timings[name] = time.perf_counter() - start
        rounds.append(timings)
    return rounds


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="parallel capture cannot beat serial on a single core",
)
def test_parallel_capture_beats_serial():
    """max_workers > 1 must win wall-clock over max_workers = 1.

    Identical captures (the executors are pinned byte-identical by the
    shard test suite).  The runs go in a fresh interpreter with BLAS at one
    thread: otherwise the "serial" capture already spreads its matrix
    products over every core (on a 2-vCPU runner it used 2.0 s of CPU per
    second), and the executor can only compete with BLAS for them.  The
    runs are paired, and the gate is the median over the rounds of serial
    over best parallel time.  Which pool wins is hardware-dependent —
    threads when the numpy hot path releases the GIL cleanly, processes
    when it does not — so the claim gated here is the honest one: the
    *best parallel* configuration beats serial on a multi-core machine.
    """
    here = Path(__file__).resolve().parent
    env = dict(os.environ, **{name: "1" for name in BLAS_VARIABLES})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(here.parent / "src"), str(here), env.get("PYTHONPATH", "")]
    )
    child = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json, test_bench_tiled_capture as bench; "
            "print(json.dumps(bench.paired_capture_times()))",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    rounds = json.loads(child.stdout.strip().splitlines()[-1])
    speedups = [t["serial"] / min(t["thread"], t["process"]) for t in rounds]
    for timings, speedup in zip(rounds, speedups):
        print(
            f"\n256x256 tiled capture: serial {timings['serial'] * 1e3:.1f} ms, "
            f"4 threads {timings['thread'] * 1e3:.1f} ms, "
            f"4 processes {timings['process'] * 1e3:.1f} ms ({speedup:.2f}x)"
        )
    assert statistics.median(speedups) > 1.0
