"""E16 — reconstruction throughput: matrix-free structured vs dense solves.

The ``recon`` group times the receiver half of the system, which PR 5 made
matrix-free: the rank-structured ``(R, C)`` operator replaces the dense Φ
matmuls, the tiled mosaic is solved by the batched multi-tile FISTA in
cache-sized tile groups (each tile's GEMMs on its own factors), and step
sizes come from each CA operator's closed-form norm estimate.

* ``test_recon_64x64_fista_dense`` / ``..._structured`` — one 64x64 frame
  through the proximal solver, dense reference vs matrix-free default;
* ``test_recon_64x64_omp_dense`` / ``..._structured`` — the greedy path,
  exercising the batched ``columns`` support solves;
* ``test_recon_tiled_256x256_structured_batched`` — the headline: a 16-tile
  256x256 mosaic through the batched structured default.  It must beat the
  dense per-tile loop by a wide margin (``test_batched_structured_beats_dense_per_tile``:
  ~5x on the reference runner; the inline assertion uses a 3x floor for
  noisy shared CI machines);
* ``test_recon_streamed_video_decode_and_reconstruct`` — a four-frame 64x64
  GOP video over loopback with reconstruction *enabled*: the frames/s a
  receiver actually sustains while decoding and inverting.

All entries are wired into ``benchmarks/baseline.json`` under the CI
regression gate, like every other tracked group.
"""

import asyncio
import time
from unittest.mock import patch

import numpy as np
import pytest

from repro.optics.photo import PhotoConversion
from repro.optics.scenes import make_scene
from repro.recon.operator import frame_operator
from repro.recon.pipeline import reconstruct_frame, reconstruct_tiled
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.shard import TiledSensorArray
from repro.sensor.video import VideoSequencer
from repro.stream.node import CameraNode
from repro.stream.receiver import StreamReceiver
from repro.stream.transport import LoopbackTransport

from conftest import print_table

MAX_ITERATIONS = 60
N_VIDEO_FRAMES = 4


@pytest.fixture(scope="module")
def single_frame(benchmark_seed):
    imager = CompressiveImager(SensorConfig(), seed=benchmark_seed)
    scene = make_scene("natural", (64, 64), seed=7)
    current = PhotoConversion(prnu_sigma=0.0, shot_noise=False).convert(scene)
    return imager.capture(current, n_samples=1228)


@pytest.fixture(scope="module")
def mosaic_capture(benchmark_seed):
    array = TiledSensorArray(
        (256, 256),
        tile_shape=(64, 64),
        compression_ratio=0.3,
        executor="serial",
        seed=benchmark_seed,
    )
    scene = make_scene("natural", (256, 256), seed=7)
    current = PhotoConversion(prnu_sigma=0.0, shot_noise=False).convert(scene)
    return array.capture(current)


@pytest.mark.benchmark(group="recon")
def test_recon_64x64_fista_dense(benchmark, single_frame):
    result = benchmark(
        lambda: reconstruct_frame(
            single_frame, operator="dense", max_iterations=MAX_ITERATIONS
        )
    )
    assert result.image.shape == (64, 64)


@pytest.mark.benchmark(group="recon")
def test_recon_64x64_fista_structured(benchmark, single_frame):
    structured = benchmark(
        lambda: reconstruct_frame(single_frame, max_iterations=MAX_ITERATIONS)
    )
    dense = reconstruct_frame(
        single_frame, operator="dense", max_iterations=MAX_ITERATIONS
    )
    # The recon-equivalence invariant, re-checked at benchmark scale: the
    # float64 products match the dense reference at 1e-8, and the default
    # float32 ±1-factor GEMMs stay within the mixed-precision bound of it.
    with patch.dict(frame_operator.__kwdefaults__, precision="float64"):
        exact = reconstruct_frame(single_frame, max_iterations=MAX_ITERATIONS)
    np.testing.assert_allclose(exact.image, dense.image, atol=1e-8)
    error = np.linalg.norm(structured.image - dense.image)
    assert error <= 1e-3 * np.linalg.norm(dense.image)


@pytest.mark.benchmark(group="recon")
def test_recon_64x64_omp_dense(benchmark, single_frame):
    result = benchmark(
        lambda: reconstruct_frame(
            single_frame, solver="omp", sparsity=96, operator="dense"
        )
    )
    assert result.solver_result.sparsity <= 96


@pytest.mark.benchmark(group="recon")
def test_recon_64x64_omp_structured(benchmark, single_frame):
    result = benchmark(
        lambda: reconstruct_frame(single_frame, solver="omp", sparsity=96)
    )
    assert result.solver_result.sparsity <= 96


@pytest.mark.benchmark(group="recon")
def test_recon_tiled_256x256_structured_batched(benchmark, mosaic_capture):
    """The default: stacked structured solves in cache-sized tile groups."""
    result = benchmark(
        lambda: reconstruct_tiled(mosaic_capture, max_iterations=MAX_ITERATIONS)
    )
    assert result.image.shape == (256, 256)
    assert result.metrics["psnr_db"] > 18.0


def test_batched_structured_beats_dense_per_tile(mosaic_capture):
    """The tentpole speedup, asserted: batched structured vs per-tile dense.

    The dense operator always solves tile by tile, serially.  The reference
    runner shows ~5x; the assertion floor is 3x to stay robust on noisy
    shared CI runners.
    """

    def median_time(fn, repeats=3):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return float(np.median(times))

    batched = median_time(
        lambda: reconstruct_tiled(mosaic_capture, max_iterations=MAX_ITERATIONS)
    )
    dense_serial = median_time(
        lambda: reconstruct_tiled(
            mosaic_capture, max_iterations=MAX_ITERATIONS, operator="dense"
        ),
        repeats=1,
    )
    print_table(
        "Tiled 256x256 mosaic reconstruction (60 FISTA iterations)",
        [
            {"path": "dense per-tile serial", "seconds": dense_serial},
            {"path": "structured batched", "seconds": batched},
            {"path": "speedup", "seconds": dense_serial / batched},
        ],
    )
    assert dense_serial / batched > 3.0


@pytest.mark.benchmark(group="recon")
def test_recon_streamed_video_decode_and_reconstruct(benchmark, benchmark_seed):
    """Sustained receiver throughput: decode + incremental reconstruction."""

    def stream_and_reconstruct():
        sequencer = VideoSequencer(
            CompressiveImager(SensorConfig(), seed=benchmark_seed),
            samples_per_frame=512,
            seed=benchmark_seed,
        )
        scenes = [
            make_scene("natural", (64, 64), seed=index)
            for index in range(N_VIDEO_FRAMES)
        ]

        async def scenario():
            transport = LoopbackTransport(max_buffered=4)
            node = CameraNode(transport, gop_size=N_VIDEO_FRAMES)
            receiver = StreamReceiver(max_iterations=MAX_ITERATIONS)
            send_task = asyncio.create_task(
                node.stream_video(sequencer, scenes, keep_digital_image=False)
            )
            result = await receiver.run(transport)
            await send_task
            return result

        return asyncio.run(scenario())

    result = benchmark(stream_and_reconstruct)
    assert result.n_frames == N_VIDEO_FRAMES
    assert all(frame.reconstruction is not None for frame in result.frames)
