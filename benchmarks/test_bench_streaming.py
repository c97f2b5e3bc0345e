"""E15 — streaming pipeline throughput (capture → wire → decode).

The ``streaming`` group times the full camera-node service over the bounded
in-memory loopback transport, with reconstruction disabled so the numbers
isolate the streaming machinery itself (capture in a worker, v2 frame
encoding, chunk framing, transport hand-off, incremental chunk parsing and
frame decoding):

* ``test_stream_loopback_64x64_video`` — an 8-frame 64x64 video stream with
  seed-once GOPs: the sustained frames-per-second of a single-chip node;
* ``test_stream_loopback_tiled_256x256`` — one 256x256 mosaic frame (16
  tiles of 64x64) streamed tile-by-tile through ``iter_capture``.

Both are wired into ``benchmarks/baseline.json``, so CI's regression gate
(``benchmarks/check_regression.py``) guards the streaming hot path exactly
like the capture engines.
"""

import asyncio

import pytest

from repro.optics.photo import PhotoConversion
from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.shard import TiledSensorArray
from repro.sensor.video import VideoSequencer
from repro.stream.node import CameraNode
from repro.stream.receiver import StreamReceiver
from repro.stream.transport import LoopbackTransport

N_VIDEO_FRAMES = 8


def _stream_video_once():
    sequencer = VideoSequencer(
        CompressiveImager(SensorConfig(), seed=2018),
        samples_per_frame=512,
        seed=2018,
    )
    scenes = [
        make_scene("natural", (64, 64), seed=index) for index in range(N_VIDEO_FRAMES)
    ]

    async def scenario():
        transport = LoopbackTransport(max_buffered=4)
        node = CameraNode(transport, gop_size=4)
        receiver = StreamReceiver(reconstruct=False)
        send_task = asyncio.create_task(
            node.stream_video(sequencer, scenes, keep_digital_image=False)
        )
        result = await receiver.run(transport)
        await send_task
        return result

    return asyncio.run(scenario())


def _stream_tiled_once():
    array = TiledSensorArray(
        (256, 256),
        tile_shape=(64, 64),
        compression_ratio=0.1,
        max_workers=1,
        seed=2018,
    )
    scene = make_scene("natural", (256, 256), seed=7)
    current = PhotoConversion(prnu_sigma=0.0, shot_noise=False).convert(scene)

    async def scenario():
        transport = LoopbackTransport(max_buffered=4)
        node = CameraNode(transport)
        receiver = StreamReceiver(reconstruct=False)
        send_task = asyncio.create_task(
            node.stream_tiled(array, current, keep_digital_image=False)
        )
        result = await receiver.run(transport)
        await send_task
        return result

    return asyncio.run(scenario())


@pytest.mark.benchmark(group="streaming")
def test_stream_loopback_64x64_video(benchmark):
    """Loopback frames/sec for a single-chip 512-sample video stream."""
    result = benchmark.pedantic(_stream_video_once, rounds=3, iterations=1)
    assert result.n_frames == N_VIDEO_FRAMES
    frames_per_second = N_VIDEO_FRAMES / benchmark.stats.stats.median
    print(f"\nloopback 64x64 video: {frames_per_second:.1f} frames/s "
          f"({result.n_bytes} bytes for {result.n_frames} frames)")


@pytest.mark.benchmark(group="streaming")
def test_stream_loopback_tiled_256x256(benchmark):
    """Loopback wall-clock for one 16-tile 256x256 mosaic frame."""
    result = benchmark.pedantic(_stream_tiled_once, rounds=3, iterations=1)
    assert result.n_frames == 1
    assert result.frames[0].capture.n_tiles == 16
    print(f"\nloopback tiled 256x256: {benchmark.stats.stats.median * 1e3:.1f} ms "
          f"per mosaic frame ({result.n_bytes} bytes)")
