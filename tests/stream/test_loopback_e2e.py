"""End-to-end streaming acceptance tests.

These pin the subsystem's two system-level guarantees:

* a tiled 256x256 video sequence streamed over the loopback transport
  reconstructs **byte-identically** to direct in-process
  :func:`~repro.recon.pipeline.reconstruct_tiled`, with the capture's event
  statistics and metadata surviving the wire;
* buffering is **bounded**: a slow receiver stalls the camera node through
  transport backpressure instead of growing the in-flight queue.
"""

import asyncio

import numpy as np
import pytest

from repro.optics.scenes import make_scene
from repro.recon.pipeline import reconstruct_tiled
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.shard import TiledSensorArray
from repro.stream.node import CameraNode
from repro.stream.receiver import StreamReceiver
from repro.stream.transport import LoopbackTransport, connect_tcp, serve_tcp


def run(coro):
    return asyncio.run(coro)


def _array(scene_shape=(256, 256), ratio=0.05, seed=11):
    return TiledSensorArray(
        scene_shape,
        tile_shape=(64, 64),
        compression_ratio=ratio,
        max_workers=1,
        seed=seed,
    )


class TestTiled256VideoByteIdentical:
    """The headline acceptance test: 256x256 tiled video over loopback."""

    SCENES = 2
    RECON_KWARGS = dict(max_iterations=12)

    @pytest.fixture(scope="class")
    def streamed_and_direct(self):
        scenes = [
            make_scene("natural", (256, 256), seed=40 + index)
            for index in range(self.SCENES)
        ]

        async def scenario():
            transport = LoopbackTransport(max_buffered=4)
            node = CameraNode(transport, gop_size=self.SCENES)
            receiver = StreamReceiver(**self.RECON_KWARGS)
            send_task = asyncio.create_task(
                node.stream_tiled_video(_array(), scenes)
            )
            result = await receiver.run(transport)
            stats = await send_task
            return result, stats

        result, stats = run(scenario())
        direct_captures = _array().capture_scene_sequence(scenes)
        direct_recons = [
            reconstruct_tiled(capture, **self.RECON_KWARGS)
            for capture in direct_captures
        ]
        return result, stats, direct_captures, direct_recons

    def test_samples_survive_the_wire_bit_for_bit(self, streamed_and_direct):
        result, _, direct_captures, _ = streamed_and_direct
        assert result.n_frames == self.SCENES
        for received, direct in zip(result.frames, direct_captures):
            assert np.array_equal(received.capture.samples, direct.samples)
            for (_, streamed_tile), (_, direct_tile) in zip(
                received.capture.frames(), direct.frames()
            ):
                assert np.array_equal(streamed_tile.samples, direct_tile.samples)
                assert np.array_equal(
                    streamed_tile.seed_state, direct_tile.seed_state
                )

    def test_reconstruction_is_byte_identical(self, streamed_and_direct):
        result, _, _, direct_recons = streamed_and_direct
        for received, direct in zip(result.frames, direct_recons):
            streamed_image = received.reconstruction.image
            assert streamed_image.dtype == direct.image.dtype
            assert streamed_image.tobytes() == direct.image.tobytes()

    def test_statistics_and_metadata_survive_the_wire(self, streamed_and_direct):
        result, _, direct_captures, _ = streamed_and_direct
        for received, direct in zip(result.frames, direct_captures):
            for key in (
                "n_lost_events",
                "n_queued_events",
                "n_lsb_errors",
                "n_saturated_pixels",
                "event_statistics",
            ):
                assert received.capture.metadata[key] == direct.metadata[key], key
            # Per-tile CA parameters and capture statistics too.
            for (_, streamed_tile), (_, direct_tile) in zip(
                received.capture.frames(), direct.frames()
            ):
                assert streamed_tile.rule_number == direct_tile.rule_number
                assert streamed_tile.warmup_steps == direct_tile.warmup_steps
                assert (
                    streamed_tile.metadata["n_lsb_errors"]
                    == direct_tile.metadata["n_lsb_errors"]
                )

    def test_seed_rides_once_per_gop(self, streamed_and_direct):
        _, stats, _, _ = streamed_and_direct
        # 2 frames x 16 tiles + header + 2 barriers + end = 37 chunks; the
        # second frame's 16 tile chunks are all seedless.
        assert stats.n_chunks == self.SCENES * 16 + 1 + self.SCENES + 1

    def test_compression_ratio_is_preserved(self, streamed_and_direct):
        result, _, direct_captures, _ = streamed_and_direct
        for received, direct in zip(result.frames, direct_captures):
            assert received.capture.n_samples == direct.n_samples
            assert received.capture.compression_ratio == direct.compression_ratio


class TestSlowReceiverBackpressure:
    """A slow consumer must stall the node, not grow the buffer."""

    def test_buffering_is_bounded_and_nothing_is_lost(self):
        imager = CompressiveImager(SensorConfig(rows=16, cols=16), seed=3)
        scenes = [make_scene("blobs", (16, 16), seed=index) for index in range(12)]
        max_buffered = 2

        class HeldTransport(LoopbackTransport):
            """A receiver that starts reading only once the node is blocked.

            The first ``recv`` waits until a ``send`` finds the pipe full, so
            the node stalls on every run, however fast capture is.
            """

            def __init__(self, max_buffered):
                super().__init__(max_buffered=max_buffered)
                self.node_blocked = asyncio.Event()

            async def send(self, data):
                if self._queue.full():
                    self.node_blocked.set()
                await super().send(data)

            async def recv(self):
                await self.node_blocked.wait()
                return await super().recv()

            async def close(self):
                # A node that never blocked fails the stall assertion below
                # instead of hanging the held receiver.
                self.node_blocked.set()
                await super().close()

        async def scenario():
            transport = HeldTransport(max_buffered)
            node = CameraNode(transport)
            receiver = StreamReceiver(reconstruct=False)
            send_task = asyncio.create_task(node.stream_frames(imager, scenes))
            result = await receiver.run(transport)
            stats = await send_task
            return transport, result, stats

        # The timeout only guards against a hang if the node dies early.
        transport, result, stats = run(asyncio.wait_for(scenario(), timeout=60.0))
        # Bounded: the queue never held more than its cap, and the node hit
        # the bound (it stalled) instead of outrunning the receiver.
        assert transport.high_watermark <= max_buffered
        assert transport.stall_count > 0
        # Lossless: every frame still arrived, in order.
        assert result.n_frames == len(scenes)
        assert [frame.frame_index for frame in result.frames] == list(range(12))
        assert stats.n_bytes == result.n_bytes


class TestTcpEndToEnd:
    """The same pipeline over a real localhost socket."""

    def test_video_stream_over_tcp(self):
        scenes = [make_scene("blobs", (16, 16), seed=index) for index in range(3)]

        async def scenario():
            results = []
            done = asyncio.Event()

            async def handler(transport):
                receiver = StreamReceiver(reconstruct=False)
                results.append(await receiver.run(transport))
                done.set()

            server, port = await serve_tcp(handler)
            sender = await connect_tcp("127.0.0.1", port)
            node = CameraNode(sender)
            imager = CompressiveImager(SensorConfig(rows=16, cols=16), seed=3)
            await node.stream_frames(imager, scenes)
            await asyncio.wait_for(done.wait(), timeout=10.0)
            server.close()
            await server.wait_closed()
            return results[0]

        result = run(scenario())
        reference = CompressiveImager(SensorConfig(rows=16, cols=16), seed=3)
        assert result.n_frames == 3
        for index, received in enumerate(result.frames):
            expected = reference.capture_scene(scenes[index])
            assert np.array_equal(received.capture.samples, expected.samples)
