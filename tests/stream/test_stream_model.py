"""One stream model: a frame is a grid of ≥1 tiles, a tile is ≥1 segments.

Single-sensor streams and mosaics share one node send loop and one session
settle path.  This file pins what that sharing must guarantee:

* **zero-loss strict ≡ resilient** for every stream kind — the strictness
  policy changes how anomalies are handled, never what a clean stream
  reconstructs to;
* **bounded settling** — no frame index or frame count decoded off the wire
  can make the settle loop walk more than ``max_sequence_gap`` frames;
* **typed errors** — a seedless tile with no seed chain fails the same way
  whichever chunk kind carried it.
"""

import asyncio
from dataclasses import replace

import numpy as np
import pytest

from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.shard import TiledSensorArray
from repro.sensor.video import VideoSequencer
from repro.stream.fault import GilbertElliottTransport
from repro.stream.hub import ReceiverHub
from repro.stream.node import CameraNode
from repro.stream.protocol import (
    Chunk,
    ChunkDecoder,
    ChunkType,
    StreamProtocolError,
    decode_frame_data,
    decode_frame_segment,
    decode_stream_header,
    encode_frame_complete,
    encode_frame_data,
    encode_frame_segment,
    encode_stream_end,
    encode_stream_header,
)
from repro.stream.receiver import StreamReceiver
from repro.stream.session import StreamSession
from repro.stream.transport import LoopbackTransport, loopback_duplex_pair


CONFIG = SensorConfig(rows=16, cols=16)
RECON_KWARGS = dict(max_iterations=5)


def run(coro):
    return asyncio.run(coro)


def _scenes(n, shape=(16, 16), seed=0):
    return [make_scene("blobs", shape, seed=seed + index) for index in range(n)]


def _array():
    return TiledSensorArray(
        (32, 32), tile_shape=(16, 16), compression_ratio=0.2, executor="serial", seed=5
    )


def _send(kind, node):
    """Start one stream of ``kind`` on ``node`` from fresh capture engines."""
    if kind == "frame":
        return node.stream_frames(CompressiveImager(CONFIG, seed=3), _scenes(2))
    if kind == "video":
        sequencer = VideoSequencer(
            CompressiveImager(CONFIG, seed=7), samples_per_frame=50, seed=7
        )
        return node.stream_video(sequencer, _scenes(4))
    if kind == "tiled":
        return node.stream_tiled(_array(), _scenes(1, (32, 32))[0])
    return node.stream_tiled_video(_array(), _scenes(3, (32, 32)))


def _stream(kind, *, resilient, **node_options):
    async def scenario():
        transport = LoopbackTransport(max_buffered=64)
        node = CameraNode(transport, gop_size=2, **node_options)
        receiver = StreamReceiver(resilient=resilient, **RECON_KWARGS)
        send = asyncio.create_task(_send(kind, node))
        result = await receiver.run(transport)
        await send
        return result

    return run(scenario())


def _images(result):
    return [frame.reconstruction.image.tobytes() for frame in result.frames]


@pytest.mark.parametrize("kind", ["frame", "video", "tiled", "tiled-video"])
def test_zero_loss_resilient_is_byte_identical_to_strict(kind):
    strict = _stream(kind, resilient=False)
    resilient = _stream(kind, resilient=True)
    assert strict.n_frames == resilient.n_frames > 0
    assert _images(strict) == _images(resilient)


@pytest.mark.parametrize("kind", ["frame", "video", "tiled", "tiled-video"])
def test_segmented_zero_loss_resilient_is_byte_identical_to_strict(kind):
    # Segments and parity ride the same settle path for every stream kind,
    # so a strict session decodes them too.
    options = dict(segments_per_frame=3, parity=True)
    strict = _stream(kind, resilient=False, **options)
    resilient = _stream(kind, resilient=True, **options)
    assert strict.n_frames == resilient.n_frames > 0
    assert _images(strict) == _images(resilient)
    assert _images(strict) == _images(_stream(kind, resilient=False))


# =========================================================================
# Wire-derived frame indices and counts cannot drive an unbounded settle
# =========================================================================


class RecordingTransport:
    """Swallows every sent slice into a list (no receiver on the other end)."""

    def __init__(self):
        self.slices = []

    async def send(self, data):
        self.slices.append(bytes(data))

    async def recv(self):
        return None

    async def close(self):
        pass


class InlineScheduler:
    """Solve scheduler that runs the job synchronously on submit."""

    async def submit(self, key, fn):
        future = asyncio.get_running_loop().create_future()
        future.set_result(fn())
        return future


def _recorded_chunks(kind, **node_options):
    """The exact chunks one stream of ``kind`` puts on the wire."""

    async def scenario():
        transport = RecordingTransport()
        await _send(kind, CameraNode(transport, gop_size=2, **node_options))
        return transport.slices

    decoder = ChunkDecoder()
    return [chunk for data in run(scenario()) for chunk in decoder.feed(data)]


def _with_payload(chunk, payload):
    return Chunk(chunk.chunk_type, chunk.stream_id, chunk.sequence, payload)


async def _feed(chunks, *, resilient=True, eof=False, **options):
    session = StreamSession(
        1, InlineScheduler(), resilient=resilient, reconstruct=False, **options
    )
    for chunk in chunks:
        await session.handle_chunk(chunk)
    if eof:
        await session.handle_eof()
    return session, await session.finish()


class TestBoundedSettling:
    """A flipped high bit in a u32 frame field must not walk 2**31 frames."""

    GAP = 64

    def test_implausible_frame_index_is_skipped_as_corrupt(self):
        chunks = _recorded_chunks("frame")
        index = next(
            i for i, c in enumerate(chunks) if c.chunk_type is ChunkType.FRAME_DATA
        )
        data = decode_frame_data(chunks[index].payload)
        chunks[index] = _with_payload(
            chunks[index], encode_frame_data(replace(data, frame_index=2**31))
        )
        session, result = run(_feed(chunks, max_sequence_gap=self.GAP))
        assert len(session.stats.frame_loss) <= self.GAP
        assert session.stats.n_corrupt_chunks == 1
        assert result.n_frames == 1  # the other frame still landed

    @pytest.mark.parametrize("kind", ["frame", "tiled"])
    def test_implausible_stream_end_count_is_skipped_as_corrupt(self, kind):
        chunks = _recorded_chunks(kind)
        assert chunks[-1].chunk_type is ChunkType.STREAM_END
        chunks[-1] = _with_payload(chunks[-1], encode_stream_end(2**31))
        session, result = run(_feed(chunks, eof=True, max_sequence_gap=self.GAP))
        assert len(session.stats.frame_loss) <= self.GAP
        assert session.stats.n_corrupt_chunks == 1
        assert result.announced_frames is None  # sealed by EOF, not the lie
        assert result.n_frames == (2 if kind == "frame" else 1)

    def test_strict_session_raises_on_an_implausible_frame_index(self):
        chunks = _recorded_chunks("frame")
        chunks[-1] = _with_payload(chunks[-1], encode_stream_end(2**31))
        with pytest.raises(StreamProtocolError, match="jumps more than"):
            run(_feed(chunks, resilient=False, max_sequence_gap=self.GAP))


# =========================================================================
# A seedless tile without a seed chain fails typed, whatever carried it
# =========================================================================


class TestSeedlessTileWithoutChain:
    """``gop_size=1`` header, then a seedless one-tile frame and its barrier."""

    @staticmethod
    def _seedless_stream(segmented):
        options = dict(segments_per_frame=1, parity=True) if segmented else {}
        chunks = _recorded_chunks("video", **options)
        header = decode_stream_header(chunks[0].payload)
        stream = [
            _with_payload(chunks[0], encode_stream_header(replace(header, gop_size=1)))
        ]
        # Frame 1 of the recorded GOP is seedless; renumber it to frame 0.
        for chunk in chunks:
            if chunk.chunk_type is ChunkType.FRAME_DATA:
                data = decode_frame_data(chunk.payload)
                if data.frame_index == 1:
                    stream.append(
                        _with_payload(chunk, encode_frame_data(replace(data, frame_index=0)))
                    )
            elif chunk.chunk_type is ChunkType.FRAME_SEGMENT:
                segment = decode_frame_segment(chunk.payload)
                if segment.frame_index == 1:
                    stream.append(
                        _with_payload(
                            chunk, encode_frame_segment(replace(segment, frame_index=0))
                        )
                    )
        if segmented:
            stream.append(Chunk(ChunkType.FRAME_COMPLETE, 1, 0, encode_frame_complete(0, 1)))
        stream.append(Chunk(ChunkType.STREAM_END, 1, 0, encode_stream_end(1)))
        return [
            Chunk(chunk.chunk_type, chunk.stream_id, sequence, chunk.payload)
            for sequence, chunk in enumerate(stream)
        ]

    @pytest.mark.parametrize("segmented", [False, True])
    def test_strict_session_raises_the_typed_error(self, segmented):
        with pytest.raises(StreamProtocolError, match="seedless frame 0 for tile"):
            run(_feed(self._seedless_stream(segmented), resilient=False))

    @pytest.mark.parametrize("segmented", [False, True])
    def test_resilient_session_counts_the_chunk_corrupt(self, segmented):
        session, result = run(_feed(self._seedless_stream(segmented)))
        assert session.stats.n_corrupt_chunks == 1
        assert session.stats.n_dropped_frames == 1
        assert result.n_frames == 0


# =========================================================================
# Mosaics: the u16 barrier bound and repair from the shared path
# =========================================================================


def test_node_refuses_a_frame_whose_chunk_count_overflows_the_barrier():
    class Mosaic:  # only the geometry is read before the refusal
        scene_shape = (512, 512)
        tile_shape = (16, 16)  # 1024 tiles

    async def scenario():
        transport = RecordingTransport()
        node = CameraNode(transport, segments_per_frame=63, parity=True)
        with pytest.raises(ValueError, match="u16"):
            await node.stream_tiled(Mosaic(), np.zeros((512, 512)))
        return transport

    assert run(scenario()).slices == []  # refused before the stream header


@pytest.mark.chaos
class TestMosaicRepair:
    """Segments, parity and NACK repair protect a 2x2 mosaic under burst loss."""

    GE_SEED = 4
    N_FRAMES = 6

    @staticmethod
    def _mosaic():
        return TiledSensorArray(
            (128, 128), tile_shape=(64, 64), compression_ratio=0.05, executor="serial", seed=9
        )

    def _scenes(self):
        return _scenes(self.N_FRAMES, (128, 128), seed=60)

    async def _run(self, transport, hub_end, hub, **node_options):
        node = CameraNode(transport, gop_size=3, **node_options)
        send = asyncio.create_task(node.stream_tiled_video(self._mosaic(), self._scenes()))
        try:
            results = await hub.attach(hub_end, expected_streams=1)
        finally:
            await hub.close()
        await send
        return node, results[0]

    async def _burst_run(self, *, nack):
        node_end, hub_end = loopback_duplex_pair(max_buffered=4)
        channel = GilbertElliottTransport(node_end, seed=self.GE_SEED)
        hub = ReceiverHub(
            resilient=True,
            reconstruct=False,
            feedback=True,
            frame_deadline=30.0 if nack else None,
        )
        node, result = await self._run(
            channel,
            hub_end,
            hub,
            segments_per_frame=4,
            parity=True,
            feedback=True,
            retransmit_capacity=256 if nack else 0,
        )
        return hub, node, channel, result

    def test_nack_repair_strictly_improves_delivered_samples(self):
        async def scenario():
            return await self._burst_run(nack=False), await self._burst_run(nack=True)

        (hub_a, node_a, channel_a, bare), (hub_b, node_b, channel_b, healed) = run(scenario())

        def delivered(hub):
            return sum(report.n_samples_received for report in hub.session_stats[1].frame_loss)

        # The same seeded state walk burst-dropped chunks in both runs.
        assert channel_a.n_bursts >= 1 and channel_b.dropped
        assert bare.n_frames == healed.n_frames == self.N_FRAMES
        assert hub_a.stats().n_nacks_sent == node_a.n_retransmits == 0
        assert hub_b.stats().n_nacks_sent > 0
        assert node_b.n_retransmits > 0
        assert delivered(hub_b) > delivered(hub_a)

    def test_armed_zero_fault_run_is_byte_identical_to_strict(self):
        async def strict():
            transport = LoopbackTransport(max_buffered=8)
            hub = ReceiverHub(**RECON_KWARGS)
            return (await self._run(transport, transport, hub))[1]

        async def armed():
            node_end, hub_end = loopback_duplex_pair(max_buffered=8)
            hub = ReceiverHub(
                resilient=True, feedback=True, frame_deadline=30.0, **RECON_KWARGS
            )
            return (
                await self._run(
                    node_end,
                    hub_end,
                    hub,
                    segments_per_frame=4,
                    parity=True,
                    feedback=True,
                    retransmit_capacity=256,
                )
            )[1]

        baseline, guarded = run(strict()), run(armed())
        assert guarded.n_frames == baseline.n_frames == self.N_FRAMES
        assert _images(guarded) == _images(baseline)
