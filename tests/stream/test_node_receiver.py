"""Tests for the camera node, the bit-rate governor and the stream receiver."""

import asyncio
import threading
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.io.framing import frame_overhead_bits
from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.video import VideoSequencer
from repro.stream.node import BitrateGovernor, CameraNode, ChannelBudgetError
from repro.stream.protocol import (
    Chunk,
    ChunkDecoder,
    ChunkType,
    FrameComplete,
    FrameSegment,
    StreamEnd,
    StreamProtocolError,
    encode_chunk,
    encode_payload,
    payload_chunk,
)
from repro.stream.receiver import StreamReceiver
from repro.stream.transport import LoopbackTransport


CONFIG = SensorConfig(rows=16, cols=16)


def _wire_bits(payload):
    return 8 * len(encode_chunk(payload_chunk(payload, 1, 0)))


#: What the node wraps every tile in (a one-segment group, here with an
#: empty prefix and no samples) and closes every frame with.
SEGMENT_OVERHEAD_BITS = _wire_bits(FrameSegment(0, 0, 0, True, 0, 1, 0, 0, b"", b""))
BARRIER_BITS = _wire_bits(FrameComplete(0, 0))


def run(coro):
    return asyncio.run(coro)


async def _stream_and_receive(send_coro_factory, receiver=None, max_buffered=4):
    transport = LoopbackTransport(max_buffered=max_buffered)
    receiver = receiver or StreamReceiver(reconstruct=False)
    send_task = asyncio.create_task(send_coro_factory(transport))
    result = await receiver.run(transport)
    stats = await send_task
    return result, stats


class TestBitrateGovernor:
    def test_ungoverned_passes_the_configured_budget(self):
        governor = BitrateGovernor()
        assert governor.samples_for_frame(CONFIG) == CONFIG.samples_per_frame
        assert (
            governor.samples_for_frame(CONFIG, n_tiles=16)
            == 16 * CONFIG.samples_per_frame
        )

    def test_budget_fits_samples_after_overhead(self):
        budget = 2000  # tight enough that the governor actually degrades
        governor = BitrateGovernor(bits_per_frame=budget)
        n_samples = governor.samples_for_frame(CONFIG)
        overhead = (
            SEGMENT_OVERHEAD_BITS + frame_overhead_bits(CONFIG, version=2) + BARRIER_BITS
        )
        assert overhead + n_samples * CONFIG.compressed_sample_bits <= budget
        assert (
            overhead + (n_samples + 1) * CONFIG.compressed_sample_bits > budget
        )

    def test_seedless_frames_fit_more_samples(self):
        governor = BitrateGovernor(bits_per_frame=2000)
        with_seed = governor.samples_for_frame(CONFIG, include_seed=True)
        seedless = governor.samples_for_frame(CONFIG, include_seed=False)
        assert seedless >= with_seed

    def test_impossible_budget_raises(self):
        with pytest.raises(ChannelBudgetError):
            BitrateGovernor(bits_per_frame=100).samples_for_frame(CONFIG)

    def test_tiled_ratio_respects_budget(self):
        governor = BitrateGovernor(bits_per_frame=30000)
        n_samples = governor.samples_for_frame(CONFIG, n_tiles=16)
        assert 0 < n_samples < 16 * CONFIG.samples_per_frame
        total_sample_bits = n_samples * CONFIG.compressed_sample_bits
        overhead = (
            16 * (SEGMENT_OVERHEAD_BITS + frame_overhead_bits(CONFIG, version=2))
            + BARRIER_BITS
        )
        assert total_sample_bits + overhead <= 30000 + CONFIG.compressed_sample_bits

    def test_tiled_impossible_budget_raises(self):
        with pytest.raises(ChannelBudgetError):
            BitrateGovernor(bits_per_frame=500).samples_for_frame(CONFIG, n_tiles=16)


@dataclass
class _ThreadRecordingGovernor(BitrateGovernor):
    """A closed-loop governor that records the thread of every budget call."""

    closed_loop: bool = True
    threads: list = field(default_factory=list, init=False)

    def samples_for_frame(self, *args, **kwargs):
        self.threads.append(threading.current_thread())
        return super().samples_for_frame(*args, **kwargs)


def _mosaic():
    from repro.sensor.shard import TiledSensorArray

    return TiledSensorArray(
        (32, 32), tile_shape=(16, 16), compression_ratio=0.15, max_workers=1, seed=5
    )


_SCENES = [make_scene("blobs", (16, 16), seed=index) for index in range(5)]
_MOSAIC_SCENES = [make_scene("blobs", (32, 32), seed=index) for index in range(5)]
_STREAMS = {
    "frames": lambda node: node.stream_frames(CompressiveImager(CONFIG, seed=1), _SCENES),
    "video": lambda node: node.stream_video(
        VideoSequencer(CompressiveImager(CONFIG, seed=1), seed=1), _SCENES
    ),
    "tiled": lambda node: node.stream_tiled(
        _mosaic(), TestTiledSingleFrame._current(_mosaic())
    ),
    "tiled-video": lambda node: node.stream_tiled_video(_mosaic(), _MOSAIC_SCENES),
}


@pytest.mark.parametrize("kind", sorted(_STREAMS))
def test_the_governor_is_asked_on_the_event_loop_only(kind):
    """Receiver feedback adjusts the governor on the event loop, so the
    budget calls must run there too, never on the capture worker."""
    governor = _ThreadRecordingGovernor()

    async def scenario(transport):
        scenario.loop_thread = threading.current_thread()
        node = CameraNode(transport, governor=governor, gop_size=2)
        return await _STREAMS[kind](node)

    run(_stream_and_receive(scenario))
    assert governor.threads
    assert set(governor.threads) == {scenario.loop_thread}


class TestBudgetFitsEveryFraming:
    """A governed frame fits its budget however the node frames it.

    Each budget binds (the frame streams below its open-loop count) yet
    leaves room for at least one sample per tile under that framing.
    """

    FRAMINGS = [
        pytest.param(1, False, 1800, 7000, id="1-segment"),
        pytest.param(4, False, 4500, 16000, id="4-segments"),
        pytest.param(4, True, 6000, 21000, id="4-segments-parity"),
    ]

    @staticmethod
    def _stream(kind, node):
        if kind == "video":
            sequencer = VideoSequencer(CompressiveImager(CONFIG, seed=7), seed=7)
            scenes = [make_scene("blobs", (16, 16), seed=i) for i in range(4)]
            return sequencer.samples_per_frame, node.stream_video(sequencer, scenes)
        from repro.sensor.shard import TiledSensorArray

        array = TiledSensorArray(
            (32, 32), tile_shape=(16, 16), compression_ratio=0.3, max_workers=1, seed=5
        )
        scenes = [make_scene("blobs", (32, 32), seed=i) for i in range(4)]
        return 4 * 77, node.stream_tiled_video(array, scenes)

    @pytest.mark.parametrize("kind", ["video", "tiled-video"])
    @pytest.mark.parametrize("segments, parity, video_budget, tiled_budget", FRAMINGS)
    def test_frame_bytes_fit_the_budget(
        self, kind, segments, parity, video_budget, tiled_budget
    ):
        budget = video_budget if kind == "video" else tiled_budget

        async def scenario(transport):
            node = CameraNode(
                transport,
                governor=BitrateGovernor(bits_per_frame=budget),
                gop_size=2,
                segments_per_frame=segments,
                parity=parity,
            )
            open_loop, stream = self._stream(kind, node)
            return open_loop, await stream

        result, (open_loop, stats) = run(_stream_and_receive(scenario))
        assert result.n_frames == stats.n_frames == 4
        for frame_bytes in stats.bytes_per_frame:
            assert frame_bytes * 8 <= budget
        assert max(stats.samples_per_frame) < open_loop


class TestSingleSensorStream:
    def test_frames_survive_the_wire(self):
        imager = CompressiveImager(CONFIG, seed=3)
        reference = CompressiveImager(CONFIG, seed=3)
        scenes = [make_scene("blobs", (16, 16), seed=i) for i in range(3)]

        async def scenario(transport):
            return await CameraNode(transport).stream_frames(imager, scenes)

        result, stats = run(_stream_and_receive(scenario))
        assert result.n_frames == 3
        assert result.announced_frames == 3
        assert result.header.kind == "frame"
        for index, received in enumerate(result.frames):
            expected = reference.capture_scene(
                scenes[index], n_samples=CONFIG.samples_per_frame
            )
            assert np.array_equal(received.capture.samples, expected.samples)
            assert np.array_equal(received.capture.seed_state, expected.seed_state)
        assert stats.n_bytes == result.n_bytes

    def test_governed_stream_degrades_sample_count(self):
        imager = CompressiveImager(CONFIG, seed=3)
        scenes = [make_scene("blobs", (16, 16), seed=0)]
        budget = 1800

        async def scenario(transport):
            node = CameraNode(
                transport, governor=BitrateGovernor(bits_per_frame=budget)
            )
            return await node.stream_frames(imager, scenes)

        result, stats = run(_stream_and_receive(scenario))
        assert stats.samples_per_frame[0] < CONFIG.samples_per_frame
        assert result.frames[0].capture.n_samples == stats.samples_per_frame[0]
        # The governed frame actually fits the budget on the wire.
        assert stats.bytes_per_frame[0] * 8 <= budget

    def test_reconstruction_happens_when_enabled(self):
        imager = CompressiveImager(CONFIG, seed=3)
        scenes = [make_scene("blobs", (16, 16), seed=0)]

        async def scenario(transport):
            return await CameraNode(transport).stream_frames(imager, scenes)

        receiver = StreamReceiver(max_iterations=20)
        result, _ = run(_stream_and_receive(scenario, receiver=receiver))
        reconstruction = result.frames[0].reconstruction
        assert reconstruction is not None
        assert reconstruction.image.shape == (16, 16)


class TestVideoGop:
    @staticmethod
    def _sequencer(seed=7):
        return VideoSequencer(
            CompressiveImager(CONFIG, seed=seed), samples_per_frame=50, seed=seed
        )

    def test_gop_stream_matches_direct_capture(self):
        scenes = [make_scene("blobs", (16, 16), seed=i) for i in range(7)]

        async def scenario(transport):
            node = CameraNode(transport, gop_size=3)
            return await node.stream_video(self._sequencer(), scenes)

        result, _ = run(_stream_and_receive(scenario))
        direct = self._sequencer().capture_sequence(scenes).frames
        assert result.n_frames == 7
        for received, expected in zip(result.frames, direct):
            assert np.array_equal(received.capture.samples, expected.samples)
            assert np.array_equal(received.capture.seed_state, expected.seed_state)

    def test_seed_bytes_ride_only_on_keyframes(self):
        scenes = [make_scene("blobs", (16, 16), seed=i) for i in range(4)]

        async def scenario(transport):
            node = CameraNode(transport, gop_size=4)
            return await node.stream_video(self._sequencer(), scenes)

        async def collect(transport):
            decoder, sizes = ChunkDecoder(), []
            while True:
                data = await transport.recv()
                if data is None:
                    break
                sizes += [
                    chunk.n_bytes
                    for chunk in decoder.feed(data)
                    if chunk.chunk_type == ChunkType.FRAME_SEGMENT
                ]
            return sizes

        async def run_both():
            transport = LoopbackTransport(max_buffered=16)
            node_task = asyncio.create_task(scenario(transport))
            sizes = await collect(transport)
            await node_task
            return sizes

        sizes = run(run_both())
        # One segment per frame: the keyframe, then three seedless frames.
        keyframe_size, delta_sizes = sizes[0], sizes[1:]
        assert len(delta_sizes) == 3
        assert all(size < keyframe_size for size in delta_sizes)
        assert all(size == delta_sizes[0] for size in delta_sizes)

    def test_event_statistics_survive_the_wire(self):
        scenes = [make_scene("blobs", (16, 16), seed=i) for i in range(2)]

        async def scenario(transport):
            node = CameraNode(transport, gop_size=2)
            return await node.stream_video(
                self._sequencer(), scenes, fidelity="event"
            )

        result, _ = run(_stream_and_receive(scenario))
        direct = self._sequencer().capture_sequence(scenes, fidelity="event").frames
        for received, expected in zip(result.frames, direct):
            for key in (
                "n_lost_events",
                "n_queued_events",
                "n_lsb_errors",
                "max_queue_delay",
                "n_saturated_pixels",
                "event_statistics",
                "fidelity",
            ):
                assert received.capture.metadata[key] == expected.metadata[key]


class TestReceiverProtocolErrors:
    @staticmethod
    def _run_receiver(wire_chunks):
        async def scenario():
            transport = LoopbackTransport(max_buffered=len(wire_chunks) + 1)
            for chunk in wire_chunks:
                await transport.send(encode_chunk(chunk))
            await transport.close()
            return await StreamReceiver(reconstruct=False).run(transport)

        return run(scenario())

    def test_frame_before_stream_start(self):
        chunk = Chunk(
            chunk_type=ChunkType.FRAME_DATA, stream_id=1, sequence=0, payload=b"x" * 8
        )
        with pytest.raises(StreamProtocolError, match="stream start"):
            self._run_receiver([chunk])

    def test_sequence_gap_detected(self):
        chunk = Chunk(
            chunk_type=ChunkType.STREAM_END,
            stream_id=1,
            sequence=5,
            payload=encode_payload(StreamEnd(0)),
        )
        with pytest.raises(StreamProtocolError, match="sequence"):
            self._run_receiver([chunk])

    def test_eof_before_stream_end(self):
        with pytest.raises(StreamProtocolError, match="stream-end"):
            self._run_receiver([])

    def test_truncated_stream_mid_frame(self):
        imager = CompressiveImager(CONFIG, seed=3)
        scenes = [make_scene("blobs", (16, 16), seed=0)]

        async def scenario():
            transport = LoopbackTransport(max_buffered=16)
            await CameraNode(transport).stream_frames(imager, scenes)
            # Re-deliver all but the final (stream-end) chunk.
            data = bytearray()
            while True:
                item = await transport.recv()
                if item is None:
                    break
                data.extend(item)
            replay = LoopbackTransport(max_buffered=4)
            await replay.send(bytes(data[: len(data) // 2]))
            await replay.close()
            return await StreamReceiver(reconstruct=False).run(replay)

        with pytest.raises(StreamProtocolError):
            run(scenario())


class TestTiledSingleFrame:
    """One mosaic frame streamed tile-by-tile through iter_capture."""

    @staticmethod
    def _current(array, seed=0):
        from repro.optics.photo import PhotoConversion
        from repro.utils.rng import derive_seed

        scene = make_scene("blobs", array.scene_shape, seed=seed)
        conversion = PhotoConversion(seed=derive_seed(array.seed, "tiled-photo"))
        return conversion.convert(scene)

    def test_tiles_and_statistics_survive_the_wire(self):
        from repro.sensor.shard import TiledSensorArray

        array = TiledSensorArray(
            (32, 32), tile_shape=(16, 16), compression_ratio=0.15,
            max_workers=1, seed=5,
        )
        current = self._current(array)

        async def scenario(transport):
            return await CameraNode(transport).stream_tiled(array, current)

        result, stats = run(_stream_and_receive(scenario))
        direct = array.capture(current)
        received = result.frames[0].capture
        assert np.array_equal(received.samples, direct.samples)
        assert received.metadata["event_statistics"] == (
            direct.metadata["event_statistics"]
        )
        assert stats.n_frames == 1
        assert stats.samples_per_frame == [direct.n_samples]
        assert stats.bytes_per_frame[0] < stats.n_bytes

    def test_governed_tiled_frame_fits_budget(self):
        from repro.sensor.shard import TiledSensorArray

        array = TiledSensorArray(
            (32, 32), tile_shape=(16, 16), compression_ratio=0.3,
            max_workers=1, seed=5,
        )
        current = self._current(array)
        budget = 6000  # tight enough to force degradation below R = 0.3

        async def scenario(transport):
            node = CameraNode(
                transport, governor=BitrateGovernor(bits_per_frame=budget)
            )
            return await node.stream_tiled(array, current)

        result, stats = run(_stream_and_receive(scenario))
        ungoverned = array.capture(current)
        assert result.frames[0].capture.n_samples < ungoverned.n_samples
        assert stats.bytes_per_frame[0] * 8 <= budget

    def test_photocurrent_mode_of_tiled_video(self):
        from repro.sensor.shard import TiledSensorArray

        array = TiledSensorArray(
            (32, 32), tile_shape=(16, 16), compression_ratio=0.15,
            max_workers=1, seed=5,
        )
        currents = [self._current(array, seed=i) for i in range(2)]

        async def scenario(transport):
            node = CameraNode(transport, gop_size=2)
            return await node.stream_tiled_video(
                array, currents, photocurrents=True
            )

        result, _ = run(_stream_and_receive(scenario))
        # Fresh array: the streaming node advanced the original's tile CAs.
        fresh = TiledSensorArray(
            (32, 32), tile_shape=(16, 16), compression_ratio=0.15,
            max_workers=1, seed=5,
        )
        direct = fresh.capture_sequence(currents)
        for received, expected in zip(result.frames, direct):
            assert np.array_equal(received.capture.samples, expected.samples)


class TestReceiverBarrierErrors:
    """Malformed mosaic streams fail loudly, never silently."""

    @staticmethod
    def _tiled_wire_chunks():
        """Capture one 2x2 mosaic and return its wire chunks as bytes."""
        from repro.sensor.shard import TiledSensorArray

        array = TiledSensorArray(
            (32, 32), tile_shape=(16, 16), compression_ratio=0.15,
            max_workers=1, seed=5,
        )
        current = TestTiledSingleFrame._current(array)

        async def scenario():
            transport = LoopbackTransport(max_buffered=32)
            await CameraNode(transport).stream_tiled(array, current)
            items = []
            while True:
                item = await transport.recv()
                if item is None:
                    break
                items.append(item)
            return items

        return run(scenario())

    @staticmethod
    def _replay(items):
        async def scenario():
            transport = LoopbackTransport(max_buffered=len(items) + 1)
            for item in items:
                await transport.send(item)
            await transport.close()
            return await StreamReceiver(reconstruct=False).run(transport)

        return run(scenario())

    def test_intact_replay_decodes(self):
        items = self._tiled_wire_chunks()
        result = self._replay(items)
        assert result.n_frames == 1

    def test_missing_tile_at_barrier_is_detected(self):
        items = self._tiled_wire_chunks()
        # Drop one tile chunk (index 2: header, tile0, tile1, ...) and renumber
        # the remaining sequence so only the missing tile is the violation.
        chunks = ChunkDecoder().feed(b"".join(items))
        chunks = [c for i, c in enumerate(chunks) if i != 2]
        renumbered = [
            encode_chunk(Chunk(c.chunk_type, c.stream_id, seq, c.payload))
            for seq, c in enumerate(chunks)
        ]
        with pytest.raises(StreamProtocolError, match="missing"):
            self._replay(renumbered)

    def test_duplicate_tile_is_detected(self):
        items = self._tiled_wire_chunks()
        chunks = ChunkDecoder().feed(b"".join(items))
        chunks.insert(2, chunks[1])  # replay tile (0, 0)
        renumbered = [
            encode_chunk(Chunk(c.chunk_type, c.stream_id, seq, c.payload))
            for seq, c in enumerate(chunks)
        ]
        with pytest.raises(StreamProtocolError, match="duplicate"):
            self._replay(renumbered)

    def test_duplicate_stream_start_is_detected(self):
        items = self._tiled_wire_chunks()
        chunks = ChunkDecoder().feed(b"".join(items))
        chunks.insert(1, chunks[0])
        renumbered = [
            encode_chunk(Chunk(c.chunk_type, c.stream_id, seq, c.payload))
            for seq, c in enumerate(chunks)
        ]
        with pytest.raises(StreamProtocolError, match="duplicate stream-start"):
            self._replay(renumbered)


class TestPartialMosaicStream:
    @staticmethod
    def _received_without_tile_0_1():
        """The 2x2 mosaic replayed into a resilient receiver, tile (0, 1) lost."""
        items = TestReceiverBarrierErrors._tiled_wire_chunks()
        chunks = ChunkDecoder().feed(b"".join(items))
        assert chunks[2].chunk_type == ChunkType.FRAME_SEGMENT
        # Lose tile (0, 1)'s only chunk: a sequence gap, booked as loss.
        lossy = [encode_chunk(c) for i, c in enumerate(chunks) if i != 2]

        async def scenario():
            transport = LoopbackTransport(max_buffered=len(lossy) + 1)
            for item in lossy:
                await transport.send(item)
            await transport.close()
            receiver = StreamReceiver(resilient=True, max_iterations=20)
            return await receiver.run(transport)

        return run(scenario()).frames[0]

    def test_lost_tile_settles_as_reconstruct_tiled_of_the_received_capture(self):
        from repro.recon.pipeline import reconstruct_tiled

        received = self._received_without_tile_0_1()
        assert received.capture.tiles[0][1] is None
        assert received.loss.n_received_chunks < received.loss.n_expected_chunks
        mosaic = received.reconstruction
        assert mosaic.tile_results[0][1] is None
        assert not mosaic.image[:16, 16:].any()
        direct = reconstruct_tiled(received.capture, max_iterations=20)
        assert mosaic.image.tobytes() == direct.image.tobytes()

    def test_partial_capture_counts_the_delivered_tiles(self):
        capture = self._received_without_tile_0_1().capture
        delivered = [frame for row in capture.tiles for frame in row if frame is not None]
        assert len(delivered) == 3
        assert capture.n_samples == sum(frame.n_samples for frame in delivered)
        assert np.array_equal(
            capture.samples, np.concatenate([frame.samples for frame in delivered])
        )
        assert capture.compression_ratio == capture.n_samples / capture.n_pixels
        assert capture.compressed_bits == sum(frame.compressed_bits for frame in delivered)
        assert [slot.grid_col for slot, _ in capture.delivered()] == [0, 0, 1]
        with pytest.raises(ValueError, match=r"tile \(0, 1\) was not delivered"):
            capture.digital_image()


class TestReceiveStreamHelper:
    def test_one_shot_convenience(self):
        from repro.stream.receiver import receive_stream

        imager = CompressiveImager(CONFIG, seed=3)
        scenes = [make_scene("blobs", (16, 16), seed=0)]

        async def scenario():
            transport = LoopbackTransport(max_buffered=8)
            send_task = asyncio.create_task(
                CameraNode(transport).stream_frames(imager, scenes)
            )
            result = await receive_stream(transport, reconstruct=False)
            await send_task
            return result

        assert run(scenario()).n_frames == 1


class TestReceiverReuse:
    def test_second_run_decodes_a_fresh_stream(self):
        imager = CompressiveImager(CONFIG, seed=3)
        receiver = StreamReceiver(reconstruct=False)

        async def one_stream(seed):
            transport = LoopbackTransport(max_buffered=8)
            send_task = asyncio.create_task(
                CameraNode(transport).stream_frames(
                    imager, [make_scene("blobs", (16, 16), seed=seed)]
                )
            )
            result = await receiver.run(transport)
            await send_task
            return result

        first = run(one_stream(0))
        second = run(one_stream(1))
        assert first.n_frames == second.n_frames == 1
        assert first is not second
        # The second run decoded the *new* stream, not the cached old one.
        assert not np.array_equal(
            first.frames[0].capture.samples, second.frames[0].capture.samples
        )


class TestNodeReuse:
    def test_node_streams_twice_with_fresh_sequences(self):
        imager = CompressiveImager(CONFIG, seed=3)

        async def scenario():
            node = CameraNode(LoopbackTransport(max_buffered=8))
            results = []
            for seed in (0, 1):
                transport = LoopbackTransport(max_buffered=8)
                node.transport = transport
                send_task = asyncio.create_task(
                    node.stream_frames(
                        imager, [make_scene("blobs", (16, 16), seed=seed)]
                    )
                )
                results.append(
                    await StreamReceiver(reconstruct=False).run(transport)
                )
                await send_task
            return results

        first, second = run(scenario())
        assert first.n_frames == second.n_frames == 1


class TestTileGeometryValidation:
    def test_pure_decoder_rejects_tile_slot_mismatch(self):
        from repro.stream.protocol import (
            ChunkDecoder,
            StreamHeader,
        )

        items = TestReceiverBarrierErrors._tiled_wire_chunks()
        chunks = ChunkDecoder().feed(b"".join(items))
        # Announce 8x8 tiles for the same 32x32 scene: the 16x16 tile frames
        # no longer match their slots, which even a pure decoder must catch.
        lying_header = StreamHeader(
            kind="tiled", scene_shape=(32, 32), tile_shape=(8, 8), gop_size=1
        )
        chunks[0] = Chunk(
            chunks[0].chunk_type,
            chunks[0].stream_id,
            chunks[0].sequence,
            encode_payload(lying_header),
        )
        rewired = [encode_chunk(chunk) for chunk in chunks]
        with pytest.raises(StreamProtocolError, match="slot expects"):
            TestReceiverBarrierErrors._replay(rewired)


class TestNodeFailureClosesChannel:
    def test_receiver_unblocks_when_the_node_dies_mid_stream(self):
        imager = CompressiveImager(CONFIG, seed=3)
        scenes = [make_scene("blobs", (16, 16), seed=0)]

        async def scenario():
            transport = LoopbackTransport(max_buffered=4)
            node = CameraNode(
                transport, governor=BitrateGovernor(bits_per_frame=100)
            )
            send_task = asyncio.create_task(node.stream_frames(imager, scenes))
            # The governor rejects the budget after STREAM_START: the node
            # must close the channel so the receiver errors out instead of
            # blocking forever on a stream that will never finish.
            with pytest.raises(StreamProtocolError, match="closed before"):
                await asyncio.wait_for(
                    StreamReceiver(reconstruct=False).run(transport), timeout=5.0
                )
            with pytest.raises(ChannelBudgetError):
                await send_task

        run(scenario())


class TestChunksAfterStreamEnd:
    def test_coalesced_post_end_chunk_is_rejected(self):
        items = TestReceiverBarrierErrors._tiled_wire_chunks()
        chunks = ChunkDecoder().feed(b"".join(items))
        # Replay a tile chunk *after* the stream end, renumbered so the
        # sequence is consecutive — only its position is the violation.
        chunks.append(chunks[1])
        renumbered = [
            encode_chunk(Chunk(c.chunk_type, c.stream_id, seq, c.payload))
            for seq, c in enumerate(chunks)
        ]
        # Coalesce everything into one byte slice, as TCP might.
        async def scenario():
            transport = LoopbackTransport(max_buffered=2)
            await transport.send(b"".join(renumbered))
            await transport.close()
            return await StreamReceiver(reconstruct=False).run(transport)

        with pytest.raises(StreamProtocolError, match="after the stream end"):
            run(scenario())
