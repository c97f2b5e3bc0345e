"""Fault-injection suite: the lossy channel, pinned end to end.

The layer under test is the loss-resilience stack of ISSUE 8: seeded
chunk-level faults (:class:`~repro.stream.fault.LossyTransport`), the
resilient session FSM (sequence gaps → tracked losses, partial-Φ solves,
parity recovery), and the closed rate-control loop.  Two kinds of pins:

* **exact accounting** — the receiver's loss metadata must equal the
  injected fault pattern (drop indices are chunk sequences, one chunk per
  ``send``), down to per-frame sample counts;
* **no-raise reconstruction** — a streamed 64×64 video at 10% seeded chunk
  loss lands and reconstructs *every* frame without an exception, the
  system-level acceptance criterion.
"""

import asyncio

import numpy as np
import pytest

from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.shard import TiledCaptureResult, TiledSensorArray
from repro.sensor.video import VideoSequencer
from repro.stream.fault import LossyTransport
from repro.stream.hub import ReceiverHub
from repro.stream.node import BitrateGovernor, CameraNode
from repro.stream.protocol import ChunkDecoder, ControlAck
from repro.stream.receiver import StreamReceiver
from repro.stream.session import StreamSession
from repro.stream.transport import LoopbackTransport, loopback_duplex_pair


CONFIG = SensorConfig(rows=16, cols=16)


def run(coro):
    return asyncio.run(coro)


class RecordingTransport:
    """Swallows every sent slice into a list (no receiver on the other end)."""

    def __init__(self):
        self.slices = []
        self.closed = False

    async def send(self, data):
        self.slices.append(bytes(data))

    async def recv(self):
        return None

    async def close(self):
        self.closed = True


class InlineScheduler:
    """Solve scheduler that runs the job synchronously on submit."""

    async def submit(self, key, fn):
        future = asyncio.get_running_loop().create_future()
        future.set_result(fn())
        return future


def _sequencer(seed=7, samples=50):
    return VideoSequencer(
        CompressiveImager(CONFIG, seed=seed), samples_per_frame=samples, seed=seed
    )


def _scenes(n, shape=(16, 16), seed=0):
    return [make_scene("blobs", shape, seed=seed + index) for index in range(n)]


def _mosaic():
    """A 32x32 four-tile mosaic delivering 51 samples per 16x16 tile."""
    return TiledSensorArray(
        (32, 32), tile_shape=(16, 16), compression_ratio=0.2, max_workers=1, seed=5
    )


def _stream_kind(node, kind, n_frames):
    """The node's video stream of ``kind``: one chip or the four-tile mosaic."""
    if kind == "video":
        return node.stream_video(_sequencer(), _scenes(n_frames))
    return node.stream_tiled_video(_mosaic(), _scenes(n_frames, (32, 32)))


def _tile_frames(capture):
    """A received capture's per-tile frames (a chip is its own one tile)."""
    if isinstance(capture, TiledCaptureResult):
        return [frame for _, frame in capture.delivered()]
    return [capture]


async def _record_video_chunks(
    n_frames=4, *, segments_per_frame=4, parity=True, gop_size=4
):
    """Capture a video stream's exact chunk slices without a receiver."""
    transport = RecordingTransport()
    node = CameraNode(
        transport,
        gop_size=gop_size,
        segments_per_frame=segments_per_frame,
        parity=parity,
    )
    stats = await node.stream_video(_sequencer(), _scenes(n_frames))
    return transport.slices, stats


def _decode_all(slices):
    decoder = ChunkDecoder()
    chunks = []
    for data in slices:
        chunks.extend(decoder.feed(data))
    return chunks


async def _feed_session(chunks, **session_options):
    """Drive chunks straight through a resilient session (no transport)."""
    session = StreamSession(
        1,
        InlineScheduler(),
        resilient=True,
        max_iterations=5,
        **session_options,
    )
    for chunk in chunks:
        await session.handle_chunk(chunk)
    result = await session.finish()
    return session, result


class TestLossyTransport:
    """The fault injector itself: seeded, replayable, rate-checked."""

    async def _drive(self, seed, n_slices=40, **rates):
        inner = RecordingTransport()
        lossy = LossyTransport(inner, seed=seed, **rates)
        for index in range(n_slices):
            await lossy.send(bytes([index]) * 4)
        await lossy.close()
        return inner, lossy

    def test_fault_pattern_replays_exactly_per_seed(self):
        first = run(self._drive(3, drop_rate=0.2))[1]
        second = run(self._drive(3, drop_rate=0.2))[1]
        other = run(self._drive(4, drop_rate=0.2))[1]
        assert first.dropped == second.dropped
        assert first.dropped  # the pattern actually hit something
        assert first.dropped != other.dropped

    def test_rates_must_be_a_probability_split(self):
        inner = RecordingTransport()
        with pytest.raises(ValueError):
            LossyTransport(inner, seed=0, drop_rate=0.7, truncate_rate=0.4)
        with pytest.raises(ValueError):
            LossyTransport(inner, seed=0, drop_rate=-0.1)

    def test_header_and_final_slice_survive_total_loss(self):
        # Even at drop_rate=1.0 the stream header (slice 0) and the final
        # held slice (the stream-end chunk) are delivered intact.
        inner, lossy = run(self._drive(9, n_slices=6, drop_rate=1.0))
        assert inner.slices == [bytes([0]) * 4, bytes([5]) * 4]
        assert lossy.dropped == [1, 2, 3, 4]

    def test_duplicate_sends_the_slice_twice(self):
        inner, lossy = run(self._drive(5, n_slices=30, duplicate_rate=0.3))
        assert lossy.duplicated
        assert len(inner.slices) == 30 + len(lossy.duplicated)

    def test_reorder_swaps_adjacent_slices(self):
        inner, lossy = run(self._drive(6, n_slices=30, reorder_rate=0.3))
        assert lossy.reordered
        assert sorted(inner.slices) == sorted(bytes([i]) * 4 for i in range(30))
        assert inner.slices != [bytes([i]) * 4 for i in range(30)]


class TestExactLossAccounting:
    """Receiver loss metadata must equal the injected faults, exactly."""

    def test_missing_sequences_equal_the_injected_drops(self):
        async def scenario():
            slices, _ = await _record_video_chunks()
            inner = RecordingTransport()
            lossy = LossyTransport(inner, seed=11, drop_rate=0.15)
            for data in slices:
                await lossy.send(data)
            await lossy.close()
            chunks = _decode_all(inner.slices)
            session, result = await _feed_session(chunks)
            return lossy, session, result

        lossy, session, result = run(scenario())
        assert lossy.dropped  # the seed actually injected loss
        # One chunk per send: drop indices ARE the missing chunk sequences.
        assert session.missing_sequences == tuple(lossy.dropped)
        assert session.stats.n_lost_chunks == len(lossy.dropped)
        assert session.stats.n_corrupt_chunks == 0
        assert result.n_frames == 4

    def test_per_frame_report_pins_the_surviving_samples(self):
        # 4 frames x (4 segments + parity) + header + 4 barriers + end.
        # Drop segment 1 of frame 0 (sequence 2) AND its parity (sequence
        # 5): unrecoverable, the frame must land on the surviving 37 of 50
        # samples (segment sizes 12, 13, 12, 13).
        async def scenario():
            slices, _ = await _record_video_chunks()
            chunks = [c for c in _decode_all(slices) if c.sequence not in (2, 5)]
            return await _feed_session(chunks)

        session, result = run(scenario())
        report = session.stats.frame_loss[0]
        assert report == ControlAck(
            frame_index=0,
            n_expected_chunks=5,
            n_received_chunks=3,
            n_recovered_chunks=0,
            n_samples_expected=50,
            n_samples_received=37,
        )
        assert not report.clean
        landed = result.frames[0]
        assert landed.sample_mask is not None
        assert int(landed.sample_mask.sum()) == 37
        assert landed.reconstruction is not None
        # The other three frames arrived untouched and report clean.
        assert [r.clean for r in session.stats.frame_loss] == [
            False,
            True,
            True,
            True,
        ]

    def test_parity_recovers_a_single_lost_segment_exactly(self):
        # Drop only segment 1 of frame 0: the parity chunk rebuilds it, so
        # the frame is *complete* — all 50 samples, no mask, clean report.
        async def scenario():
            slices, _ = await _record_video_chunks()
            chunks = [c for c in _decode_all(slices) if c.sequence != 2]
            return await _feed_session(chunks)

        session, result = run(scenario())
        report = session.stats.frame_loss[0]
        assert report == ControlAck(
            frame_index=0,
            n_expected_chunks=5,
            n_received_chunks=4,
            n_recovered_chunks=1,
            n_samples_expected=50,
            n_samples_received=50,
        )
        assert report.clean
        assert session.stats.n_recovered_chunks == 1
        landed = result.frames[0]
        assert landed.sample_mask is None
        assert landed.reconstruction is not None

    def test_parity_recovery_is_byte_exact(self):
        # The recovered frame must carry the same samples as a lossless run.
        async def scenario():
            slices, _ = await _record_video_chunks()
            all_chunks = _decode_all(slices)
            _, clean = await _feed_session(all_chunks)
            _, repaired = await _feed_session(
                [c for c in all_chunks if c.sequence != 2]
            )
            return clean, repaired

        clean, repaired = run(scenario())
        for lossless, recovered in zip(clean.frames, repaired.frames):
            assert np.array_equal(
                lossless.capture.samples, recovered.capture.samples
            )
            assert np.array_equal(
                lossless.capture.seed_state, recovered.capture.seed_state
            )

    def test_fully_lost_frame_is_written_off_with_a_zero_report(self):
        # Keyframe-only stream (gop_size=1): drop every chunk of frame 1 —
        # its five payload chunks (sequences 7-11) and its barrier (12).
        # The frame settles as lost when frame 2's chunks sweep past it: an
        # all-zero report against the 5-chunk expectation learned from
        # frame 0's barrier; the sample count is unknowable (nothing of the
        # frame ever arrived) and must read 0, never a fabricated guess.
        async def scenario():
            slices, _ = await _record_video_chunks(gop_size=1)
            dropped = set(range(7, 13))
            chunks = [c for c in _decode_all(slices) if c.sequence not in dropped]
            return await _feed_session(chunks)

        session, result = run(scenario())
        assert session.stats.n_dropped_frames == 1
        report = session.stats.frame_loss[1]
        assert report == ControlAck(
            frame_index=1,
            n_expected_chunks=5,
            n_received_chunks=0,
            n_recovered_chunks=0,
            n_samples_expected=0,
            n_samples_received=0,
        )
        assert not report.clean
        # Frames 0, 2, 3 still landed (every frame carries its own seed);
        # the lost frame is absent from the result, present in accounting.
        assert [f.frame_index for f in result.frames] == [0, 2, 3]

    def test_losing_a_gop_frame_writes_off_the_chain_until_rekeyed(self):
        # Same drop inside a 4-frame GOP: frame 1's loss breaks the seed
        # chain, so seedless frames 2 and 3 *arrive intact* but can no
        # longer be decoded against the right Φ — they must be written off
        # (received chunks, zero usable samples), never silently solved
        # against a stale chain.
        async def scenario():
            slices, _ = await _record_video_chunks(gop_size=4)
            dropped = set(range(7, 13))
            chunks = [c for c in _decode_all(slices) if c.sequence not in dropped]
            return await _feed_session(chunks)

        session, result = run(scenario())
        assert session.stats.n_dropped_frames == 3
        assert [f.frame_index for f in result.frames] == [0]
        for index in (2, 3):
            report = session.stats.frame_loss[index]
            assert report.n_received_chunks == 5
            assert report.n_samples_received == 0
            assert not report.clean

    def test_duplicates_and_reorders_change_nothing(self):
        async def scenario():
            slices, _ = await _record_video_chunks()
            chunks = _decode_all(slices)
            _, clean = await _feed_session(chunks)
            # Duplicate chunk 3, swap chunks 7 and 8.
            mangled = list(chunks)
            mangled.insert(4, chunks[3])
            mangled[8], mangled[9] = mangled[9], mangled[8]
            session, result = await _feed_session(mangled)
            return clean, session, result

        clean, session, result = run(scenario())
        assert session.stats.n_duplicate_chunks == 1
        assert session.stats.n_reordered_chunks == 1
        assert session.stats.n_lost_chunks == 0
        assert session.missing_sequences == ()
        assert result.n_frames == 4
        for lossless, mangled in zip(clean.frames, result.frames):
            assert np.array_equal(
                lossless.capture.samples, mangled.capture.samples
            )

    def test_eof_salvages_frames_already_in_flight(self):
        # Kill the transport before STREAM_END: a resilient session seals
        # and settles what it has instead of raising.
        async def scenario():
            slices, _ = await _record_video_chunks()
            chunks = _decode_all(slices)
            assert chunks[-1].sequence == len(chunks) - 1
            session = StreamSession(
                1, InlineScheduler(), resilient=True, max_iterations=5
            )
            for chunk in chunks[:-1]:  # everything but the stream end
                await session.handle_chunk(chunk)
            await session.handle_eof()
            return session, await session.finish()

        session, result = run(scenario())
        assert result.announced_frames is None
        assert result.n_frames == 4


class TestLossyVideoEndToEnd:
    """The full wire path: node → LossyTransport → resilient hub."""

    @pytest.fixture(scope="class")
    def lossy_run(self):
        async def scenario():
            transport = LoopbackTransport(max_buffered=64)
            lossy = LossyTransport(transport, seed=5, drop_rate=0.1)
            hub = ReceiverHub(resilient=True, max_iterations=8)
            node = CameraNode(
                lossy, gop_size=4, segments_per_frame=4, parity=True
            )
            send_task = asyncio.create_task(
                node.stream_video(_sequencer(), _scenes(8))
            )
            try:
                results = await hub.attach(transport, expected_streams=1)
            finally:
                await hub.close()
            stats = await send_task
            return lossy, hub, results[0], stats

        return run(scenario())

    def test_every_frame_lands_and_reconstructs(self, lossy_run):
        lossy, _, result, _ = lossy_run
        assert lossy.dropped  # the channel really was lossy
        assert result.announced_frames == 8
        assert result.n_frames == 8
        assert [f.frame_index for f in result.frames] == list(range(8))
        for frame in result.frames:
            assert frame.reconstruction is not None
            assert np.isfinite(frame.reconstruction.image).all()

    def test_hub_stats_account_for_every_injected_drop(self, lossy_run):
        lossy, hub, _, _ = lossy_run
        stats = hub.stats()
        assert stats.n_lost_chunks == len(lossy.dropped)
        assert stats.n_recovered_chunks + stats.n_partial_frames > 0
        assert stats.n_corrupt_chunks == 0
        assert stats.n_dropped_frames == 0

    def test_per_frame_reports_are_internally_exact(self, lossy_run):
        lossy, hub, result, stats = lossy_run
        reports = hub.session_stats[1].frame_loss
        assert [r.frame_index for r in reports] == list(range(8))
        for frame, report in zip(result.frames, reports):
            assert report.n_samples_expected == 50
            if frame.sample_mask is not None:
                assert int(frame.sample_mask.sum()) == report.n_samples_received
            else:
                assert report.n_samples_received == 50
        # Chunk conservation over the frame payloads: each frame occupies
        # sequences 6f+1..6f+5 (4 segments + parity) followed by its
        # barrier at 6f+6; every payload chunk is either received or on the
        # injector's drop list.
        payload_drops = [
            s for s in lossy.dropped if 1 <= s <= 48 and (s - 1) % 6 < 5
        ]
        received = sum(r.n_received_chunks for r in reports)
        assert received + len(payload_drops) == 8 * 5

    def test_truncation_is_survived_and_counted(self):
        async def scenario():
            transport = LoopbackTransport(max_buffered=64)
            lossy = LossyTransport(transport, seed=21, truncate_rate=0.15)
            hub = ReceiverHub(resilient=True, reconstruct=False)
            node = CameraNode(
                lossy, gop_size=4, segments_per_frame=4, parity=True
            )
            send_task = asyncio.create_task(
                node.stream_video(_sequencer(), _scenes(6))
            )
            try:
                results = await hub.attach(transport, expected_streams=1)
            finally:
                await hub.close()
            await send_task
            return lossy, hub, results[0]

        lossy, hub, result = run(scenario())
        assert lossy.truncated
        stats = hub.stats()
        # A truncated slice corrupts at least its own chunk; whatever the
        # resync decoder could not salvage is accounted, never raised.
        assert stats.n_corrupt_chunks + stats.n_lost_chunks > 0
        assert result.announced_frames == 6


class TestAcceptance64x64:
    """ISSUE 8 acceptance: 64×64 streamed video, 10% chunk loss, no raise."""

    FRAMES = 4

    def test_full_video_reconstructs_under_ten_percent_loss(self):
        config = SensorConfig(rows=64, cols=64)
        sequencer = VideoSequencer(
            CompressiveImager(config, seed=18), samples_per_frame=300, seed=18
        )

        async def scenario():
            transport = LoopbackTransport(max_buffered=64)
            lossy = LossyTransport(transport, seed=8, drop_rate=0.1)
            hub = ReceiverHub(resilient=True, max_iterations=5)
            node = CameraNode(
                lossy, gop_size=2, segments_per_frame=4, parity=True
            )
            send_task = asyncio.create_task(
                node.stream_video(sequencer, _scenes(self.FRAMES, (64, 64)))
            )
            try:
                results = await hub.attach(transport, expected_streams=1)
            finally:
                await hub.close()
            await send_task
            return lossy, hub, results[0]

        lossy, hub, result = run(scenario())
        assert lossy.dropped
        # Every frame of the video landed, in order, and reconstructed.
        assert result.n_frames == self.FRAMES
        assert [f.frame_index for f in result.frames] == list(range(self.FRAMES))
        for frame in result.frames:
            assert frame.reconstruction is not None
            assert frame.reconstruction.image.shape == (64, 64)
            assert np.isfinite(frame.reconstruction.image).all()
        # And the loss metadata is exact against the injected pattern.
        stats = hub.session_stats[1]
        assert stats.n_lost_chunks == len(lossy.dropped)
        for frame, report in zip(result.frames, stats.frame_loss):
            assert report.n_samples_expected == 300
            if frame.sample_mask is not None:
                assert int(frame.sample_mask.sum()) == report.n_samples_received


class TestClosedLoopRateControl:
    """The AIMD feedback loop, from unit maths to the full duplex wire."""

    def test_aimd_backs_off_multiplicatively_and_probes_back_additively(self):
        governor = BitrateGovernor(
            closed_loop=True, aimd_increase=4, min_samples=8
        )
        assert governor.samples_for_frame(CONFIG, max_samples=40) == 40

        def ack(received, expected=40):
            return ControlAck(0, 1, 1, 0, expected, received)

        governor.on_feedback(ack(30))  # loss → halve
        assert governor.samples_for_frame(CONFIG, max_samples=40) == 20
        governor.on_feedback(ack(40))  # clean → +4
        governor.on_feedback(ack(40))
        assert governor.samples_for_frame(CONFIG, max_samples=40) == 28
        for _ in range(10):  # additive increase saturates at the ceiling
            governor.on_feedback(ack(40))
        assert governor.samples_for_frame(CONFIG, max_samples=40) == 40
        for _ in range(10):  # repeated loss floors at min_samples
            governor.on_feedback(ack(0))
        assert governor.samples_for_frame(CONFIG, max_samples=40) == 8
        assert governor.n_loss_events == 11

    def test_rate_advice_only_ever_lowers_the_target(self):
        from repro.stream.protocol import RateAdvice

        governor = BitrateGovernor(closed_loop=True, min_samples=8)
        assert governor.samples_for_frame(CONFIG, max_samples=40) == 40
        governor.on_rate_advice(
            RateAdvice(frame_index=0, advised_samples=12, loss_fraction=0.7)
        )
        assert governor.samples_for_frame(CONFIG, max_samples=40) == 12
        governor.on_rate_advice(  # higher advice is ignored
            RateAdvice(frame_index=1, advised_samples=400, loss_fraction=0.0)
        )
        assert governor.samples_for_frame(CONFIG, max_samples=40) == 12

    def test_unknown_expectation_acks_count_as_loss(self):
        governor = BitrateGovernor(closed_loop=True, min_samples=8)
        governor.samples_for_frame(CONFIG, max_samples=40)
        # A fully-lost frame the receiver could not even size must pull the
        # rate down, not read as "clean" vacuously.
        assert not ControlAck(0, 5, 0, 0, 0, 0).clean

    def test_closed_loop_backs_off_under_real_loss(self):
        async def scenario():
            # A tight forward buffer makes the node stall on the receiver,
            # so delivery reports interleave with capture and the AIMD
            # back-off lands *during* the stream, not after it.
            node_end, receiver_end = loopback_duplex_pair(max_buffered=4)
            lossy = LossyTransport(node_end, seed=5, drop_rate=0.2)
            governor = BitrateGovernor(
                closed_loop=True,
                aimd_increase=4,
                min_samples=8,
            )
            node = CameraNode(
                lossy,
                governor=governor,
                gop_size=2,
                segments_per_frame=2,
                feedback=True,
            )
            receiver = StreamReceiver(
                reconstruct=False, resilient=True, feedback=True
            )
            send_task = asyncio.create_task(
                node.stream_video(_sequencer(), _scenes(12))
            )
            result = await receiver.run(receiver_end)
            stats = await send_task
            return lossy, governor, node, result, stats

        lossy, governor, node, result, stats = run(scenario())
        assert lossy.dropped
        assert node.n_feedback_errors == 0
        assert governor.n_feedback > 0
        assert governor.n_loss_events > 0
        # The node really did slow down: some GOP streamed below the open-
        # loop rate, and never below the configured floor.
        assert min(stats.samples_per_frame) < 50
        assert min(stats.samples_per_frame) >= 8
        assert result.n_frames == 12

    def test_closed_loop_governs_a_mosaic_per_gop(self):
        async def scenario():
            node_end, receiver_end = loopback_duplex_pair(max_buffered=4)
            lossy = LossyTransport(node_end, seed=5, drop_rate=0.2)
            governor = BitrateGovernor(closed_loop=True, aimd_increase=4, min_samples=8)
            node = CameraNode(lossy, governor=governor, gop_size=2, feedback=True)
            receiver = StreamReceiver(
                reconstruct=False, resilient=True, feedback=True
            )
            send_task = asyncio.create_task(_stream_kind(node, "tiled-video", 12))
            await receiver.run(receiver_end)
            stats = await send_task
            return lossy, governor, stats

        lossy, governor, stats = run(scenario())
        assert lossy.dropped
        assert governor.n_loss_events > 0
        counts = stats.samples_per_frame
        assert len(counts) == 12
        # Some GOP streamed below the open-loop 4 x 51 samples, none below
        # the four tiles' floor, and every GOP kept one count.
        assert min(counts) < 4 * 51
        assert min(counts) >= 4 * 8
        assert counts[0::2] == counts[1::2]

    @pytest.mark.parametrize("kind", ["video", "tiled-video"])
    def test_zero_loss_closed_loop_is_byte_identical_to_open_loop(self, kind):
        kwargs = dict(max_iterations=8)

        async def closed():
            node_end, receiver_end = loopback_duplex_pair(max_buffered=64)
            governor = BitrateGovernor(closed_loop=True, min_samples=8)
            node = CameraNode(node_end, governor=governor, gop_size=4, feedback=True)
            receiver = StreamReceiver(resilient=True, feedback=True, **kwargs)
            send_task = asyncio.create_task(_stream_kind(node, kind, 8))
            result = await receiver.run(receiver_end)
            stats = await send_task
            return governor, result, stats

        async def open_loop():
            transport = LoopbackTransport(max_buffered=64)
            node = CameraNode(transport, gop_size=4)
            receiver = StreamReceiver(**kwargs)
            send_task = asyncio.create_task(_stream_kind(node, kind, 8))
            result = await receiver.run(transport)
            stats = await send_task
            return result, stats

        governor, closed_result, closed_stats = run(closed())
        open_result, open_stats = run(open_loop())
        # The loop saw feedback yet never deviated from the open-loop rate.
        assert governor.n_feedback > 0
        assert governor.n_loss_events == 0
        assert closed_stats.samples_per_frame == open_stats.samples_per_frame
        assert closed_result.n_frames == open_result.n_frames
        for closed_frame, open_frame in zip(
            closed_result.frames, open_result.frames
        ):
            closed_tiles = _tile_frames(closed_frame.capture)
            open_tiles = _tile_frames(open_frame.capture)
            assert len(closed_tiles) == len(open_tiles)
            for closed_tile, open_tile in zip(closed_tiles, open_tiles):
                assert np.array_equal(closed_tile.samples, open_tile.samples)
                assert np.array_equal(closed_tile.seed_state, open_tile.seed_state)
            assert (
                closed_frame.reconstruction.image.tobytes()
                == open_frame.reconstruction.image.tobytes()
            )
