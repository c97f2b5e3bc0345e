"""Self-healing streams: retransmission, reconnect-with-resume, deadlines.

The session-durability layer of PR 10, pinned at every level:

* **unit** — the :class:`~repro.stream.node.RetransmitBuffer` window
  discipline and the :class:`~repro.stream.node.ReconnectSupervisor`
  backoff schedule, both to exact numbers, the schedule under a
  :class:`~repro.telemetry.ManualClock` (no wall-clock sleeps anywhere in
  this file);
* **session** — NACK-at-barrier deferral, repair-completes-whole, grace
  expiry at the exact firing time, the stalled-stream timer, and the
  zero-fault inertness of the whole deadline path;
* **hub** — park / resume / grace-expiry / idle-reap / drain, and the
  typed :class:`~repro.stream.hub.HubPortInUseError` a reconnect
  supervisor treats as retryable;
* **end to end** (``chaos``-marked) — NACK repair over a live duplex
  loopback, a mid-GOP kill healed by reconnect-with-resume
  byte-identically, and Gilbert–Elliott burst loss where selective repeat
  strictly beats the PR-8 resilient baseline on the same seed.
"""

import asyncio
import struct

import numpy as np
import pytest

from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.video import VideoSequencer
from repro.stream.fault import DisconnectingTransport, GilbertElliottTransport
from repro.stream.hub import (
    DuplicateStreamIdError,
    HubPortInUseError,
    ReceiverHub,
    SessionResumeError,
)
from repro.stream.node import (
    CameraNode,
    ReconnectExhaustedError,
    ReconnectSupervisor,
    RetransmitBuffer,
)
from repro.stream.protocol import (
    Chunk,
    ChunkDecoder,
    ChunkType,
    ControlAck,
    FrameComplete,
    NackRequest,
    SessionResume,
    decode_payload,
    encode_chunk,
    encode_payload,
)
from repro.stream.receiver import StreamReceiver
from repro.stream.session import StreamSession
from repro.stream.transport import LoopbackTransport, loopback_duplex_pair
from repro.telemetry import ManualClock, Telemetry
from repro.utils.rng import derive_seed, new_rng


CONFIG = SensorConfig(rows=16, cols=16)


def run(coro):
    return asyncio.run(coro)


class RecordingTransport:
    """Swallows every sent slice into a list; ``recv`` drains ``inbox``."""

    def __init__(self):
        self.slices = []
        self.inbox = []
        self.closed = False

    async def send(self, data):
        self.slices.append(bytes(data))

    async def recv(self):
        return self.inbox.pop(0) if self.inbox else None

    async def close(self):
        self.closed = True


class InlineScheduler:
    """Solve scheduler that runs the job synchronously on submit."""

    async def submit(self, key, fn):
        future = asyncio.get_running_loop().create_future()
        future.set_result(fn())
        return future


class DropOnceTransport:
    """Drop exactly the scripted send indices, once each — pure, no RNG."""

    def __init__(self, inner, drops):
        self.inner = inner
        self._drops = set(drops)
        self.n_sends = 0
        self.dropped = []

    async def send(self, data):
        index = self.n_sends
        self.n_sends += 1
        if index in self._drops:
            self._drops.discard(index)
            self.dropped.append(index)
            return
        await self.inner.send(data)

    async def recv(self):
        return await self.inner.recv()

    async def close(self):
        await self.inner.close()


def _sequencer(seed=7, samples=50):
    return VideoSequencer(
        CompressiveImager(CONFIG, seed=seed), samples_per_frame=samples, seed=seed
    )


def _scenes(n, shape=(16, 16), seed=0):
    return [make_scene("blobs", shape, seed=seed + index) for index in range(n)]


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


def _manual_session(**options):
    """A resilient session on a ManualClock starting at t=0."""
    clock = ManualClock()
    telemetry = Telemetry(enabled=False, clock=clock)
    session = StreamSession(
        1,
        InlineScheduler(),
        resilient=True,
        reconstruct=False,
        telemetry=telemetry,
        **options,
    )
    return session, clock


async def _feed(session, chunks):
    for chunk in chunks:
        await session.handle_chunk(chunk)


# =========================================================================
# RetransmitBuffer: the bounded selective-repeat window
# =========================================================================


class TestRetransmitBuffer:
    def test_capacity_evicts_oldest_first(self):
        buffer = RetransmitBuffer(3)
        for sequence in range(5):
            buffer.add(sequence, bytes([sequence]), frame_index=0)
        assert len(buffer) == 3
        assert buffer.n_evicted_capacity == 2
        assert [entry.sequence for entry in buffer.pending()] == [2, 3, 4]
        assert buffer.get(0) is None
        assert buffer.get(4).encoded == b"\x04"

    def test_ack_evicts_whole_frames_but_not_frameless_chunks(self):
        buffer = RetransmitBuffer(10)
        buffer.add(0, b"h", frame_index=None)  # header/end chunks
        buffer.add(1, b"a", frame_index=0)
        buffer.add(2, b"b", frame_index=1)
        buffer.add(3, b"c", frame_index=2)
        assert buffer.evict_acked(1) == 2
        assert buffer.n_evicted_acked == 2
        assert [entry.sequence for entry in buffer.pending()] == [0, 3]

    def test_clear_forgets_everything(self):
        buffer = RetransmitBuffer(4)
        buffer.add(1, b"a", frame_index=0)
        buffer.clear()
        assert len(buffer) == 0 and buffer.pending() == []

    def test_zero_capacity_refused(self):
        with pytest.raises(ValueError):
            RetransmitBuffer(0)


# =========================================================================
# ReconnectSupervisor: exact backoff under ManualClock
# =========================================================================


def _expected_delays(seed, n, *, base_delay=0.05, max_delay=2.0, jitter=0.25):
    """Replay the supervisor's jittered schedule from its derived RNG."""
    rng = new_rng(derive_seed(seed, "reconnect-supervisor"))
    return [
        min(max_delay, base_delay * 2.0 ** (attempt - 1))
        * (1.0 + jitter * float(rng.random()))
        for attempt in range(1, n + 1)
    ]


class TestReconnectSupervisor:
    def _supervised(self, failures, *, clock=None, **options):
        """A supervisor whose connect fails ``failures`` times, then succeeds."""
        clock = clock if clock is not None else ManualClock()
        attempts = []

        async def sleep(delay):
            clock.advance(delay)

        async def connect():
            attempts.append(clock.now())
            if len(attempts) <= failures:
                raise ConnectionRefusedError("hub is down")
            return RecordingTransport()

        supervisor = ReconnectSupervisor(
            connect, clock=clock, sleep=sleep, **options
        )
        return supervisor, attempts

    def test_backoff_schedule_replays_from_the_derived_seed(self):
        supervisor, attempts = self._supervised(3, seed=7)
        transport = run(supervisor.acquire())
        assert isinstance(transport, RecordingTransport)
        expected = _expected_delays(7, 3)
        assert supervisor.delays == pytest.approx(expected)
        # Attempt 0 fires immediately; attempt k at the delay prefix sum.
        firing = [0.0]
        for delay in expected:
            firing.append(firing[-1] + delay)
        assert attempts == pytest.approx(firing)
        assert supervisor.attempt_times == pytest.approx(firing)
        assert supervisor.n_attempts == 4
        assert supervisor.n_reconnects == 1

    def test_jitter_free_schedule_is_pure_doubling(self):
        supervisor, _ = self._supervised(5, jitter=0.0)
        run(supervisor.acquire())
        assert supervisor.delays == pytest.approx([0.05, 0.1, 0.2, 0.4, 0.8])

    def test_max_delay_caps_the_doubling(self):
        supervisor, _ = self._supervised(4, jitter=0.0, max_delay=0.2)
        run(supervisor.acquire())
        assert supervisor.delays == pytest.approx([0.05, 0.1, 0.2, 0.2])

    def test_exhaustion_raises_typed_with_the_cause_chained(self):
        supervisor, attempts = self._supervised(99, max_attempts=3)
        with pytest.raises(ReconnectExhaustedError) as info:
            run(supervisor.acquire())
        assert isinstance(info.value, ConnectionError)
        assert isinstance(info.value.__cause__, ConnectionRefusedError)
        assert supervisor.n_attempts == 3
        assert len(attempts) == 3

    def test_non_retryable_errors_pass_straight_through(self):
        clock = ManualClock()

        async def connect():
            raise ValueError("not a transport problem")

        supervisor = ReconnectSupervisor(connect, clock=clock)
        with pytest.raises(ValueError):
            run(supervisor.acquire())
        assert supervisor.n_attempts == 1

    def test_hub_port_in_use_is_retryable_by_default(self):
        # Satellite: a hub still restarting (bind refused) must look like a
        # transient to the node's supervisor, not a fatal error.
        calls = []

        async def connect():
            calls.append(True)
            if len(calls) == 1:
                raise HubPortInUseError("hub cannot bind 127.0.0.1:9000")
            return RecordingTransport()

        clock = ManualClock()

        async def sleep(delay):
            clock.advance(delay)

        supervisor = ReconnectSupervisor(connect, clock=clock, sleep=sleep)
        run(supervisor.acquire())
        assert supervisor.n_attempts == 2
        assert supervisor.n_reconnects == 1

    def test_parameter_validation(self):
        async def connect():
            return RecordingTransport()

        with pytest.raises(ValueError):
            ReconnectSupervisor(connect, max_attempts=0)
        with pytest.raises(ValueError):
            ReconnectSupervisor(connect, jitter=-0.1)


# =========================================================================
# Session deadlines: NACK-at-barrier, repair, grace expiry, stalled streams
# =========================================================================


class TestSessionDeadlines:
    """The deferral machinery, driven to exact firing times."""

    def test_incomplete_frame_at_barrier_nacks_once_and_defers(self):
        async def scenario():
            slices, _ = await _record_video_chunks()
            chunks = _decode_all(slices)
            session, _ = _manual_session(frame_deadline=2.0)
            # Frame 0 is sequences 1-5 (4 segments + parity), barrier at 6.
            # Drop segment 1 (seq 2) AND parity (seq 5): unrecoverable by
            # parity, so the barrier must defer and NACK.
            await _feed(
                session, [c for c in chunks[:7] if c.sequence not in (2, 5)]
            )
            return session

        session = run(scenario())
        assert session.stats.n_nacks_sent == 1
        assert session.stats.n_frames == 0  # deferred, not settled
        control = session.take_outgoing_control()
        assert control == [NackRequest(frame_index=0, sequences=(2, 5))]

    def test_retransmit_completes_the_deferred_frame_whole(self):
        async def scenario():
            slices, _ = await _record_video_chunks()
            chunks = _decode_all(slices)
            session, _ = _manual_session(frame_deadline=2.0)
            await _feed(
                session, [c for c in chunks[:7] if c.sequence not in (2, 5)]
            )
            # The node answers the NACK: the dropped chunks re-arrive
            # verbatim under their original sequence numbers.
            await _feed(session, [chunks[2], chunks[5]])
            settled_after_repair = session.stats.n_frames
            await _feed(session, chunks[7:])
            result = await session.finish()
            return session, settled_after_repair, result

        session, settled_after_repair, result = run(scenario())
        assert settled_after_repair == 1  # the repair itself settled frame 0
        assert result.n_frames == 4
        assert session.stats.n_deadline_salvages == 0
        assert session.missing_sequences == ()
        report = session.stats.frame_loss[0]
        assert report.clean
        assert report.n_samples_received == 50
        assert result.frames[0].sample_mask is None  # full-Φ, no mask

    def test_grace_lapses_at_the_exact_nack_grace_boundary(self):
        async def scenario():
            slices, _ = await _record_video_chunks()
            chunks = _decode_all(slices)
            # nack_grace is its own knob: the deferral must time out on it,
            # not on the (longer) frame_deadline.
            session, _ = _manual_session(frame_deadline=5.0, nack_grace=2.0)
            await _feed(
                session, [c for c in chunks[:7] if c.sequence not in (2, 5)]
            )
            await session.check_deadlines(1.999)
            still_deferred = session.stats.n_frames == 0
            await session.check_deadlines(2.0)
            return session, still_deferred

        session, still_deferred = run(scenario())
        assert still_deferred
        assert session.stats.n_deadline_salvages == 1
        assert session.stats.n_frames == 1
        report = session.stats.frame_loss[0]
        assert not report.clean
        # Segment sizes are 12, 13, 12, 13 of 50: losing segment 1 costs 13.
        assert report.n_samples_received == 37

    def test_stalled_stream_nacks_on_the_frame_deadline_timer(self):
        async def scenario():
            slices, _ = await _record_video_chunks()
            chunks = _decode_all(slices)
            session, _ = _manual_session(frame_deadline=2.0)
            # Segments 0, 2, 3 of frame 0 and nothing else: no barrier ever
            # arrives, so only the first-chunk-age timer can notice.
            await _feed(session, [c for c in chunks[:5] if c.sequence != 2])
            await session.check_deadlines(1.999)
            before_deadline = session.stats.n_nacks_sent
            await session.check_deadlines(2.0)
            after_deadline = session.stats.n_nacks_sent
            await session.check_deadlines(2.0)  # a frame NACKs exactly once
            await session.check_deadlines(3.0)
            once_only = session.stats.n_nacks_sent
            # Grace (= deadline) lapses at 2.0 + 2.0; EOF then salvages.
            await session.check_deadlines(4.0)
            await session.handle_eof()
            result = await session.finish()
            return session, before_deadline, after_deadline, once_only, result

        session, before, after, once_only, result = run(scenario())
        assert before == 0
        assert after == 1
        assert once_only == 1
        assert session.stats.n_deadline_salvages == 1
        assert result.n_frames == 1
        assert session.stats.frame_loss[0].n_samples_received == 37

    def test_stream_end_flushes_open_deferrals_as_salvages(self):
        async def scenario():
            slices, _ = await _record_video_chunks()
            chunks = _decode_all(slices)
            session, _ = _manual_session(frame_deadline=30.0)
            await _feed(
                session, [c for c in chunks if c.sequence not in (2, 5)]
            )
            result = await session.finish()
            return session, result

        session, result = run(scenario())
        # The repair can no longer arrive once the stream ends: the open
        # grace window dies with it and the frame salvages partial.
        assert session.stats.n_nacks_sent == 1
        assert session.stats.n_deadline_salvages == 1
        assert result.n_frames == 4
        assert session.stats.frame_loss[0].n_samples_received == 37
        assert [r.clean for r in session.stats.frame_loss] == [
            False,
            True,
            True,
            True,
        ]

    def test_parity_coverable_frames_never_defer(self):
        async def scenario():
            slices, _ = await _record_video_chunks()
            chunks = _decode_all(slices)
            session, _ = _manual_session(frame_deadline=2.0)
            # Only segment 1 lost: parity rebuilds it at the barrier, so
            # deferring would waste a round trip on a repair-for-free frame.
            await _feed(session, [c for c in chunks if c.sequence != 2])
            result = await session.finish()
            return session, result

        session, result = run(scenario())
        assert session.stats.n_nacks_sent == 0
        assert session.stats.n_recovered_chunks == 1
        assert result.n_frames == 4
        assert all(r.clean for r in session.stats.frame_loss)

    def test_zero_fault_deadline_path_is_inert(self):
        async def scenario():
            slices, _ = await _record_video_chunks()
            chunks = _decode_all(slices)
            guarded, _ = _manual_session(frame_deadline=2.0, nack_grace=1.0)
            await _feed(guarded, chunks)
            guarded_result = await guarded.finish()
            plain, _ = _manual_session()
            await _feed(plain, chunks)
            plain_result = await plain.finish()
            return guarded, guarded_result, plain_result

        guarded, guarded_result, plain_result = run(scenario())
        assert guarded.stats.n_nacks_sent == 0
        assert guarded.stats.n_deadline_salvages == 0
        assert guarded_result.n_frames == plain_result.n_frames == 4
        for healed, baseline in zip(
            guarded_result.frames, plain_result.frames
        ):
            np.testing.assert_array_equal(
                healed.capture.samples, baseline.capture.samples
            )

    def test_deadline_knob_validation(self):
        with pytest.raises(ValueError):
            StreamSession(1, InlineScheduler(), frame_deadline=0.0)
        with pytest.raises(ValueError):
            StreamSession(1, InlineScheduler(), nack_grace=-1.0)


# =========================================================================
# Satellite: max_sequence_gap is a constructor parameter
# =========================================================================


class TestMaxSequenceGapParameter:
    def test_default_is_the_class_constant(self):
        session = StreamSession(1, InlineScheduler())
        assert session.max_sequence_gap == StreamSession.MAX_SEQUENCE_GAP == 4096

    def test_zero_or_negative_refused(self):
        with pytest.raises(ValueError):
            StreamSession(1, InlineScheduler(), max_sequence_gap=0)
        with pytest.raises(ValueError):
            StreamSession(1, InlineScheduler(), max_sequence_gap=-5)

    def test_narrow_window_books_big_jumps_as_corruption(self):
        async def scenario():
            slices, _ = await _record_video_chunks()
            chunks = _decode_all(slices)
            session = StreamSession(
                1,
                InlineScheduler(),
                resilient=True,
                reconstruct=False,
                max_sequence_gap=2,
            )
            await session.handle_chunk(chunks[0])
            jumped = Chunk(
                chunk_type=chunks[1].chunk_type,
                stream_id=chunks[1].stream_id,
                sequence=10,  # gap of 9 > 2: implausible, not loss
                payload=chunks[1].payload,
            )
            await session.handle_chunk(jumped)
            return session

        session = run(scenario())
        assert session.stats.n_corrupt_chunks == 1
        assert session.missing_sequences == ()

    def test_jumps_inside_the_window_stay_loss(self):
        async def scenario():
            slices, _ = await _record_video_chunks()
            chunks = _decode_all(slices)
            session = StreamSession(
                1,
                InlineScheduler(),
                resilient=True,
                reconstruct=False,
                max_sequence_gap=2,
            )
            await session.handle_chunk(chunks[0])
            await session.handle_chunk(chunks[3])  # gap of 2 <= 2: plausible
            return session

        session = run(scenario())
        assert session.missing_sequences == (1, 2)
        assert session.stats.n_corrupt_chunks == 0

    def test_hub_and_receiver_forward_the_knob(self):
        hub = ReceiverHub(reconstruct=False, max_sequence_gap=7)
        assert hub._open_session(1).max_sequence_gap == 7
        receiver = StreamReceiver(reconstruct=False, max_sequence_gap=9)
        assert receiver._new_hub()._open_session(1).max_sequence_gap == 9


# =========================================================================
# Node: answering NACKs verbatim from the retransmission buffer
# =========================================================================


class TestNodeNackAnswering:
    def test_buffered_chunks_are_resent_byte_for_byte(self):
        async def scenario():
            transport = RecordingTransport()
            node = CameraNode(
                transport,
                gop_size=4,
                segments_per_frame=4,
                parity=True,
                retransmit_capacity=32,
            )
            await node.stream_video(_sequencer(), _scenes(2))
            sent = list(transport.slices)
            transport.slices.clear()
            await node._answer_nack(NackRequest(frame_index=0, sequences=(2, 5)))
            return node, sent, list(transport.slices)

        node, sent, resent = run(scenario())
        # The repair is the original wire bytes, original sequence numbers.
        assert resent == [sent[2], sent[5]]
        assert node.n_retransmits == 2
        assert node.n_nacks_answered == 1
        assert node.n_nack_misses == 0

    def test_evicted_sequences_count_as_misses(self):
        async def scenario():
            transport = RecordingTransport()
            node = CameraNode(
                transport,
                gop_size=4,
                segments_per_frame=4,
                parity=True,
                retransmit_capacity=32,
            )
            await node.stream_video(_sequencer(), _scenes(2))
            transport.slices.clear()
            await node._answer_nack(
                NackRequest(frame_index=0, sequences=(999,))
            )
            return node, list(transport.slices)

        node, resent = run(scenario())
        assert resent == []
        assert node.n_nack_misses == 1
        assert node.n_nacks_answered == 0

    def test_a_nack_repeating_one_sequence_is_refused_on_the_feedback_path(self):
        # 65,535 copies of one buffered sequence: the schema caps a NACK at
        # MAX_NACK_SEQUENCES strictly increasing sequences, so the node counts
        # a feedback error instead of resending the chunk once per copy.
        flood = struct.pack(">IH", 0, 0xFFFF) + struct.pack(">I", 2) * 0xFFFF

        def nack(payload):
            return encode_chunk(Chunk(ChunkType.CONTROL_NACK, 1, 0, payload))

        async def scenario():
            transport = RecordingTransport()
            node = CameraNode(
                transport,
                gop_size=4,
                segments_per_frame=4,
                parity=True,
                retransmit_capacity=32,
            )
            await node.stream_video(_sequencer(), _scenes(2))
            transport.slices.clear()
            transport.inbox.append(nack(flood))
            await node._feedback_loop()
            refused = (node.n_feedback_errors, node.n_retransmits, len(transport.slices))
            # The same sequence, asked for once, is still there to resend.
            transport.inbox.append(nack(encode_payload(NackRequest(0, (2,)))))
            await node._feedback_loop()
            return refused, node.n_retransmits

        refused, retransmits_after_a_valid_nack = run(scenario())
        assert refused == (1, 0, 0)
        assert retransmits_after_a_valid_nack == 1

    def test_reconnect_requires_a_retransmit_buffer(self):
        async def connect():
            return RecordingTransport()

        with pytest.raises(ValueError):
            CameraNode(
                RecordingTransport(),
                reconnect=ReconnectSupervisor(connect),
            )


# =========================================================================
# Hub durability: park / resume / expire / idle-reap / drain
# =========================================================================


def _manual_hub(**options):
    clock = ManualClock()
    telemetry = Telemetry(enabled=False, clock=clock)
    hub = ReceiverHub(
        resilient=True, reconstruct=False, telemetry=telemetry, **options
    )
    return hub, clock


async def _attach_slices(hub, slices, *, close=True):
    """Feed pre-recorded slices through one hub connection."""
    transport = LoopbackTransport(max_buffered=len(slices) + 1)
    for data in slices:
        await transport.send(data)
    if close:
        await transport.close()
    return await hub.attach(transport)


class TestAdvisoryFeedback:
    """Corrupt input may garble feedback but never kills a resilient connection."""

    def test_barrier_announcing_zero_chunks_still_settles_the_stream(self):
        # FRAME_COMPLETE carries no CRC: a flipped count that undercuts the
        # chunks already received must not yield an ack the encoder refuses.
        async def scenario():
            hub, _ = _manual_hub(feedback=True)
            slices, _ = await _record_video_chunks()
            chunks = _decode_all(slices)
            barrier = next(c for c in chunks if c.chunk_type is ChunkType.FRAME_COMPLETE)
            frame_index = decode_payload(barrier.chunk_type, barrier.payload).frame_index
            corrupt = Chunk(
                chunk_type=barrier.chunk_type,
                stream_id=barrier.stream_id,
                sequence=barrier.sequence,
                payload=encode_payload(FrameComplete(frame_index, 0)),
            )
            transport = RecordingTransport()
            transport.inbox = [
                encode_chunk(corrupt) if chunk is barrier else encode_chunk(chunk)
                for chunk in chunks
            ]
            results = await hub.attach(transport)
            return hub, results, _decode_all(transport.slices)

        hub, results, feedback = run(scenario())
        assert hub.failures == []
        assert len(results) == 1
        assert results[0].announced_frames == 4
        acks = [
            decode_payload(chunk.chunk_type, chunk.payload)
            for chunk in feedback
            if chunk.chunk_type is ChunkType.CONTROL_ACK
        ]
        # The first frame's ack still reaches the node, coherent: the
        # chunks that landed bound the expectation from below.
        first = next(ack for ack in acks if ack.frame_index == 0)
        assert first.n_received_chunks > 0
        assert first.n_expected_chunks == first.n_received_chunks

    def test_a_payload_the_encoder_refuses_is_dropped_not_fatal(self, monkeypatch):
        incoherent = ControlAck(0, 1, 2, 0, 50, 50)

        def take_outgoing_control(self):
            return [incoherent]

        monkeypatch.setattr(StreamSession, "take_outgoing_control", take_outgoing_control)

        async def scenario():
            hub, _ = _manual_hub(feedback=True)
            slices, _ = await _record_video_chunks()
            transport = RecordingTransport()
            transport.inbox = list(slices)
            results = await hub.attach(transport)
            return hub, results, transport.slices

        hub, results, feedback = run(scenario())
        assert hub.failures == []
        assert len(results) == 1
        assert results[0].announced_frames == 4
        assert feedback == []


class TestHubParkAndResume:
    def test_mid_stream_eof_parks_instead_of_salvaging(self):
        async def scenario():
            hub, _ = _manual_hub(resume_grace=10.0)
            slices, _ = await _record_video_chunks()
            # Header + frames 0 and 1 (13 chunks), then EOF mid-stream.
            results = await _attach_slices(hub, slices[:13])
            return hub, results

        hub, results = run(scenario())
        assert results == []
        stats = hub.stats()
        assert stats.n_parked == 1
        assert stats.n_parked_now == 1
        assert stats.n_completed == 0  # nothing settled: the node may return

    def test_resume_continues_the_stream_state_intact(self):
        async def scenario():
            hub, _ = _manual_hub(resume_grace=10.0)
            slices, _ = await _record_video_chunks()
            chunks = _decode_all(slices)
            await _attach_slices(hub, slices[:13])
            # The node reconnects: a SESSION_RESUME at the next sequence,
            # then the rest of the stream shifted one sequence up (the
            # resume chunk rides the normal forward numbering).
            resume = Chunk(
                chunk_type=ChunkType.SESSION_RESUME,
                stream_id=1,
                sequence=13,
                payload=encode_payload(
                    SessionResume(next_sequence=13, frame_index=1, epoch=1)
                ),
            )
            rest = [
                Chunk(
                    chunk_type=chunk.chunk_type,
                    stream_id=chunk.stream_id,
                    sequence=chunk.sequence + 1,
                    payload=chunk.payload,
                )
                for chunk in chunks[13:]
            ]
            transport = LoopbackTransport(max_buffered=len(rest) + 2)
            await transport.send(encode_chunk(resume))
            for chunk in rest:
                await transport.send(encode_chunk(chunk))
            await transport.close()
            results = await hub.attach(transport)
            return hub, results

        hub, results = run(scenario())
        assert len(results) == 1
        assert results[0].n_frames == 4
        assert results[0].announced_frames == 4
        stats = hub.stats()
        assert stats.n_parked == 1
        assert stats.n_resumed == 1
        assert stats.n_resumes == 1  # the session absorbed the resume chunk
        assert stats.n_parked_now == 0
        assert stats.n_lost_chunks == 0
        session = hub.session_stats[1]
        assert all(report.clean for report in session.frame_loss)

    def test_reap_salvages_parked_state_after_the_exact_grace(self):
        async def scenario():
            hub, clock = _manual_hub(resume_grace=10.0)
            slices, _ = await _record_video_chunks()
            await _attach_slices(hub, slices[:13])
            clock.advance(10.0)
            await hub.reap()  # at exactly the grace bound: still parked
            at_bound = hub.stats().n_parked_now
            clock.advance(0.5)
            await hub.reap()
            return hub, at_bound

        hub, at_bound = run(scenario())
        assert at_bound == 1
        stats = hub.stats()
        assert stats.n_parked_now == 0
        assert stats.n_resume_expired == 1
        assert stats.n_reaped == 1
        assert stats.n_completed == 1
        assert hub.completed[0].n_frames == 2  # frames 0-1 salvaged

    def test_late_resume_is_refused_and_the_state_salvaged(self):
        async def scenario():
            hub, clock = _manual_hub(resume_grace=10.0)
            slices, _ = await _record_video_chunks()
            await _attach_slices(hub, slices[:13])
            clock.advance(10.5)
            resume = Chunk(
                chunk_type=ChunkType.SESSION_RESUME,
                stream_id=1,
                sequence=13,
                payload=encode_payload(
                    SessionResume(next_sequence=13, frame_index=1, epoch=1)
                ),
            )
            transport = LoopbackTransport(max_buffered=2)
            await transport.send(encode_chunk(resume))
            await transport.close()
            error = None
            try:
                await hub.attach(transport)
            except SessionResumeError as caught:
                error = caught
            return hub, error

        hub, error = run(scenario())
        assert error is not None
        stats = hub.stats()
        assert stats.n_resume_expired == 1
        assert stats.n_resumed == 0
        assert stats.n_completed == 1  # salvaged on refusal
        assert hub.failures == [error]

    def test_resume_for_an_unknown_stream_is_refused(self):
        async def scenario():
            hub, _ = _manual_hub(resume_grace=10.0)
            resume = Chunk(
                chunk_type=ChunkType.SESSION_RESUME,
                stream_id=5,
                sequence=0,
                payload=encode_payload(
                    SessionResume(next_sequence=0, frame_index=0, epoch=1)
                ),
            )
            transport = LoopbackTransport(max_buffered=2)
            await transport.send(encode_chunk(resume))
            await transport.close()
            try:
                await hub.attach(transport)
            except SessionResumeError as caught:
                return hub, caught
            return hub, None

        _, error = run(scenario())
        assert error is not None
        assert "no parked session" in str(error)

    def test_a_parked_id_refuses_fresh_streams(self):
        async def scenario():
            hub, _ = _manual_hub(resume_grace=10.0)
            slices, _ = await _record_video_chunks()
            await _attach_slices(hub, slices[:13])
            try:
                await _attach_slices(hub, slices[:1])  # a fresh STREAM_START
            except DuplicateStreamIdError as caught:
                return caught
            return None

        error = run(scenario())
        assert error is not None
        assert "parked awaiting resume" in str(error)

    def test_idle_sessions_are_reaped_past_the_timeout(self):
        async def scenario():
            hub, clock = _manual_hub(idle_timeout=5.0)
            slices, _ = await _record_video_chunks()
            transport = LoopbackTransport(max_buffered=20)
            for data in slices[:13]:
                await transport.send(data)
            attach_task = asyncio.create_task(hub.attach(transport))
            for _ in range(200):  # let the connection drain what arrived
                if hub.session_stats.get(1, None) is not None:
                    if hub.session_stats[1].n_chunks >= 13:
                        break
                await asyncio.sleep(0)
            clock.advance(5.0)
            await hub.reap()  # exactly at the bound: still live
            at_bound = hub.stats().n_active
            clock.advance(0.5)
            await hub.reap()
            reaped = hub.stats()
            await transport.close()
            late_results = await attach_task
            return hub, at_bound, reaped, late_results

        hub, at_bound, reaped, late_results = run(scenario())
        assert at_bound == 1
        assert reaped.n_active == 0
        assert reaped.n_reaped == 1
        assert reaped.n_completed == 1
        assert hub.completed[0].n_frames == 2
        assert late_results == []  # the sealed session never double-settles

    def test_drain_settles_parked_sessions_for_shutdown(self):
        async def scenario():
            hub, _ = _manual_hub(resume_grace=10.0)
            slices, _ = await _record_video_chunks()
            await _attach_slices(hub, slices[:13])
            await hub.drain()
            return hub, hub.stats()

        _, stats = run(scenario())
        assert stats.n_parked_now == 0
        assert stats.n_drained == 1
        assert stats.n_completed == 1

    def test_reap_drives_session_frame_deadlines(self):
        async def scenario():
            hub, clock = _manual_hub(frame_deadline=2.0)
            slices, _ = await _record_video_chunks()
            transport = LoopbackTransport(max_buffered=20)
            # Frame 0 missing segment 1 and parity, barrier delivered:
            # the session defers and NACKs; only reap() can expire it.
            chunks = _decode_all(slices)
            for chunk in chunks[:7]:
                if chunk.sequence not in (2, 5):
                    await transport.send(encode_chunk(chunk))
            attach_task = asyncio.create_task(hub.attach(transport))
            for _ in range(200):
                if hub.session_stats.get(1, None) is not None:
                    if hub.session_stats[1].n_nacks_sent:
                        break
                await asyncio.sleep(0)
            deferred = hub.stats()
            clock.advance(2.0)
            await hub.reap()
            salvaged = hub.stats()
            await transport.close()
            await attach_task
            return deferred, salvaged

        deferred, salvaged = run(scenario())
        assert deferred.n_nacks_sent == 1
        assert deferred.n_frames == 0
        assert salvaged.n_deadline_salvages == 1
        assert salvaged.n_frames == 1


# =========================================================================
# Satellite: typed bind errors on an already-bound port
# =========================================================================


class TestHubPortInUse:
    def test_serve_on_a_taken_port_raises_typed_with_the_port(self):
        async def scenario():
            first = ReceiverHub(reconstruct=False)
            second = ReceiverHub(reconstruct=False)
            _, port = await first.serve()
            try:
                await second.serve(port=port)
            except HubPortInUseError as error:
                return port, error
            finally:
                await first.close()
                await second.close()
            return port, None

        port, error = run(scenario())
        assert error is not None
        assert str(port) in str(error)
        assert isinstance(error, OSError)  # retryable by the supervisor

    def test_serve_metrics_on_a_taken_port_raises_typed(self):
        async def scenario():
            first = ReceiverHub(reconstruct=False)
            second = ReceiverHub(reconstruct=False)
            _, port = await first.serve_metrics()
            try:
                await second.serve_metrics(port=port)
            except HubPortInUseError as error:
                return port, error
            finally:
                await first.close()
                await second.close()
            return port, None

        port, error = run(scenario())
        assert error is not None
        assert str(port) in str(error)
        assert "metrics" in str(error)


# =========================================================================
# End to end: NACK repair over a live duplex wire
# =========================================================================


@pytest.mark.chaos
class TestNackRepairEndToEnd:
    def test_selective_repeat_heals_a_burst_inside_one_frame(self):
        async def scenario():
            node_end, hub_end = loopback_duplex_pair(max_buffered=4)
            hub = ReceiverHub(
                resilient=True,
                reconstruct=False,
                feedback=True,
                frame_deadline=30.0,
            )
            # Frame 1 occupies sequences 7-11 (4 segments + parity), its
            # barrier is 12.  Dropping a segment AND the parity defeats
            # single-parity repair — only a NACK round trip can heal it.
            faulty = DropOnceTransport(node_end, drops={8, 11})
            node = CameraNode(
                faulty,
                gop_size=4,
                segments_per_frame=4,
                parity=True,
                feedback=True,
                retransmit_capacity=64,
            )
            send_task = asyncio.create_task(
                node.stream_video(_sequencer(), _scenes(8))
            )
            results = await hub.attach(hub_end, expected_streams=1)
            await send_task
            await hub.close()
            return hub, node, faulty, results[0]

        hub, node, faulty, result = run(scenario())
        assert faulty.dropped == [8, 11]
        stats = hub.stats()
        assert stats.n_nacks_sent == 1
        assert node.n_retransmits == 2
        assert node.n_nacks_answered == 1
        # The repair landed in time: the frame settled whole, no salvage.
        assert stats.n_deadline_salvages == 0
        assert result.n_frames == 8
        session = hub.session_stats[1]
        assert all(report.clean for report in session.frame_loss)
        assert session.n_reordered_chunks == 2  # the two repaired chunks


# =========================================================================
# End to end: mid-GOP kill healed by reconnect-with-resume
# =========================================================================


@pytest.mark.chaos
class TestKillAndReconnect:
    N_FRAMES = 6

    async def _clean_run(self):
        """The same stream over an unfaulted wire: the identity baseline."""
        transport = LoopbackTransport(max_buffered=64)
        hub = ReceiverHub(resilient=True, max_iterations=5)
        node = CameraNode(
            transport, gop_size=4, segments_per_frame=4, parity=True
        )
        send_task = asyncio.create_task(
            node.stream_video(_sequencer(), _scenes(self.N_FRAMES))
        )
        results = await hub.attach(transport, expected_streams=1)
        await send_task
        await hub.close()
        return results[0]

    def test_node_killed_mid_gop_resumes_byte_identically(self):
        async def scenario():
            clean = await self._clean_run()
            hub = ReceiverHub(
                resilient=True, max_iterations=5, resume_grace=60.0
            )
            node_end, hub_end = loopback_duplex_pair(max_buffered=64)
            # The cut lands on send index 9 — segment 2 of frame 1, mid-GOP
            # (the GOP keyframe was frame 0): the seed chain must survive.
            cutter = DisconnectingTransport(node_end, disconnect_after=9)
            attach_tasks = [asyncio.create_task(hub.attach(hub_end))]

            async def connect():
                # The old connection fully parks before the new one opens.
                await attach_tasks[0]
                new_node_end, new_hub_end = loopback_duplex_pair(
                    max_buffered=64
                )
                attach_tasks.append(
                    asyncio.create_task(hub.attach(new_hub_end))
                )
                return new_node_end

            reconnect = ReconnectSupervisor(connect)
            node = CameraNode(
                cutter,
                gop_size=4,
                segments_per_frame=4,
                parity=True,
                retransmit_capacity=64,
                reconnect=reconnect,
            )
            send_stats = await node.stream_video(
                _sequencer(), _scenes(self.N_FRAMES)
            )
            results = await attach_tasks[-1]
            await hub.close()
            return hub, node, reconnect, cutter, results[0], clean, send_stats

        hub, node, reconnect, cutter, healed, clean, send_stats = run(
            scenario()
        )
        assert cutter.disconnect_send == 9
        # The scripted fault maps one-to-one onto the recovery counters.
        assert node.n_resumes == 1
        assert reconnect.n_attempts == 1
        assert reconnect.n_reconnects == 1
        # The whole unacked window (sequences 0-9) replayed verbatim.
        assert node.n_resume_retransmits == 10
        stats = hub.stats()
        assert stats.n_parked == 1
        assert stats.n_resumed == 1
        assert stats.n_resumes == 1
        assert stats.n_resume_expired == 0
        assert stats.n_parked_now == 0
        session = hub.session_stats[1]
        # Replayed chunks 0-8 were already delivered (duplicates); chunk 9
        # was swallowed by the cut and reclaimed from the missing set.
        assert session.n_duplicate_chunks == 9
        assert session.n_reordered_chunks == 1
        assert session.n_lost_chunks == 0
        # Every frame of the healed stream reconstructs byte-identically to
        # the clean run: samples, and the reconstructed images themselves.
        assert send_stats.n_frames == self.N_FRAMES
        assert healed.n_frames == clean.n_frames == self.N_FRAMES
        assert all(report.clean for report in session.frame_loss)
        for healed_frame, clean_frame in zip(healed.frames, clean.frames):
            np.testing.assert_array_equal(
                healed_frame.capture.samples, clean_frame.capture.samples
            )
            assert healed_frame.reconstruction is not None
            assert (
                healed_frame.reconstruction.image.tobytes()
                == clean_frame.reconstruction.image.tobytes()
            )


# =========================================================================
# End to end: burst loss — NACK repair strictly beats the PR-8 baseline
# =========================================================================


@pytest.mark.chaos
class TestBurstLossImprovement:
    GE_SEED = 13
    N_FRAMES = 12

    async def _burst_run(self, *, nack):
        node_end, hub_end = loopback_duplex_pair(max_buffered=4)
        channel = GilbertElliottTransport(node_end, seed=self.GE_SEED)
        hub = ReceiverHub(
            resilient=True,
            reconstruct=False,
            feedback=True,
            # The PR-8 baseline is the same resilient closed loop with the
            # selective-repeat machinery off (no frame_deadline, no buffer).
            frame_deadline=30.0 if nack else None,
        )
        node = CameraNode(
            channel,
            gop_size=4,
            segments_per_frame=4,
            parity=True,
            feedback=True,
            retransmit_capacity=128 if nack else 0,
        )
        send_task = asyncio.create_task(
            node.stream_video(_sequencer(), _scenes(self.N_FRAMES))
        )
        results = await hub.attach(hub_end, expected_streams=1)
        await send_task
        await hub.close()
        return hub, node, channel, results[0]

    def test_nack_repair_strictly_improves_delivered_samples(self):
        async def scenario():
            baseline = await self._burst_run(nack=False)
            healed = await self._burst_run(nack=True)
            return baseline, healed

        baseline, healed = run(scenario())
        hub_a, node_a, channel_a, _ = baseline
        hub_b, node_b, channel_b, _ = healed

        def delivered(hub):
            session = hub.session_stats[1]
            return sum(report.n_samples_received for report in session.frame_loss)

        # The channel actually burst-dropped chunks in both runs, from the
        # identical seeded state walk.
        assert channel_a.dropped
        assert channel_b.dropped
        assert channel_a.n_bursts >= 1
        # The repair machinery actually ran...
        assert hub_b.stats().n_nacks_sent > 0
        assert node_b.n_retransmits > 0
        # ...and strictly improved delivery on the same seeded channel.
        assert delivered(healed[0]) > delivered(baseline[0])
        # The baseline never NACKs (no deadline): PR-8 semantics preserved.
        assert hub_a.stats().n_nacks_sent == 0
        assert node_a.n_retransmits == 0


# =========================================================================
# Acceptance: zero-fault byte-identity with every recovery knob armed
# =========================================================================


class TestZeroFaultByteIdentity:
    """Retransmission + resume + deadlines enabled, no faults injected →
    a streamed 64×64 video is byte-identical to today's pipeline."""

    N_FRAMES = 3
    CONFIG64 = SensorConfig(rows=64, cols=64)

    def _sequencer64(self):
        return VideoSequencer(
            CompressiveImager(self.CONFIG64, seed=2018),
            samples_per_frame=512,
            seed=2018,
        )

    def _scenes64(self):
        return [
            make_scene("blobs", (64, 64), seed=100 + index)
            for index in range(self.N_FRAMES)
        ]

    async def _baseline_run(self):
        transport = LoopbackTransport(max_buffered=64)
        hub = ReceiverHub(resilient=True, max_iterations=5)
        node = CameraNode(
            transport, gop_size=2, segments_per_frame=4, parity=True
        )
        send_task = asyncio.create_task(
            node.stream_video(self._sequencer64(), self._scenes64())
        )
        results = await hub.attach(transport, expected_streams=1)
        await send_task
        await hub.close()
        return results[0]

    async def _guarded_run(self):
        node_end, hub_end = loopback_duplex_pair(max_buffered=64)
        hub = ReceiverHub(
            resilient=True,
            max_iterations=5,
            feedback=True,
            frame_deadline=30.0,
            nack_grace=30.0,
            resume_grace=30.0,
            idle_timeout=300.0,
        )

        async def connect():
            raise AssertionError("no fault was injected: reconnect must not fire")

        node = CameraNode(
            node_end,
            gop_size=2,
            segments_per_frame=4,
            parity=True,
            feedback=True,
            retransmit_capacity=64,
            reconnect=ReconnectSupervisor(connect),
        )
        send_task = asyncio.create_task(
            node.stream_video(self._sequencer64(), self._scenes64())
        )
        results = await hub.attach(hub_end, expected_streams=1)
        await send_task
        await hub.close()
        return hub, node, results[0]

    def test_armed_recovery_path_is_byte_identical_without_faults(self):
        async def scenario():
            baseline = await self._baseline_run()
            return baseline, await self._guarded_run()

        baseline, (hub, node, guarded) = run(scenario())
        stats = hub.stats()
        # Every recovery counter stayed at zero: the machinery never fired.
        assert stats.n_nacks_sent == 0
        assert stats.n_deadline_salvages == 0
        assert stats.n_resumes == 0
        assert stats.n_parked == 0
        assert node.n_retransmits == 0
        assert node.n_resumes == 0
        assert guarded.n_frames == baseline.n_frames == self.N_FRAMES
        for guarded_frame, baseline_frame in zip(
            guarded.frames, baseline.frames
        ):
            np.testing.assert_array_equal(
                guarded_frame.capture.samples, baseline_frame.capture.samples
            )
            assert guarded_frame.reconstruction is not None
            assert (
                guarded_frame.reconstruction.image.tobytes()
                == baseline_frame.reconstruction.image.tobytes()
            )
