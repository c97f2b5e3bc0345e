"""Stateful fuzz of the synchronous session core: no event loop anywhere.

A :class:`~hypothesis.stateful.RuleBasedStateMachine` drives
:meth:`StreamSession.feed`, :meth:`~StreamSession.tick` and
:meth:`~StreamSession.seal` over pre-encoded single-sensor and mosaic streams
in three framings: the default one-segment groups, two segments with parity,
and the ``FRAME_DATA`` tiles sessions still decode.  Its rules deliver, drop,
duplicate, hold back (to reorder) or bit-flip chunks, advance a
``ManualClock`` (and drain the feedback queue, as the hub does) or seal the
stream.  After every step:

* a strict session has raised nothing but ``StreamProtocolError`` subclasses
  (after a raise the machine starts a fresh session on the same stream);
* a resilient session has raised nothing at all;
* the lost-chunk level equals the proven-missing set;
* no unsettled or deferred frame lies behind the settle frontier;
* landed frames and queued solves are in strictly increasing frame order;
* every landed frame's surviving samples and Φ (seed, sensor, rule, steps)
  equal the clean recording's (on the checksummed framings; see
  :meth:`SessionMachine.landed_frames_match_the_clean_recording`).

A hang is a step that never returns.  CI's chaos job reruns this module
under the fixed-budget ``fuzz`` profile.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.stream.protocol import Chunk, StreamProtocolError
from repro.stream.session import StreamSession
from repro.telemetry import ManualClock, Telemetry
from tests.stream.recorded import (
    as_frame_data_stream,
    landed_frames,
    recorded_chunks,
    wrong_frames,
)

STREAMS = {}
for kind in ("video", "mosaic"):
    STREAMS[kind, "segment"] = recorded_chunks(kind, 3)
    STREAMS[kind, "segments-parity"] = recorded_chunks(
        kind, 3, segments_per_frame=2, parity=True
    )
    STREAMS[kind, "frame-data"] = as_frame_data_stream(STREAMS[kind, "segment"])


def _clean_landing(chunks):
    session = StreamSession(1, None)
    for chunk in chunks:
        session.feed(chunk)
    return landed_frames(session)


CLEAN = {stream: _clean_landing(chunks) for stream, chunks in STREAMS.items()}


class SessionMachine(RuleBasedStateMachine):
    """One session fed a mangled copy of one recorded stream."""

    @initialize(
        stream=st.sampled_from(sorted(STREAMS)),
        resilient=st.booleans(),
        frame_deadline=st.sampled_from([None, 0.5]),
        emit_feedback=st.booleans(),
    )
    def start(self, stream, resilient, frame_deadline, emit_feedback):
        self.stream = stream
        self.chunks = STREAMS[stream]
        self.options = dict(
            resilient=resilient,
            frame_deadline=frame_deadline,
            emit_feedback=emit_feedback,
            max_sequence_gap=16,
        )
        self._open()

    def _open(self):
        self.clock = ManualClock()
        self.session = StreamSession(
            1,
            None,  # the core never submits; only the async drain does
            telemetry=Telemetry(enabled=False, clock=self.clock),
            **self.options,
        )
        self.cursor = 0
        self.delivered = []
        self.held = []
        self.flipped = False

    def _step(self, call, *args):
        try:
            call(*args)
        except StreamProtocolError:
            if self.session.resilient:
                raise
            self._open()  # a strict session dies on its first anomaly

    def _next(self):
        chunk = self.chunks[self.cursor]
        self.cursor += 1
        return chunk

    def _feed(self, chunk):
        self.delivered.append(chunk)
        self._step(self.session.feed, chunk)

    # ---------------------------------------------------------------- rules
    @precondition(lambda self: self.cursor < len(self.chunks))
    @rule(count=st.integers(1, 6))
    def deliver(self, count):
        for _ in range(min(count, len(self.chunks) - self.cursor)):
            self._feed(self._next())

    @precondition(lambda self: self.cursor < len(self.chunks))
    @rule()
    def drop(self):
        self._next()

    @precondition(lambda self: self.cursor < len(self.chunks))
    @rule()
    def hold(self):
        self.held.append(self._next())

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def release(self, data):
        index = data.draw(st.integers(0, len(self.held) - 1))
        self._feed(self.held.pop(index))

    @precondition(lambda self: self.delivered)
    @rule(data=st.data())
    def duplicate(self, data):
        self._feed(data.draw(st.sampled_from(self.delivered)))

    @precondition(lambda self: self.cursor < len(self.chunks))
    @rule(data=st.data())
    def bit_flip(self, data):
        chunk = self._next()
        # Bits 0-31 flip the sequence number; the rest flip the payload.
        bit = data.draw(st.integers(0, 32 + 8 * len(chunk.payload) - 1))
        sequence, payload = chunk.sequence, bytearray(chunk.payload)
        if bit < 32:
            sequence ^= 1 << bit
        else:
            payload[(bit - 32) // 8] ^= 1 << (bit % 8)
        self.flipped = True
        self._feed(Chunk(chunk.chunk_type, chunk.stream_id, sequence, bytes(payload)))

    @rule(seconds=st.sampled_from([0.1, 0.3, 1.0]))
    def advance_clock(self, seconds):
        self.clock.advance(seconds)
        self._step(self.session.tick, self.clock.now())
        self.session.take_outgoing_control()

    @precondition(lambda self: not self.session.ended)
    @rule()
    def seal(self):
        self._step(self.session.seal)

    # ----------------------------------------------------------- invariants
    @invariant()
    def lost_chunks_are_the_missing_set(self):
        stats = self.session.stats
        assert stats.n_lost_chunks == len(self.session.missing_sequences)

    @invariant()
    def no_pending_frame_is_left_behind(self):
        oldest = self.session._next_frame_index
        assert all(index >= oldest for index in self.session._frames)
        assert all(index >= oldest for index in self.session._deferred)

    @invariant()
    def frames_and_solves_in_frame_order(self):
        landed = [frame.frame_index for frame in self.session._result.frames]
        queued = [frame.frame_index for frame, _, _ in self.session._queued]
        assert landed == sorted(set(landed))
        assert queued == landed  # nothing drains: every landed frame is queued

    @invariant()
    def landed_frames_match_the_clean_recording(self):
        """No corruption reaches a solve as plausible wrong pixels.

        ``FRAME_DATA`` carries no checksum, so only the segment framings are
        held to it.  A strict session is held to it always.  A resilient one
        only until a bit flip lands: a segment's CRC does not cover its fixed
        fields, and a flipped frame index, grid position or start sample can
        move a valid segment into another frame, tile or slice.
        """
        if self.stream[1] == "frame-data" or (self.session.resilient and self.flipped):
            return
        assert wrong_frames(landed_frames(self.session), CLEAN[self.stream]) == []


SessionMachine.TestCase.settings = settings(
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestSessionMachine = SessionMachine.TestCase
