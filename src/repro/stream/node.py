"""The autonomous camera node: capture in workers, chunks on the wire.

This is the paper's motivating system turned into a service: a node that
captures compressively at the focal plane and "delivers images over a network
under a restricted data rate", shipping compressed samples plus only the
128-bit CA seed.  :class:`CameraNode` drives any of the repo's capture
engines — a single :class:`~repro.sensor.imager.CompressiveImager`, a
:class:`~repro.sensor.video.VideoSequencer`, or a whole
:class:`~repro.sensor.shard.TiledSensorArray` mosaic — through a worker
executor (capture is numpy/BLAS work; the event loop only moves bytes),
encodes each result as v2 wire chunks and sends them over any transport from
:mod:`repro.stream.transport`.

Two flow-control mechanisms compose:

* **Backpressure** — every ``transport.send`` is awaited, so a bounded
  channel (full loopback queue, full TCP socket buffer) suspends the node's
  capture loop.  Buffering is bounded by the transport, never by the node.
* **Bit-rate governor** — :class:`BitrateGovernor` fits each frame's sample
  count to a bits-per-frame channel budget *before* capturing (fewer samples
  = fewer bits = graceful quality degradation), exactly the sweep
  ``examples/camera_node_streaming.py`` demonstrates.  Seed-once GOPs lower
  the per-frame overhead the governor has to charge.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
from concurrent.futures import Executor
from dataclasses import dataclass, field
from collections.abc import Awaitable, Callable, Iterable, Iterator
from typing import Any

import numpy as np

from repro.io.bitstream import pack_samples
from repro.io.framing import encode_frame, frame_overhead_bits
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressedFrame, CompressiveImager
from repro.sensor.shard import TiledSensorArray, tile_grid
from repro.sensor.video import VideoSequencer
from repro.stream.protocol import (
    CONTROL_CHUNK_TYPES,
    Chunk,
    ChunkDecoder,
    ControlAck,
    FrameComplete,
    FrameData,
    FrameSegment,
    NackRequest,
    Payload,
    RateAdvice,
    SessionResume,
    StreamEnd,
    StreamHeader,
    StreamProtocolError,
    build_frame_parity,
    decode_payload,
    encode_chunk,
    payload_chunk,
)
from repro.stream.transport import Transport
from repro.telemetry import (
    MONOTONIC_CLOCK,
    SPAN_CAPTURE,
    SPAN_ENCODE,
    SPAN_TRANSPORT,
    Clock,
    Telemetry,
    active,
)
from repro.utils.rng import derive_seed, new_rng
from repro.utils.validation import check_positive


class ChannelBudgetError(ValueError):
    """The per-frame bit budget cannot fit even one compressed sample."""


#: Wire cost of wrapping one frame as a chunk: the 12-byte chunk header plus
#: the 9-byte frame-data prefix (frame index, grid position, keyframe flag).
CHUNK_OVERHEAD_BITS = (12 + 9) * 8


@dataclass
class BitrateGovernor:
    """Fits each frame's sample count to a bits-per-frame channel budget.

    Parameters
    ----------
    bits_per_frame:
        Channel budget for one frame, headers and seed included.  ``None``
        disables governing (the configured sample count is used as-is).
    min_samples:
        Floor below which the governor refuses to degrade and raises
        :class:`ChannelBudgetError` instead — a frame with almost no samples
        reconstructs to noise, and a node should fail loudly rather than
        stream garbage.
    closed_loop:
        Steer the sample count from receiver feedback (AIMD, below).  Off by
        default — the open-loop governor is the bit-reproducible path, and
        with zero loss the closed loop provably never deviates from it: the
        target starts *at* the open-loop count, increases are capped there,
        and only a lossy frame can pull it down.
    aimd_increase:
        Samples added back per clean frame (additive increase).
    aimd_decrease:
        Multiplicative factor applied to the target when the receiver
        reports a lossy frame — the classic congestion-control asymmetry:
        back off fast, probe back slowly.

    Notes
    -----
    The feedback callbacks (:meth:`on_feedback`, :meth:`on_rate_advice`) run
    on the node's feedback task while ``samples_for_frame`` runs inside the
    capture worker; both only read/assign small ints, so the loop needs no
    lock.
    """

    bits_per_frame: int | None = None
    min_samples: int = 1
    closed_loop: bool = False
    aimd_increase: int = 32
    aimd_decrease: float = 0.5
    #: Receiver reports processed (both kinds) — observability counters.
    n_feedback: int = field(default=0, init=False)
    n_loss_events: int = field(default=0, init=False)
    #: Target after each adjustment, the trace a rate plot reads.
    rate_trace: list[int] = field(default_factory=list, init=False)
    _target: int | None = field(default=None, init=False, repr=False)
    _ceiling: int | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.bits_per_frame is not None:
            check_positive("bits_per_frame", self.bits_per_frame)
        check_positive("min_samples", self.min_samples)
        check_positive("aimd_increase", self.aimd_increase)
        if not 0.0 < self.aimd_decrease < 1.0:
            raise ValueError(
                f"aimd_decrease must be in (0, 1), got {self.aimd_decrease}"
            )

    # ----------------------------------------------------- feedback (AIMD)
    def on_feedback(self, ack: ControlAck) -> None:
        """Absorb a receiver delivery report (additive-increase half).

        A clean frame earns ``aimd_increase`` samples back, never beyond the
        open-loop ceiling; a lossy frame multiplies the target by
        ``aimd_decrease``, never below ``min_samples``.
        """
        self.n_feedback += 1
        if not self.closed_loop or self._target is None:
            return
        if ack.n_samples_received < ack.n_samples_expected:
            self.n_loss_events += 1
            self._target = max(
                self.min_samples, int(self._target * self.aimd_decrease)
            )
        else:
            ceiling = self._ceiling if self._ceiling is not None else self._target
            self._target = min(ceiling, self._target + self.aimd_increase)
        self.rate_trace.append(self._target)

    def on_rate_advice(self, advice: RateAdvice) -> None:
        """Clamp the target to the receiver's measured channel capacity.

        Advice only ever *lowers* the target (the additive increase is how
        it recovers), so a stale advice chunk cannot burst the rate.
        """
        self.n_feedback += 1
        if not self.closed_loop or self._target is None:
            return
        advised = max(self.min_samples, int(advice.advised_samples))
        if advised < self._target:
            self._target = advised
            self.rate_trace.append(self._target)

    def samples_for_frame(
        self,
        config: SensorConfig,
        *,
        max_samples: int | None = None,
        include_seed: bool = True,
    ) -> int:
        """Samples that fit the budget after the frame overhead is charged.

        ``include_seed=False`` models a non-keyframe of a GOP, whose seed
        bits the channel never pays — the governor then fits more samples
        into the same budget.
        """
        if max_samples is None:
            max_samples = config.samples_per_frame
        if self.bits_per_frame is None:
            return self._governed(int(max_samples))
        overhead = CHUNK_OVERHEAD_BITS + frame_overhead_bits(
            config, version=2, include_seed=include_seed
        )
        usable = self.bits_per_frame - overhead
        n_samples = min(int(max_samples), usable // config.compressed_sample_bits)
        if n_samples < self.min_samples:
            raise ChannelBudgetError(
                f"budget of {self.bits_per_frame} bits leaves room for "
                f"{max(0, n_samples)} samples (< min_samples={self.min_samples})"
            )
        return self._governed(int(n_samples))

    def _governed(self, base: int) -> int:
        """Apply the closed-loop target on top of the open-loop count."""
        if not self.closed_loop:
            return base
        if self._target is None:
            self._target = base
        # The open-loop count is the ceiling the additive increase probes
        # back towards — feedback can only ever *lower* the rate.
        self._ceiling = base
        return max(self.min_samples, min(base, self._target))

    def ratio_for_frame(
        self,
        config: SensorConfig,
        n_pixels: int,
        *,
        n_tiles: int = 1,
        include_seed: bool = True,
    ) -> float | None:
        """Per-tile compression-ratio override fitting a tiled frame's budget.

        A mosaic frame pays the per-frame overhead once per tile; the
        remaining bits spread over ``n_pixels`` scene pixels give the ratio
        handed to :meth:`TiledSensorArray.capture
        <repro.sensor.shard.TiledSensorArray.capture>`.  Returns ``None``
        when ungoverned.
        """
        if self.bits_per_frame is None:
            return None
        overhead = n_tiles * (
            CHUNK_OVERHEAD_BITS
            + frame_overhead_bits(config, version=2, include_seed=include_seed)
        )
        usable = self.bits_per_frame - overhead
        n_samples = usable // config.compressed_sample_bits
        if n_samples < self.min_samples * n_tiles:
            raise ChannelBudgetError(
                f"budget of {self.bits_per_frame} bits leaves room for "
                f"{max(0, n_samples)} samples over {n_tiles} tiles"
            )
        # A generous budget never *upgrades* the capture beyond its
        # configured ratio — the budget is a ceiling, not a target.
        return min(0.999, config.compression_ratio, float(n_samples) / float(n_pixels))


@dataclass
class StreamStats:
    """What one streaming run put on the wire."""

    n_frames: int = 0
    n_chunks: int = 0
    n_bytes: int = 0
    samples_per_frame: list[int] = field(default_factory=list)
    #: Wire bytes of each frame's data chunks (excluding the one-time
    #: stream-start/stream-end bookends) — what a per-frame budget governs.
    bytes_per_frame: list[int] = field(default_factory=list)


class ReconnectExhaustedError(ConnectionError):
    """Every reconnect attempt failed; the stream cannot be resumed."""


@dataclass
class _RetransmitEntry:
    """One sent chunk held for selective repeat: the exact wire bytes."""

    sequence: int
    frame_index: int | None
    encoded: bytes
    sent_at: float


class RetransmitBuffer:
    """Bounded window of recently sent chunks, keyed by sequence number.

    The node answers a ``CONTROL_NACK`` by re-sending the buffered bytes
    *verbatim* — original sequence numbers and all — so the session's
    reorder/duplicate handling absorbs them without any special casing.
    Entries leave the window three ways:

    * **ACK** — a ``CONTROL_ACK`` for frame *f* means every chunk of frames
      ``<= f`` settled at the receiver; :meth:`evict_acked` drops them.
    * **age** — entries older than ``max_age`` (by the injected clock's
      seconds) are useless for repair and are dropped lazily.
    * **capacity** — the window never holds more than ``capacity`` entries;
      inserting past that evicts the oldest (sequences only grow, so oldest
      is first-inserted).
    """

    def __init__(self, capacity: int, *, max_age: float | None = None) -> None:
        check_positive("capacity", capacity)
        if max_age is not None:
            check_positive("max_age", max_age)
        self.capacity = int(capacity)
        self.max_age = max_age
        self._entries: dict[int, _RetransmitEntry] = {}
        self.n_evicted_capacity = 0
        self.n_evicted_acked = 0
        self.n_evicted_aged = 0

    def __len__(self) -> int:
        return len(self._entries)

    def add(
        self,
        sequence: int,
        encoded: bytes,
        *,
        frame_index: int | None,
        now: float,
    ) -> None:
        """Record a chunk as it goes on the wire (call *before* the send)."""
        self.evict_aged(now)
        self._entries[sequence] = _RetransmitEntry(
            sequence=sequence, frame_index=frame_index, encoded=encoded, sent_at=now
        )
        while len(self._entries) > self.capacity:
            self._entries.pop(next(iter(self._entries)))
            self.n_evicted_capacity += 1

    def get(self, sequence: int, *, now: float) -> _RetransmitEntry | None:
        """Look up a sequence for repair; an over-age entry counts as gone."""
        entry = self._entries.get(sequence)
        if entry is None:
            return None
        if self.max_age is not None and now - entry.sent_at > self.max_age:
            self._entries.pop(sequence)
            self.n_evicted_aged += 1
            return None
        return entry

    def evict_acked(self, frame_index: int) -> int:
        """Drop every buffered chunk belonging to frames ``<= frame_index``."""
        stale = [
            sequence
            for sequence, entry in self._entries.items()
            if entry.frame_index is not None and entry.frame_index <= frame_index
        ]
        for sequence in stale:
            self._entries.pop(sequence)
        self.n_evicted_acked += len(stale)
        return len(stale)

    def evict_aged(self, now: float) -> int:
        """Drop entries older than ``max_age`` (no-op when age-unbounded)."""
        if self.max_age is None:
            return 0
        stale = [
            sequence
            for sequence, entry in self._entries.items()
            if now - entry.sent_at > self.max_age
        ]
        for sequence in stale:
            self._entries.pop(sequence)
        self.n_evicted_aged += len(stale)
        return len(stale)

    def pending(self) -> list[_RetransmitEntry]:
        """Unacked entries in send (= sequence) order, for a resume replay."""
        return sorted(self._entries.values(), key=lambda entry: entry.sequence)

    def clear(self) -> None:
        """Forget everything (a new stream restarts sequences from 0)."""
        self._entries.clear()


class ReconnectSupervisor:
    """Exponential-backoff reconnect policy with seeded jitter.

    Wraps a ``connect`` coroutine factory (anything returning a fresh
    :class:`~repro.stream.transport.Transport`) and retries it through a
    capped exponential schedule: attempt *k* (0-based) waits
    ``min(max_delay, base_delay * 2**(k-1)) * (1 + jitter * u)`` before
    running, where ``u`` is drawn from the supervisor's own seeded RNG —
    the first attempt fires immediately.  Jitter decorrelates fleet-wide
    reconnect stampedes yet stays reproducible: same seed, same schedule.

    Every timer flows through the injectable ``clock`` / ``sleep`` seam
    (defaults: the process monotonic clock and :func:`asyncio.sleep`), so
    tests pin exact firing times under
    :class:`~repro.telemetry.ManualClock` with no wall-clock waits.
    ``retryable`` defaults to ``(OSError,)``, which covers refused/reset
    connections *and* the hub's typed
    :class:`~repro.stream.hub.HubPortInUseError`.
    """

    def __init__(
        self,
        connect: Callable[[], Awaitable[Transport]],
        *,
        max_attempts: int = 8,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        jitter: float = 0.25,
        seed: int = 0,
        clock: Clock | None = None,
        sleep: Callable[[float], Awaitable[None]] | None = None,
        retryable: tuple[type[BaseException], ...] = (OSError,),
    ) -> None:
        check_positive("max_attempts", max_attempts)
        check_positive("base_delay", base_delay)
        check_positive("max_delay", max_delay)
        if jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self._connect = connect
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self.jitter = float(jitter)
        self.retryable = retryable
        self.clock: Clock = clock if clock is not None else MONOTONIC_CLOCK
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self._rng = new_rng(derive_seed(seed, "reconnect-supervisor"))
        self.n_attempts = 0
        self.n_reconnects = 0
        #: Backoff delay before each non-first attempt, in schedule order.
        self.delays: list[float] = []
        #: Clock reading at the start of every connect attempt.
        self.attempt_times: list[float] = []

    def backoff_delay(self, attempt: int) -> float:
        """Jittered delay before 0-based ``attempt`` (attempt 0 is free)."""
        if attempt <= 0:
            return 0.0
        base = min(self.max_delay, self.base_delay * 2.0 ** (attempt - 1))
        return base * (1.0 + self.jitter * float(self._rng.random()))

    async def acquire(self) -> Transport:
        """Connect, retrying through the backoff schedule until exhausted."""
        last_error: BaseException | None = None
        for attempt in range(self.max_attempts):
            delay = self.backoff_delay(attempt)
            if delay > 0.0:
                self.delays.append(delay)
                await self._sleep(delay)
            self.n_attempts += 1
            self.attempt_times.append(self.clock.now())
            try:
                transport = await self._connect()
            except self.retryable as error:
                last_error = error
                continue
            self.n_reconnects += 1
            return transport
        raise ReconnectExhaustedError(
            f"reconnect failed after {self.max_attempts} attempts"
        ) from last_error


class CameraNode:
    """An asyncio camera node streaming captures over a transport.

    Parameters
    ----------
    transport:
        Any transport from :mod:`repro.stream.transport` (loopback, TCP).
    stream_id:
        Identifier stamped into every chunk header.
    governor:
        Optional :class:`BitrateGovernor`; when omitted the node streams at
        the capture engine's configured sample budget.
    gop_size:
        Frames per group-of-pictures for the video modes: the CA seed is
        carried by each GOP's first frame only, later frames are seedless
        and the receiver re-derives their seeds from the one-pattern frame
        overlap.  ``1`` makes every frame a keyframe.
    executor:
        ``concurrent.futures`` executor for the capture work; ``None`` uses
        the event loop's default thread pool.
    segments_per_frame:
        Split each tile's sample vector across this many
        :data:`~repro.stream.protocol.ChunkType.FRAME_SEGMENT` chunks (each
        carrying the frame prefix, so any survivor decodes), turning a lost
        chunk into a lost *row subset* of Φ instead of a lost frame.  ``1``
        (default) keeps the legacy one-chunk-per-tile framing.  Every stream
        kind may be segmented: each tile of a mosaic becomes its own segment
        group.
    parity:
        Append one XOR-parity chunk per segment group, recovering any single
        lost segment of a tile at the receiver (burst-loss insurance, off
        by default; implies segment framing even with one segment).
    feedback:
        Read receiver→node control chunks (ACK / rate advice / NACK) from
        the transport's return path — ACKs and advice feed the governor,
        NACKs trigger selective repeat from the retransmission buffer.
        Requires a duplex channel
        (:func:`~repro.stream.transport.loopback_duplex_pair` or TCP) and a
        hub running with ``feedback=True``.
    retransmit_capacity:
        Keep up to this many recently sent chunks in a
        :class:`RetransmitBuffer` for NACK-driven selective repeat and
        resume replay.  ``0`` (default) disables retransmission entirely —
        the legacy fire-and-forget path.
    retransmit_max_age:
        Age bound (seconds on the node's clock) after which buffered chunks
        stop being eligible for repair; ``None`` keeps them until ACK or
        capacity eviction.
    reconnect:
        Optional :class:`ReconnectSupervisor`.  When a send fails with an
        ``OSError`` the node reconnects through the supervisor's backoff
        schedule, re-attaches its stream id with a ``SESSION_RESUME`` chunk
        and replays the unacked retransmission window — so a mid-GOP
        disconnect heals without breaking the seed chain.  Requires
        ``retransmit_capacity > 0``.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`.  When present (and
        enabled) the node records each frame's ``capture`` and ``encode``
        spans, opens the ``transport`` span right before the first send (the
        hub side closes it — the two halves only join when node and hub
        share one facade, i.e. over loopback), and registers a collector
        exporting the feedback/governor counters.  ``None`` (the default)
        records nothing.
    """

    def __init__(
        self,
        transport: Transport,
        *,
        stream_id: int = 1,
        governor: BitrateGovernor | None = None,
        gop_size: int = 4,
        executor: Executor | None = None,
        segments_per_frame: int = 1,
        parity: bool = False,
        feedback: bool = False,
        retransmit_capacity: int = 0,
        retransmit_max_age: float | None = None,
        reconnect: ReconnectSupervisor | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        check_positive("gop_size", gop_size)
        check_positive("segments_per_frame", segments_per_frame)
        if segments_per_frame > 255:
            raise ValueError(
                f"segments_per_frame must fit the wire's u8, got {segments_per_frame}"
            )
        if retransmit_capacity < 0:
            raise ValueError(
                f"retransmit_capacity must be >= 0, got {retransmit_capacity}"
            )
        if reconnect is not None and retransmit_capacity == 0:
            raise ValueError(
                "a reconnect supervisor needs a retransmission buffer to "
                "replay on resume — set retransmit_capacity > 0"
            )
        self.transport = transport
        self.stream_id = int(stream_id)
        self.governor = governor or BitrateGovernor()
        self.gop_size = int(gop_size)
        self.executor = executor
        self.segments_per_frame = int(segments_per_frame)
        self.parity = bool(parity)
        self.feedback = bool(feedback)
        self.reconnect = reconnect
        self.n_feedback_chunks = 0
        self.n_feedback_errors = 0
        self.n_retransmits = 0
        self.n_nacks_answered = 0
        self.n_nack_misses = 0
        self.n_resumes = 0
        self.n_resume_retransmits = 0
        self.telemetry = telemetry
        self._clock: Clock = (
            telemetry.clock if telemetry is not None else MONOTONIC_CLOCK
        )
        self._retransmit: RetransmitBuffer | None = (
            RetransmitBuffer(retransmit_capacity, max_age=retransmit_max_age)
            if retransmit_capacity
            else None
        )
        self._sequence = 0
        self._last_frame_index = 0
        self._resume_epoch = 0
        self._feedback_task: asyncio.Task[None] | None = None
        if telemetry is not None:
            telemetry.registry.register_collector(self._collect_metrics)

    def _collect_metrics(self) -> None:
        """Export the node's counters at snapshot time (pull model).

        Registered once at construction; runs only inside
        ``registry.collect()``, so the hot paths that move these counters
        never see the registry at all.
        """
        assert self.telemetry is not None
        registry = self.telemetry.registry
        labels = {"stream": self.stream_id}
        registry.counter(
            "repro_node_feedback_chunks_total",
            labels=labels,
            help="Control chunks the node drained into its governor.",
        ).set_total(self.n_feedback_chunks)
        registry.counter(
            "repro_node_feedback_errors_total",
            labels=labels,
            help="Malformed or misrouted chunks seen on the feedback path.",
        ).set_total(self.n_feedback_errors)
        registry.counter(
            "repro_node_governor_feedback_total",
            labels=labels,
            help="Receiver reports (ACK + rate advice) the governor absorbed.",
        ).set_total(self.governor.n_feedback)
        registry.counter(
            "repro_node_governor_loss_events_total",
            labels=labels,
            help="Lossy-frame reports that triggered an AIMD back-off.",
        ).set_total(self.governor.n_loss_events)
        registry.counter(
            "repro_node_retransmits_total",
            labels=labels,
            help="Chunks re-sent verbatim in answer to receiver NACKs.",
        ).set_total(self.n_retransmits)
        registry.counter(
            "repro_node_nacks_answered_total",
            labels=labels,
            help="NACK requests for which at least one chunk was repaired.",
        ).set_total(self.n_nacks_answered)
        registry.counter(
            "repro_node_nack_misses_total",
            labels=labels,
            help="NACKed sequences already evicted from the retransmit buffer.",
        ).set_total(self.n_nack_misses)
        registry.counter(
            "repro_node_resumes_total",
            labels=labels,
            help="Successful reconnect-with-resume cycles.",
        ).set_total(self.n_resumes)
        registry.counter(
            "repro_node_reconnect_attempts_total",
            labels=labels,
            help="Connect attempts made by the reconnect supervisor.",
        ).set_total(0 if self.reconnect is None else self.reconnect.n_attempts)

    # -------------------------------------------------------------- helpers
    @property
    def _segmented(self) -> bool:
        """True when frames ride the segment/parity framing."""
        return self.segments_per_frame > 1 or self.parity

    async def _run(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run blocking capture work on the worker executor."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self.executor, fn, *args)

    async def _feedback_loop(self) -> None:
        """Drain receiver→node control chunks into the governor.

        A malformed or non-control chunk on the feedback path is counted and
        skipped (with a fresh decoder, since a framing error poisons the
        buffer) — feedback is advisory, so it must never kill the stream.
        """
        decoder = ChunkDecoder(resync=True)
        while True:
            data = await self.transport.recv()
            if data is None:
                return
            try:
                chunks = list(decoder.feed(data))
            except StreamProtocolError:
                self.n_feedback_errors += 1
                decoder = ChunkDecoder(resync=True)
                continue
            for chunk in chunks:
                try:
                    if chunk.chunk_type not in CONTROL_CHUNK_TYPES:
                        raise StreamProtocolError(
                            f"non-control chunk type {chunk.chunk_type} on "
                            "the feedback path"
                        )
                    control = decode_payload(chunk.chunk_type, chunk.payload)
                    if isinstance(control, ControlAck):
                        self.governor.on_feedback(control)
                        if self._retransmit is not None:
                            # A settled frame never gets NACKed again, so
                            # everything up to it leaves the repair window.
                            self._retransmit.evict_acked(control.frame_index)
                    elif isinstance(control, RateAdvice):
                        self.governor.on_rate_advice(control)
                    elif isinstance(control, NackRequest):
                        await self._answer_nack(control)
                except StreamProtocolError:
                    self.n_feedback_errors += 1
                else:
                    self.n_feedback_chunks += 1

    async def _answer_nack(self, request: NackRequest) -> None:
        """Selective repeat: re-send whatever the buffer still holds.

        Repairs go out verbatim under their *original* sequence numbers —
        the session reclaims them from its missing set exactly like
        late-arriving reordered chunks.  Sequences already evicted (ACKed,
        aged out, capacity-pushed) are counted as misses and skipped; the
        receiver's deadline salvage covers whatever repair cannot.  A send
        failure here is swallowed: the forward path will hit the same broken
        transport and drive the resume flow itself.
        """
        if self._retransmit is None:
            self.n_nack_misses += len(request.sequences)
            return
        answered = 0
        for sequence in request.sequences:
            entry = self._retransmit.get(sequence, now=self._clock.now())
            if entry is None:
                self.n_nack_misses += 1
                continue
            try:
                await self.transport.send(entry.encoded)
            except OSError:
                return
            self.n_retransmits += 1
            answered += 1
        if answered:
            self.n_nacks_answered += 1

    async def _stop_feedback(self) -> None:
        task, self._feedback_task = self._feedback_task, None
        if task is not None:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task

    async def _send_chunk(
        self,
        payload: Payload,
        stats: StreamStats,
        *,
        frame_index: int | None = None,
    ) -> Chunk:
        """Frame one payload as a chunk and push it through the transport (may stall).

        With a retransmission buffer the encoded bytes are recorded *before*
        the send, so a chunk lost to a mid-send disconnect is already in the
        window the resume flow replays.
        """
        chunk = payload_chunk(payload, self.stream_id, self._sequence)
        self._sequence += 1
        data = encode_chunk(chunk)
        if frame_index is not None:
            self._last_frame_index = frame_index
        if self._retransmit is not None:
            self._retransmit.add(
                chunk.sequence, data, frame_index=frame_index, now=self._clock.now()
            )
        try:
            await self.transport.send(data)
        except OSError:
            if self.reconnect is None:
                raise
            await self._resume_stream()
        stats.n_chunks += 1
        stats.n_bytes += len(data)
        return chunk

    async def _resume_stream(self) -> None:
        """Reconnect, re-attach the stream id, replay the unacked window.

        The ``SESSION_RESUME`` chunk rides the normal forward sequence (the
        hub's gap tracking then marks anything lost in the cut as missing),
        after which the entire retransmission buffer goes out verbatim,
        oldest first — duplicates are skipped receiver-side and the missing
        chunks reclaimed as reordered arrivals, so a window-covered cut
        reconstructs every frame with the GOP seed chain intact.
        """
        assert self.reconnect is not None and self._retransmit is not None
        await self._stop_feedback()
        with contextlib.suppress(Exception):
            await self.transport.close()
        self.transport = await self.reconnect.acquire()
        self._resume_epoch += 1
        resume = SessionResume(
            next_sequence=self._sequence,
            frame_index=self._last_frame_index,
            epoch=self._resume_epoch,
        )
        chunk = payload_chunk(resume, self.stream_id, self._sequence)
        self._sequence += 1
        await self.transport.send(encode_chunk(chunk))
        if self.feedback and self._feedback_task is None:
            self._feedback_task = asyncio.create_task(self._feedback_loop())
        for entry in self._retransmit.pending():
            await self.transport.send(entry.encoded)
            self.n_resume_retransmits += 1
        self.n_resumes += 1

    async def _send_header(self, header: StreamHeader, stats: StreamStats) -> None:
        # Every stream opens with its header chunk at sequence 0, so a node
        # can be reused across transports/streams without desynchronising
        # receivers (which expect consecutive sequences from 0).
        self._sequence = 0
        self._last_frame_index = 0
        self._resume_epoch = 0
        if self._retransmit is not None:
            self._retransmit.clear()
        if self.feedback and self._feedback_task is None:
            self._feedback_task = asyncio.create_task(self._feedback_loop())
        await self._send_chunk(header, stats)

    async def _send_frame(
        self,
        frame: CompressedFrame,
        stats: StreamStats,
        *,
        frame_index: int,
        grid_row: int,
        grid_col: int,
        keyframe: bool,
    ) -> int:
        """Ship one tile: a ``FRAME_DATA`` chunk, or a segment group.

        A segment group splits the encoded frame into its *prefix* (header,
        stats, seed — everything before the packed samples) and the samples
        themselves; every segment replicates the prefix and bit-packs its own
        contiguous sample slice, so each chunk decodes independently and a
        lost chunk costs exactly its rows of Φ.  An optional XOR-parity chunk
        closes the group.
        """
        tel = active(self.telemetry)
        if tel is not None:
            tel.begin_span(self.stream_id, frame_index, SPAN_ENCODE)
        frame_bytes = encode_frame(frame, version=2, include_seed=keyframe)
        if tel is not None:
            # Segment payload packing happens inside the send loop below, so
            # the encode span covers the shared frame encoding.  The transport
            # span's other half closes on the receiving session when the
            # first chunk lands (joined over loopback; a no-op half over TCP).
            tel.end_span(self.stream_id, frame_index, SPAN_ENCODE)
            tel.begin_span(self.stream_id, frame_index, SPAN_TRANSPORT)
        if not self._segmented:
            data = FrameData(
                frame_index=frame_index,
                grid_row=grid_row,
                grid_col=grid_col,
                keyframe=keyframe,
                frame_bytes=frame_bytes,
            )
            chunk = await self._send_chunk(data, stats, frame_index=frame_index)
            return chunk.n_bytes
        sample_bits = frame.config.compressed_sample_bits
        packed = pack_samples(frame.samples, sample_bits)
        prefix = frame_bytes[: len(frame_bytes) - len(packed)]
        n_samples = frame.n_samples
        n_segments = max(1, min(self.segments_per_frame, n_samples))
        payloads: list[bytes] = []
        sent = 0
        for index in range(n_segments):
            start = index * n_samples // n_segments
            stop = (index + 1) * n_samples // n_segments
            segment = FrameSegment(
                frame_index=frame_index,
                grid_row=grid_row,
                grid_col=grid_col,
                keyframe=keyframe,
                segment_index=index,
                n_segments=n_segments,
                start_sample=start,
                n_samples=stop - start,
                prefix_bytes=prefix,
                sample_bytes=pack_samples(frame.samples[start:stop], sample_bits),
            )
            chunk = await self._send_chunk(segment, stats, frame_index=frame_index)
            payloads.append(chunk.payload)
            sent += chunk.n_bytes
        if self.parity:
            parity = build_frame_parity(frame_index, grid_row, grid_col, payloads)
            chunk = await self._send_chunk(parity, stats, frame_index=frame_index)
            sent += chunk.n_bytes
        return sent

    # ------------------------------------------------------------ send loop
    async def _stream(
        self,
        header: StreamHeader,
        captures: Iterator[tuple[int, int, CompressedFrame]],
    ) -> StreamStats:
        """The one send loop every stream kind runs.

        ``captures`` yields ``(grid_row, grid_col, frame)`` for every tile of
        every frame, frame after frame in grid order; each pull runs on the
        worker executor, so capture work never blocks the event loop and a
        tile is on the wire while the next one is still being captured.  A
        frame is a grid of ≥1 tiles and a tile ships as one ``FRAME_DATA``
        chunk or a segment group; once a frame's last tile is out, a
        ``FRAME_COMPLETE`` barrier announcing the chunks the frame occupied
        closes it (mosaics and segmented streams only — an unsegmented
        single-sensor frame is its own barrier).

        A failure mid-stream (governor rejection, bad scene shape, a dead
        transport) must not strand the peer: the transport is closed, turning
        the receiver's blocking ``recv`` into end-of-stream, and the error
        still propagates to whoever awaits the stream.
        """
        try:
            grid = tile_grid(header.scene_shape, header.tile_shape)
            n_tiles = len(grid) * len(grid[0])
            barriers = header.tiled or self._segmented
            chunks_per_tile = self.segments_per_frame + (1 if self.parity else 0)
            if barriers and n_tiles * chunks_per_tile > 0xFFFF:
                raise ValueError(
                    f"{n_tiles} tiles x {chunks_per_tile} chunks per tile "
                    "overflow the frame barrier's u16 chunk count"
                )
            stats = StreamStats()
            await self._send_header(header, stats)
            tel = active(self.telemetry)
            sentinel = object()
            frame_index = 0
            tiles_sent = frame_bytes = frame_samples = 0
            frame_start_chunks = stats.n_chunks
            while True:
                # The capture span is recorded after the fact (add_span) so
                # the sentinel pull that ends the stream never opens a phantom
                # frame; a mosaic's per-tile intervals merge into one envelope.
                capture_started = tel.clock.now() if tel is not None else 0.0
                item = await self._run(next, captures, sentinel)
                if item is sentinel:
                    break
                grid_row, grid_col, frame = item
                if tel is not None:
                    tel.add_span(
                        self.stream_id,
                        frame_index,
                        SPAN_CAPTURE,
                        capture_started,
                        tel.clock.now(),
                    )
                frame_bytes += await self._send_frame(
                    frame,
                    stats,
                    frame_index=frame_index,
                    grid_row=grid_row,
                    grid_col=grid_col,
                    keyframe=frame_index % header.gop_size == 0,
                )
                frame_samples += frame.n_samples
                tiles_sent += 1
                if tiles_sent < n_tiles:
                    continue
                if barriers:
                    # The barrier tells the receiver how many chunks the frame
                    # occupied, so it can settle (and account loss for) the
                    # frame without waiting for the next one.
                    barrier = FrameComplete(frame_index, stats.n_chunks - frame_start_chunks)
                    chunk = await self._send_chunk(barrier, stats, frame_index=frame_index)
                    frame_bytes += chunk.n_bytes
                stats.n_frames += 1
                stats.samples_per_frame.append(frame_samples)
                stats.bytes_per_frame.append(frame_bytes)
                frame_index += 1
                tiles_sent = frame_bytes = frame_samples = 0
                frame_start_chunks = stats.n_chunks
            await self._send_chunk(StreamEnd(stats.n_frames), stats)
            await self._stop_feedback()
            await self.transport.close()
            return stats
        except BaseException:
            with contextlib.suppress(Exception):
                await self._stop_feedback()
            with contextlib.suppress(Exception):
                await self.transport.close()
            raise

    # ---------------------------------------------------------- single chip
    async def stream_frames(
        self,
        imager: CompressiveImager,
        scenes: Iterable[np.ndarray],
        *,
        fidelity: str = "behavioural",
        **capture_kwargs: Any,
    ) -> StreamStats:
        """Stream independent frames from one imager (every frame a keyframe).

        Each scene is captured via
        :meth:`~repro.sensor.imager.CompressiveImager.capture_scene` on the
        worker executor, encoded as a self-contained v2 frame (seed included)
        and sent.  The governor, when budgeted, fits each frame's sample
        count to the channel.
        """
        config = imager.config

        def captures() -> Iterator[tuple[int, int, CompressedFrame]]:
            for scene in scenes:
                n_samples = self.governor.samples_for_frame(config)
                yield 0, 0, imager.capture_scene(
                    scene, n_samples=n_samples, fidelity=fidelity, **capture_kwargs
                )

        header = StreamHeader(
            kind="frame",
            scene_shape=(config.rows, config.cols),
            tile_shape=(config.rows, config.cols),
            gop_size=1,
        )
        return await self._stream(header, captures())

    # --------------------------------------------------------------- video
    async def stream_video(
        self,
        sequencer: VideoSequencer,
        scenes: Iterable[np.ndarray],
        *,
        fidelity: str = "behavioural",
        **capture_kwargs: Any,
    ) -> StreamStats:
        """Stream a video sequence with seed-once GOPs.

        Frames come from
        :meth:`~repro.sensor.video.VideoSequencer.stream_frames` — the lazy
        capture path whose CA free-runs across frames — so only each GOP's
        keyframe carries the seed; the receiver re-derives every other seed
        from the one-pattern frame overlap
        (:func:`repro.stream.protocol.advance_seed_state`).
        """
        config = sequencer.imager.config
        # The governor must fix one sample count per GOP: seed re-derivation
        # needs every chained frame's advance to be announced in its header,
        # and a keyframe budget must also fit its seed bits.  Re-asking the
        # governor at each GOP boundary is where closed-loop rate changes
        # land; the open-loop governor returns the same count every time, so
        # this stays byte-identical to fixing the count up front.
        gop_samples: dict[int, int] = {}

        def samples_for(index: int) -> int:
            gop = index // self.gop_size
            if gop not in gop_samples:
                gop_samples[gop] = self.governor.samples_for_frame(
                    config,
                    max_samples=sequencer.samples_per_frame,
                    include_seed=True,
                )
            return gop_samples[gop]

        def captures() -> Iterator[tuple[int, int, CompressedFrame]]:
            for frame in sequencer.stream_frames(
                scenes, fidelity=fidelity, samples_for_frame=samples_for, **capture_kwargs
            ):
                yield 0, 0, frame

        header = StreamHeader(
            kind="video",
            scene_shape=(config.rows, config.cols),
            tile_shape=(config.rows, config.cols),
            gop_size=self.gop_size,
        )
        return await self._stream(header, captures())

    # --------------------------------------------------------------- tiled
    async def stream_tiled(
        self,
        array: TiledSensorArray,
        photocurrent: np.ndarray,
        *,
        fidelity: str = "behavioural",
        **capture_kwargs: Any,
    ) -> StreamStats:
        """Stream one mosaic frame, tile chunks flowing as tiles finish.

        Tiles come from
        :meth:`~repro.sensor.shard.TiledSensorArray.iter_capture`: tile
        ``(0, 0)`` is encoded and on the wire while the executor is still
        capturing the rest of the mosaic.  Every tile is self-contained
        (own seed); a ``FRAME_COMPLETE`` barrier closes the frame.
        """

        def captures() -> Iterator[tuple[int, int, CompressedFrame]]:
            for slot, frame in array.iter_capture(
                photocurrent,
                fidelity=fidelity,
                compression_ratio=self._tiled_ratio(array),
                **capture_kwargs,
            ):
                yield slot.grid_row, slot.grid_col, frame

        header = StreamHeader(
            kind="tiled",
            scene_shape=array.scene_shape,
            tile_shape=array.tile_shape,
            gop_size=1,
        )
        return await self._stream(header, captures())

    async def stream_tiled_video(
        self,
        array: TiledSensorArray,
        scenes: Iterable[np.ndarray],
        *,
        fidelity: str = "behavioural",
        photocurrents: bool = False,
        **capture_kwargs: Any,
    ) -> StreamStats:
        """Stream a tiled video sequence, GOP by GOP, seed-once per tile.

        Scenes are consumed in groups of ``gop_size``; each GOP is captured
        through
        :meth:`~repro.sensor.shard.TiledSensorArray.capture_sequence` with
        ``advance=True`` (every tile's CA free-runs across GOP boundaries),
        then emitted frame by frame: one chunk (or segment group) per tile —
        seeds riding only on the GOP's first frame — and one
        ``FRAME_COMPLETE`` barrier per frame.  ``photocurrents=True`` treats
        ``scenes`` as photocurrent maps instead of normalised scenes.
        """

        def captures() -> Iterator[tuple[int, int, CompressedFrame]]:
            ratio = self._tiled_ratio(array)
            capture = (
                array.capture_sequence if photocurrents else array.capture_scene_sequence
            )
            iterator = iter(scenes)
            while gop := list(itertools.islice(iterator, self.gop_size)):
                results = capture(
                    gop,
                    fidelity=fidelity,
                    compression_ratio=ratio,
                    advance=True,
                    **capture_kwargs,
                )
                for result in results:
                    for slot, frame in result.frames():
                        yield slot.grid_row, slot.grid_col, frame

        header = StreamHeader(
            kind="tiled-video",
            scene_shape=array.scene_shape,
            tile_shape=array.tile_shape,
            gop_size=self.gop_size,
        )
        return await self._stream(header, captures())

    def _tiled_ratio(self, array: TiledSensorArray) -> float | None:
        """The governor's per-tile compression ratio for one mosaic frame."""
        return self.governor.ratio_for_frame(
            array.imagers[0][0].config,
            array.scene_shape[0] * array.scene_shape[1],
            n_tiles=array.n_tiles,
        )
