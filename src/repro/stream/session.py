"""Per-stream session state: decode chunks, walk GOP chains, stage solves.

This is the middle layer of the streaming stack.  The three layers are
deliberately separate so each can scale independently:

* :mod:`repro.stream.transport` is **wire-only**: it moves opaque byte
  slices and exerts backpressure, nothing else;
* this module owns everything *one stream* needs between the wire and the
  solver — the chunk finite-state machine, per-tile-position seed chains
  (:func:`~repro.stream.protocol.advance_seed_state`) and the
  frame-barrier bookkeeping that hands each settled frame to
  :func:`~repro.recon.pipeline.reconstruct_frame` or
  :func:`~repro.recon.pipeline.reconstruct_tiled`;
* :mod:`repro.stream.hub` owns the *many-streams* concerns — the accept
  loop, demultiplexing by the stream ids already on the wire, fair solve
  scheduling across streams, and the high-watermark backpressure.

A :class:`StreamSession` never touches a transport and never runs a solve
itself: its synchronous core consumes already-parsed
:class:`~repro.stream.protocol.Chunk` objects, and one drain coroutine hands
every CPU-bound reconstruction, in frame order, to a :class:`SolveScheduler`
— the seam where the hub's fairness policy plugs in.
The single-node :class:`~repro.stream.receiver.StreamReceiver` drives exactly
one session through exactly the same code path, which is what keeps
streamed ≡ in-process byte-identical whether one camera is connected or
hundreds are.
"""

from __future__ import annotations

import asyncio
import functools
from collections import deque
from dataclasses import dataclass, field
from collections.abc import Callable
from typing import Any, Protocol

import numpy as np

from repro.io.bitstream import unpack_samples
from repro.io.framing import (
    FramingError,
    decode_frame,
    decode_frame_prefix,
)
from repro.recon.pipeline import (
    ReconstructionResult,
    TiledReconstructionResult,
    reconstruct_frame,
    reconstruct_tiled,
)
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressedFrame
from repro.sensor.shard import (
    TiledCaptureResult,
    TileSlot,
    merge_tile_statistics,
    tile_grid,
)
from repro.stream.protocol import (
    CONTROL_CHUNK_TYPES,
    MAX_NACK_SEQUENCES,
    Chunk,
    ChunkType,
    ControlAck,
    ControlPayload,
    FrameComplete,
    FrameData,
    FrameParity,
    FrameSegment,
    NackRequest,
    RateAdvice,
    SessionResume,
    StreamEnd,
    StreamHeader,
    StreamProtocolError,
    TilePayload,
    advance_seed_state,
    decode_payload,
    recover_missing_payload,
)
from repro.telemetry import (
    SPAN_DECODE,
    SPAN_QUEUE_WAIT,
    SPAN_SOLVE,
    SPAN_TRANSPORT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Telemetry,
    Window,
    active,
)


class SolveScheduler(Protocol):
    """Structural type of the solve-dispatch seam between session and hub.

    ``submit`` takes the session's stream id (the fairness key) and a
    zero-argument callable of CPU-bound solver work, and returns a future
    resolving to the callable's result.  The call itself **may suspend** —
    that is the solve-side backpressure: a scheduler whose per-stream or
    global high-watermark is full parks the submitting session (and hence,
    through the transport, its camera node) without stalling any other
    stream's chunk processing.
    """

    async def submit(
        self, key: int, fn: Callable[[], Any]
    ) -> asyncio.Future[Any]:
        """Queue one unit of solver work for ``key``; await queue space."""
        ...  # pragma: no cover - protocol body


@dataclass(frozen=True)
class FrameLossReport:
    """Receiver-side delivery accounting for one frame of a lossy stream.

    One entry per landed frame in a resilient session's
    ``stats.frame_loss``; the same numbers ride the
    :class:`~repro.stream.protocol.ControlAck` back to the node when
    feedback is on.  ``n_recovered_chunks`` counts parity repairs — those
    chunks were lost on the wire (so they *do* appear in the session's
    ``n_lost_chunks``) but their samples reached the solve anyway.
    """

    frame_index: int
    n_expected_chunks: int
    n_received_chunks: int
    n_recovered_chunks: int
    n_samples_expected: int
    n_samples_received: int

    @property
    def clean(self) -> bool:
        """True when every expected sample of the frame was delivered.

        A report whose expectation is unknown (``n_samples_expected == 0``,
        e.g. a frame none of whose chunks arrived) is never clean.
        """
        return (
            self.n_samples_expected > 0
            and self.n_samples_received >= self.n_samples_expected
        )

    def to_ack(self) -> ControlAck:
        """The wire form of this report (what feedback sends to the node)."""
        return ControlAck(
            frame_index=self.frame_index,
            n_expected_chunks=self.n_expected_chunks,
            n_received_chunks=self.n_received_chunks,
            n_recovered_chunks=self.n_recovered_chunks,
            n_samples_expected=self.n_samples_expected,
            n_samples_received=self.n_samples_received,
        )


@dataclass
class ReceivedFrame:
    """One fully-landed frame: the decoded capture and (optionally) its image.

    Attributes
    ----------
    frame_index:
        Position in the stream.
    capture:
        The decoded payload — a :class:`CompressedFrame` for single-sensor
        streams, a reassembled :class:`TiledCaptureResult` for mosaics (its
        metadata is :func:`~repro.sensor.shard.merge_tile_statistics` over
        the decoded tiles, so the event statistics that crossed the wire
        aggregate exactly as the capture side aggregated them; a tile
        nothing usable arrived for is ``None``).
    reconstruction:
        The frame's reconstruction, or ``None`` when the receiver runs
        as a pure decoder.
    loss:
        Delivery accounting for this frame (resilient sessions only;
        ``None`` on the lossless path).
    sample_mask:
        The survival mask the solve used — ``None`` when every sample
        arrived (full-Φ solve) or for mosaics (whose loss is per tile).
    """

    frame_index: int
    capture: CompressedFrame | TiledCaptureResult
    reconstruction: ReconstructionResult | TiledReconstructionResult | None = None
    loss: FrameLossReport | None = None
    sample_mask: np.ndarray | None = None


@dataclass
class StreamResult:
    """Everything one stream delivered."""

    header: StreamHeader | None = None
    frames: list[ReceivedFrame] = field(default_factory=list)
    n_chunks: int = 0
    n_bytes: int = 0
    announced_frames: int | None = None
    stream_id: int | None = None

    @property
    def n_frames(self) -> int:
        """Frames fully received."""
        return len(self.frames)


#: Entries every stats window keeps: a session's ``frame_latencies`` and
#: ``frame_loss``, the hub-wide latency window and the solve scheduler's
#: ``dispatch_order``.  The counters stay exact totals.
STATS_WINDOW = 4096


@dataclass
class SessionStats:
    """Live per-stream counters a hub operator reads while the stream runs.

    ``frame_latencies`` records, per frame, the seconds from the frame's
    first chunk landing to the frame being fully decoded *and* (when
    reconstruction is on) solved — the quantity whose p99 the ``hub``
    benchmark group tracks; it and ``frame_loss`` keep the last
    :data:`STATS_WINDOW` frames.  Unlike :class:`StreamResult` (which is only
    returned for streams that finish cleanly), the stats object outlives a
    failed session, so a disconnect still leaves its partial counters
    readable.  Each counter also feeds its :data:`STATS_SERIES`.
    """

    stream_id: int
    n_chunks: int = 0
    n_bytes: int = 0
    n_frames: int = 0
    frame_latencies: deque[float] = field(default_factory=lambda: deque(maxlen=STATS_WINDOW))
    # ---- loss accounting (only a resilient session moves these) ----
    #: Chunks the sequence numbers prove never arrived (parity-recovered
    #: chunks still count — they were lost on the wire).
    n_lost_chunks: int = 0
    #: Chunks that arrived after a later sequence number (and were used).
    n_reordered_chunks: int = 0
    #: Chunks whose sequence number had already been processed (skipped).
    n_duplicate_chunks: int = 0
    #: Chunks that arrived but failed payload decoding (checksum, framing).
    n_corrupt_chunks: int = 0
    #: Segment chunks rebuilt from XOR parity.
    n_recovered_chunks: int = 0
    #: Chunks arriving after the stream-end chunk (ignored).
    n_late_chunks: int = 0
    #: Frames solved from a strict subset of their samples (partial Φ).
    n_partial_frames: int = 0
    #: Frames written off without reconstruction (no usable tile arrived,
    #: e.g. a broken GOP seed chain).
    n_dropped_frames: int = 0
    #: NACK requests queued down the feedback path (selective repeat).
    n_nacks_sent: int = 0
    #: Deferred frames that settled partial after their NACK grace lapsed
    #: (or the stream ended before the repair arrived).
    n_deadline_salvages: int = 0
    #: ``SESSION_RESUME`` chunks absorbed (node reconnect-with-resume).
    n_resumes: int = 0
    #: Per-frame delivery accounting, in finalisation order.
    frame_loss: deque[FrameLossReport] = field(default_factory=lambda: deque(maxlen=STATS_WINDOW))


#: Every :class:`SessionStats` counter -> (hub-wide series, help, ``{stream}``
#: series, help), ``None`` where there is none.  A name without ``_total`` is
#: a gauge: lost chunks is a level, which a reordered arrival lowers.
STATS_SERIES: dict[str, tuple[str | None, str, str | None, str]] = {
    "n_chunks": (None, "", "repro_session_chunks_total", "Chunks this stream processed."),
    "n_bytes": ("repro_hub_bytes_total", "Wire bytes ingested across all sessions.",
                "repro_session_bytes_total", "Wire bytes this stream carried."),
    "n_frames": ("repro_hub_frames_total", "Frames fully landed across all sessions.",
                 "repro_session_frames_total", "Frames this stream landed."),
    "n_lost_chunks": ("repro_hub_lost_chunks",
                      "Chunks proven lost by sequence gaps and not reclaimed since.", None, ""),
    "n_reordered_chunks": ("repro_hub_reordered_chunks_total",
                           "Chunks that arrived late but were used.", None, ""),
    "n_duplicate_chunks": ("repro_hub_duplicate_chunks_total",
                           "Chunks whose sequence was already processed.", None, ""),
    "n_corrupt_chunks": ("repro_hub_corrupt_chunks_total",
                         "Chunks that arrived but failed decoding.", None, ""),
    "n_recovered_chunks": ("repro_hub_recovered_chunks_total",
                           "Segment chunks rebuilt from XOR parity.", None, ""),
    "n_late_chunks": ("repro_hub_late_chunks_total",
                      "Chunks arriving after their frame settled.", None, ""),
    "n_partial_frames": ("repro_hub_partial_frames_total",
                         "Frames solved from a strict subset of their samples.",
                         "repro_session_partial_frames_total",
                         "Frames solved from partial samples on this stream."),
    "n_dropped_frames": ("repro_hub_dropped_frames_total",
                         "Frames landed without a reconstruction.",
                         "repro_session_dropped_frames_total",
                         "Frames landed without reconstruction on this stream."),
    "n_nacks_sent": ("repro_hub_nacks_sent_total",
                     "NACK repair requests sent down the feedback path.",
                     "repro_session_nacks_sent_total", "NACK repair requests this stream queued."),
    "n_deadline_salvages": ("repro_hub_deadline_salvages_total",
                            "Deferred frames settled partial after their NACK grace.",
                            "repro_session_deadline_salvages_total",
                            "Frames this stream salvaged after their NACK grace."),
    "n_resumes": ("repro_hub_session_resumes_total", "SESSION_RESUME chunks absorbed by sessions.",
                  "repro_session_resumes_total", "SESSION_RESUME chunks this stream absorbed."),
}


def stats_instrument(
    registry: MetricsRegistry, name: str, help: str, labels: dict[str, object] | None = None
) -> Counter | Gauge:
    """The instrument of one :data:`STATS_SERIES` series (get-or-create)."""
    if name.endswith("_total"):
        return registry.counter(name, labels=labels, help=help)
    return registry.gauge(name, labels=labels, help=help)


def frame_latency_instruments(registry: MetricsRegistry) -> tuple[Histogram, Window]:
    """The hub-wide frame-latency histogram and the window of its last values."""
    name = "repro_hub_frame_latency_seconds"
    help_text = "Per-frame seconds from first chunk to decoded (and solved)."
    return registry.histogram(name, help=help_text), registry.window(name, maxlen=STATS_WINDOW)


class _TileChunks:
    """The chunks of one tile of one frame that have landed so far.

    A tile arrives either as one ``FRAME_DATA`` chunk or as a group of
    ``FRAME_SEGMENT`` chunks plus an optional ``FRAME_PARITY`` chunk.
    """

    def __init__(self) -> None:
        self.data: FrameData | None = None
        self.n_segments: int | None = None
        self.segments: dict[int, FrameSegment] = {}
        self.payloads: dict[int, bytes] = {}
        self.parity: FrameParity | None = None
        #: Chunks of this tile that actually arrived off the wire.
        self.n_chunks_received = 0

    def add(self, part: TilePayload, payload: bytes) -> bool:
        """Land one chunk; returns False for a duplicate within the tile."""
        # A tile that already holds chunks of the other kind is corrupt.
        if self.n_chunks_received and (self.data is None) == isinstance(
            part, FrameData
        ):
            raise StreamProtocolError("tile mixes frame-data and segment chunks")
        if isinstance(part, FrameData):
            if self.data is not None:
                return False
            self.data = part
        elif isinstance(part, FrameParity):
            if self.parity is not None:
                return False
            self.parity = part
        else:
            if self.n_segments is None:
                self.n_segments = part.n_segments
            elif part.n_segments != self.n_segments:
                raise StreamProtocolError(
                    f"frame {part.frame_index} segments disagree on group size "
                    f"({part.n_segments} vs {self.n_segments})"
                )
            if part.segment_index in self.segments:
                return False
            self.segments[part.segment_index] = part
            self.payloads[part.segment_index] = payload
        self.n_chunks_received += 1
        return True

    @property
    def whole(self) -> bool:
        """True when every sample arrived or parity rebuilds the one missing."""
        if self.data is not None:
            return True
        if self.n_segments is None:
            return False
        missing = self.n_segments - len(self.segments)
        return missing <= 0 or (missing == 1 and self.parity is not None)

    @property
    def n_chunks_expected(self) -> int:
        """The tile's chunk count as far as its own chunks tell."""
        if self.data is not None:
            return 1
        return (self.n_segments or 0) + (1 if self.parity is not None else 0)

    def try_recover(self) -> bool:
        """Rebuild the single missing segment from parity, if possible."""
        if self.parity is None or self.n_segments is None:
            return False
        if len(self.segments) != self.n_segments - 1:
            return False
        (missing_index,) = set(range(self.n_segments)) - set(self.segments)
        try:
            payload = recover_missing_payload(
                self.parity, self.payloads, missing_index
            )
            segment = decode_payload(ChunkType.FRAME_SEGMENT, payload)
        except StreamProtocolError:
            return False
        assert isinstance(segment, FrameSegment)
        if segment.segment_index != missing_index:
            return False
        self.segments[missing_index] = segment
        self.payloads[missing_index] = payload
        return True


@dataclass
class _PendingFrame:
    """An unsettled frame: the grid positions whose chunks have landed."""

    #: Session-clock time the frame's first chunk landed.
    started: float
    tiles: dict[tuple[int, int], _TileChunks] = field(default_factory=dict)


@dataclass
class _DecodedTile:
    """One tile after decoding; ``frame`` is ``None`` when written off."""

    frame: CompressedFrame | None
    #: Survival mask of the tile's samples; ``None`` when all of them arrived.
    mask: np.ndarray | None = None
    #: Samples the tile carried (0 when unknowable) and the ones that arrived.
    n_samples_expected: int = 0
    n_samples_received: int = 0


class StreamSession:
    """The chunk finite-state machine for exactly one stream.

    Every stream kind runs one frame model: a frame is a grid of ≥1 tiles
    (one for single-sensor streams), and each tile arrives as one
    ``FRAME_DATA`` chunk or as a group of ``FRAME_SEGMENT`` chunks plus an
    optional ``FRAME_PARITY`` chunk.  Tiles land in a per-frame grid; frames
    settle oldest-first through one path when a ``FRAME_COMPLETE`` barrier,
    the stream end or EOF passes them (an unsegmented single-sensor frame is
    its own barrier).  Settling decodes each tile against its position's seed
    chain and hands the frame to the solver — one
    :func:`~repro.recon.pipeline.reconstruct_frame` job per single-sensor
    frame, one batched barrier job per mosaic frame.

    The state machine is synchronous (:meth:`feed`, :meth:`tick`,
    :meth:`seal`); each async entry point runs its core, then the drain.

    Parameters
    ----------
    stream_id:
        The id this session answers to — the demux key the hub routes by.
    scheduler:
        The :class:`SolveScheduler` every reconstruction is dispatched
        through.  The session never blocks the event loop on solver work.
    reconstruct, dictionary, solver, regularization, max_iterations:
        Reconstruction options, exactly as on
        :class:`~repro.stream.receiver.StreamReceiver` (which forwards them
        here verbatim); ``solver`` is one of the proximal family
        (``fista``/``ista``), which the hub checks at construction.
    resilient:
        The strictness policy.  A strict session (the default) raises
        :class:`StreamProtocolError` on every anomaly; a resilient one turns
        anomalies into accounting: sequence gaps become tracked losses,
        duplicates and late chunks are skipped, corrupt payloads are counted,
        and frames settle from whatever arrived — lost segments as masked
        rows of Φ, lost tiles as holes in the mosaic.  On a lossless channel
        the two are byte-identical.
    emit_feedback:
        Queue a :class:`~repro.stream.protocol.ControlAck` per finalised
        frame (plus a :class:`~repro.stream.protocol.RateAdvice` when the
        frame saw loss) for the hub to ship down the feedback path.
    max_sequence_gap:
        Resync-plausibility window: the largest forward sequence jump a
        resilient session books as loss rather than corruption.  Every frame
        occupies at least one sequence number, so the same window bounds how
        far past the oldest unsettled frame a frame index (or the stream
        end's frame count) may jump.  ``None`` keeps the
        :data:`MAX_SEQUENCE_GAP` default; burst-loss tests and operators
        expecting long outages can widen it.
    frame_deadline:
        Seconds (on the session clock) an incomplete frame may wait for
        repair before settling.  Setting it turns on NACK-driven selective
        repeat: a frame that reaches its barrier (or outlives the deadline)
        with chunks still missing queues one ``CONTROL_NACK`` down the
        feedback path and defers settlement for ``nack_grace`` seconds; a
        retransmit completing the frame settles it whole, the grace lapsing
        settles it through the partial-Φ salvage (``n_deadline_salvages``).
        ``None`` (default) keeps the immediate settle-at-barrier behaviour —
        with no faults the two are byte-identical.
    nack_grace:
        Grace window after a NACK before the deferred frame is salvaged;
        defaults to ``frame_deadline``.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`.  When enabled the
        session closes each frame's ``transport`` span as its chunks land,
        brackets tile decoding in a ``decode`` span, and wraps every
        scheduled solve so the scheduler's ``queue_wait`` and the ``solve``
        itself appear in the frame's trace.  Enabled or not, its registry
        gets the session's counters (:data:`STATS_SERIES`, bound once here)
        and latencies.  ``None`` (the default) uses a private disabled one.
    """

    #: How many whole-frame batched solves may be in flight at once before
    #: the drain awaits the oldest.  One is enough to overlap the
    #: current frame's solve with the next frame's wire transfer while
    #: keeping per-session memory bounded.
    MAX_INFLIGHT_TILED_SOLVES = 1

    #: Default resync-plausibility window (see the ``max_sequence_gap``
    #: parameter): the largest forward sequence jump booked as loss rather
    #: than corruption — a jump past it is not plausible loss but a corrupt
    #: sequence field (or a different stream), and treating it as loss would
    #: fabricate millions of phantom missing chunks.
    MAX_SEQUENCE_GAP = 4096

    def __init__(
        self,
        stream_id: int,
        scheduler: SolveScheduler,
        *,
        reconstruct: bool = True,
        dictionary: str = "dct",
        solver: str = "fista",
        regularization: float | None = None,
        max_iterations: int | None = None,
        resilient: bool = False,
        emit_feedback: bool = False,
        max_sequence_gap: int | None = None,
        frame_deadline: float | None = None,
        nack_grace: float | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.stream_id = int(stream_id)
        self.scheduler = scheduler
        self.reconstruct = bool(reconstruct)
        self.resilient = bool(resilient)
        self.emit_feedback = bool(emit_feedback)
        self.max_sequence_gap = (
            self.MAX_SEQUENCE_GAP if max_sequence_gap is None else int(max_sequence_gap)
        )
        if self.max_sequence_gap < 1:
            raise ValueError(
                f"max_sequence_gap must be >= 1, got {self.max_sequence_gap}"
            )
        if frame_deadline is not None and frame_deadline <= 0:
            raise ValueError(f"frame_deadline must be > 0, got {frame_deadline}")
        if nack_grace is not None and nack_grace <= 0:
            raise ValueError(f"nack_grace must be > 0, got {nack_grace}")
        self.frame_deadline = frame_deadline
        self.nack_grace = nack_grace if nack_grace is not None else frame_deadline
        self.telemetry = telemetry if telemetry is not None else Telemetry(enabled=False)
        self.stats = SessionStats(stream_id=self.stream_id)
        registry = self.telemetry.registry
        labels: dict[str, object] = {"stream": self.stream_id}
        self._instruments: dict[str, list[Counter | Gauge]] = {}
        for name, (hub, hub_help, stream, stream_help) in STATS_SERIES.items():
            bound = self._instruments[name] = []
            if hub is not None:
                bound.append(stats_instrument(registry, hub, hub_help))
            if stream is not None:
                bound.append(stats_instrument(registry, stream, stream_help, labels))
        self._latency_histogram, self._hub_latencies = frame_latency_instruments(
            registry
        )
        # The one option set shared by the single-frame and the mosaic solve
        # paths — the two cannot diverge in configuration.
        self._recon_options: dict[str, Any] = dict(
            dictionary=dictionary,
            solver=solver,
            regularization=regularization,
            max_iterations=None if max_iterations is None else int(max_iterations),
        )
        self._header: StreamHeader | None = None
        #: The frame's tile grid (1x1 for single-sensor streams).
        self._slots: list[list[TileSlot]] = []
        self._result = StreamResult(stream_id=self.stream_id)
        self._next_sequence = 0
        self._ended = False
        self._finished = False
        # Per tile-position seed chains for seedless (GOP) frames, and the
        # frame index that last advanced each chain — a gap in that walk
        # means the chain is stale and seedless tiles must be written off
        # until the next keyframe re-anchors it.
        self._seed_chains: dict[tuple[int, int], np.ndarray] = {}
        self._chain_frame: dict[tuple[int, int], int] = {}
        #: Unsettled frames, by frame index.
        self._frames: dict[int, _PendingFrame] = {}
        #: Settled frames awaiting submission: ``(frame, job, first-chunk time)``.
        self._queued: deque[tuple[ReceivedFrame, Callable[[], Any], float]] = deque()
        # (ReceivedFrame, future) pairs of submitted solves.  Single-sensor
        # reconstructions are attached at end-of-stream (see :meth:`finish`);
        # the drain awaits older solves before submitting a mosaic frame past
        # MAX_INFLIGHT_TILED_SOLVES, so a stream that outruns the solver
        # cannot accumulate unbounded work.
        self._solves: list[tuple[ReceivedFrame, asyncio.Future[Any]]] = []
        #: Serialises the drain (created on first use, inside the event loop).
        self._drain_lock: asyncio.Lock | None = None
        #: Sequence numbers proven missing (gap seen, chunk never arrived).
        self._missing: set[int] = set()
        #: Next frame index the stream has not yet settled (landed, finalised
        #: partial, or written off as lost).  Frames are emitted in this
        #: order, so everything below it is history.
        self._next_frame_index = 0
        #: Highest frame index (exclusive) the barriers / stream end have
        #: asked the session to settle up to.
        self._settle_frontier = 0
        #: Chunks per frame, learned from the latest frame barrier — the
        #: expectation a fully-lost frame is reported against.
        self._expected_frame_chunks: int | None = None
        #: Control payloads awaiting the feedback path.
        self._outgoing_control: list[ControlPayload] = []
        # ---- deadline supervision (only with frame_deadline set) ----
        #: Frames whose settlement is deferred awaiting NACK repair, mapped
        #: to the clock time their grace lapses.  In-order emission holds:
        #: :meth:`_settle_to` never settles past the lowest deferral.
        self._deferred: dict[int, float] = {}
        #: Frames that already used their one NACK (a frame NACKs once).
        self._nacked_frames: set[int] = set()
        #: Clock time of the last chunk landed — what idle reaping reads.
        self.last_activity = self.telemetry.clock.now()

    # -------------------------------------------------------------- helpers
    @property
    def ended(self) -> bool:
        """True once the stream-end chunk has been processed."""
        return self._ended

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` has settled the session's result."""
        return self._finished

    @property
    def missing_sequences(self) -> tuple[int, ...]:
        """Sequence numbers of chunks proven lost, ascending.

        Parity-recovered chunks stay listed — they never arrived; recovery
        happened above the wire.  With a drop-only fault model and the
        node's one-chunk-per-send discipline, this equals the injected drop
        indices exactly (what the fault-injection suite pins).
        """
        return tuple(sorted(self._missing))

    def take_outgoing_control(self) -> list[ControlPayload]:
        """Drain queued feedback payloads (the hub ships them to the node)."""
        queued, self._outgoing_control = self._outgoing_control, []
        return queued

    @property
    def _n_tiles(self) -> int:
        return len(self._slots) * len(self._slots[0])

    def _now(self) -> float:
        # The injected telemetry clock (REPRO006): deterministic under a
        # ManualClock, and shared with the node side over loopback so the
        # two halves of a frame trace subtract meaningfully.
        return self.telemetry.clock.now()

    def _count(self, name: str, n: int = 1) -> None:
        """Book ``n`` events of a :class:`SessionStats` counter and its series."""
        setattr(self.stats, name, getattr(self.stats, name) + n)
        for instrument in self._instruments[name]:
            instrument.inc(n)

    def _note_latency(self, started: float) -> None:
        """Record a frame's latency: session window, histogram, hub window."""
        latency = self._now() - started
        self.stats.frame_latencies.append(latency)
        self._latency_histogram.observe(latency)
        self._hub_latencies.append(latency)

    def _traced(self, frame_index: int, fn: Callable[[], Any]) -> Callable[[], Any]:
        """Wrap one solve thunk to trace its queue wait and solve time.

        With telemetry enabled the frame's ``queue_wait`` span opens here, at
        submission, and closes inside the thunk the moment a scheduler slot
        actually runs it (on an executor thread — the tracer is
        thread-safe), where the ``solve`` span takes over.  The thunk's
        return value and exceptions pass through untouched, and the wrapped
        thunk only *reads* clocks — reconstruction bytes cannot change.
        """
        tel = active(self.telemetry)
        if tel is None:
            return fn
        stream_id = self.stream_id
        tel.begin_span(stream_id, frame_index, SPAN_QUEUE_WAIT)

        def traced() -> Any:
            tel.end_span(stream_id, frame_index, SPAN_QUEUE_WAIT)
            tel.begin_span(stream_id, frame_index, SPAN_SOLVE)
            try:
                return fn()
            finally:
                tel.end_span(stream_id, frame_index, SPAN_SOLVE)

        return traced

    async def _drain(self) -> None:
        """Submit every queued solve in frame order (the one await site).

        One drain runs at a time, so a reap-loop :meth:`check_deadlines`
        racing :meth:`handle_chunk` cannot reorder submissions."""
        if self._drain_lock is None:
            self._drain_lock = asyncio.Lock()
        async with self._drain_lock:
            while self._queued:
                received, job, started = self._queued.popleft()
                if isinstance(received.capture, TiledCaptureResult):
                    while len(self._solves) >= self.MAX_INFLIGHT_TILED_SOLVES:
                        earlier, pending = self._solves.pop(0)
                        earlier.reconstruction = await pending
                job = self._traced(received.frame_index, job)
                future = await self.scheduler.submit(self.stream_id, job)
                future.add_done_callback(
                    lambda done, at=started: done.cancelled() or self._note_latency(at)
                )
                self._solves.append((received, future))

    # ----------------------------------------------------- strictness policy
    def _fault(self, error: StreamProtocolError, counter: str | None = None) -> None:
        """Handle one anomaly: a strict session raises it; a resilient one
        bumps ``counter`` (when given) and carries on."""
        if not self.resilient:
            raise error
        if counter is not None:
            self._count(counter)

    def _record_loss(self, report: FrameLossReport) -> FrameLossReport | None:
        """Book a frame's delivery accounting and queue its feedback.

        Only a resilient session keeps loss accounting: a strict one has
        already raised on any loss, so its frames carry no report.
        """
        if not self.resilient:
            return None
        self.stats.frame_loss.append(report)
        if self.emit_feedback:
            self._outgoing_control.append(report.to_ack())
            if report.n_samples_received < report.n_samples_expected:
                advice = RateAdvice(
                    frame_index=report.frame_index,
                    advised_samples=report.n_samples_received,
                    loss_fraction=report.to_ack().loss_fraction,
                )
                self._outgoing_control.append(advice)
        return report

    def _frame_in_window(self, frame_index: int) -> bool:
        """Admit a chunk's frame index; False when the chunk is skipped.

        A chunk for a frame that already settled is late.  A frame index
        more than ``max_sequence_gap`` frames past the oldest unsettled frame
        is a corrupt field, not loss: the settle loop walks every frame up to
        it, so admitting it would let one flipped bit book billions of
        phantom frame reports.
        """
        if frame_index < self._next_frame_index:
            self._fault(
                StreamProtocolError(
                    f"chunk for frame {frame_index}, which already settled"
                ),
                "n_late_chunks",
            )
            return False
        return self._plausible(frame_index)

    def _plausible(self, stop: int) -> bool:
        """The frame-index plausibility window of :meth:`_frame_in_window`."""
        if stop - self._next_frame_index <= self.max_sequence_gap:
            return True
        self._fault(
            StreamProtocolError(
                f"frame index {stop} jumps more than {self.max_sequence_gap} "
                f"frames past frame {self._next_frame_index}"
            ),
            "n_corrupt_chunks",
        )
        return False

    # ------------------------------------------------------------ settling
    def _settle_to(self, stop: int, *, defer: bool = True) -> None:
        """Settle every frame below ``stop`` in order, pausing at deferrals.

        The one settle loop.  Every frame below :attr:`_settle_frontier`
        settles oldest-first, except that a repairable frame (``defer=True``,
        deadline configured, not yet NACKed) is deferred instead — one
        ``CONTROL_NACK`` goes out and the sweep stops so frames keep emitting
        in order.  A retransmit completing the frame (or its grace lapsing)
        resumes the sweep via :meth:`_check_deferred`.
        """
        self._settle_frontier = max(self._settle_frontier, stop)
        while self._next_frame_index < self._settle_frontier:
            frame_index = self._next_frame_index
            if frame_index in self._deferred:
                return
            if (
                defer
                and self.frame_deadline is not None
                and frame_index not in self._nacked_frames
                and self._repairable(frame_index)
            ):
                self._queue_nack(frame_index, self._now())
                return
            # Advance first: a strict settle that raises leaves its frame behind.
            self._next_frame_index += 1
            self._settle_frame(frame_index)

    def _expected_chunks(self, tiles: dict[tuple[int, int], _TileChunks]) -> int:
        """Chunks a frame occupied: the latest barrier's count, else inferred
        from the frame's own chunks (one per tile nothing arrived for)."""
        if self._expected_frame_chunks is not None:
            return self._expected_frame_chunks
        inferred = sum(chunks.n_chunks_expected for chunks in tiles.values())
        return inferred + self._n_tiles - len(tiles)

    def _settle_frame(self, frame_index: int) -> None:
        """Land (or write off) one frame the stream has passed.

        Loss shows up per tile: a tile missing samples solves over the rows
        of Φ that survived, a tile nothing usable arrived for stays a hole in
        the mosaic, and a frame with no usable tile at all is written off.
        A landed frame's solve job joins the FIFO the drain submits from.
        """
        assert self._header is not None
        pending = self._frames.pop(frame_index, None)
        tiles = {} if pending is None else pending.tiles
        n_recovered = sum(chunks.try_recover() for chunks in tiles.values())
        self._count("n_recovered_chunks", n_recovered)
        decoded = {
            key: self._decode_tile(frame_index, key, tiles[key]) for key in sorted(tiles)
        }
        present = [tile.frame for tile in decoded.values() if tile.frame is not None]
        per_tile = present[0].n_samples if present else 0
        n_incomplete = self._n_tiles - sum(
            tile.frame is not None and tile.mask is None for tile in decoded.values()
        )
        if n_incomplete:
            self._fault(
                StreamProtocolError(
                    f"frame {frame_index} completed with {n_incomplete} tiles "
                    "missing samples"
                )
            )
        n_received_samples = sum(tile.n_samples_received for tile in decoded.values())
        n_received_chunks = sum(chunks.n_chunks_received for chunks in tiles.values())
        report = FrameLossReport(
            frame_index=frame_index,
            # The barrier's count has no CRC: a corrupt one below what landed
            # cannot stand, or the ack would contradict itself on the wire.
            n_expected_chunks=max(self._expected_chunks(tiles), n_received_chunks),
            n_received_chunks=n_received_chunks,
            n_recovered_chunks=n_recovered,
            # Every tile of a stream samples at the same rate, so a tile whose
            # own count is unknown expects what any survivor carried.
            n_samples_expected=sum(
                tile.n_samples_expected or per_tile for tile in decoded.values()
            )
            + (self._n_tiles - len(decoded)) * per_tile,
            n_samples_received=n_received_samples,
        )
        if pending is None or not present:
            self._count("n_dropped_frames")
            self._record_loss(report)
            return
        capture: CompressedFrame | TiledCaptureResult
        sample_mask = None
        if self._header.tiled:
            frames = {key: tile.frame for key, tile in decoded.items()}
            capture = TiledCaptureResult(
                tiles=[
                    [frames.get((slot.grid_row, slot.grid_col)) for slot in row]
                    for row in self._slots
                ],
                slots=self._slots,
                scene_shape=self._header.scene_shape,
                tile_shape=self._header.tile_shape,
                metadata=merge_tile_statistics(present),
            )
        else:
            capture, sample_mask = present[0], decoded[(0, 0)].mask
        received = ReceivedFrame(
            frame_index=frame_index,
            capture=capture,
            loss=self._record_loss(report),
            sample_mask=sample_mask,
        )
        self._result.frames.append(received)
        self._count("n_frames")
        if not self.reconstruct:
            self._note_latency(pending.started)
            return
        if n_incomplete:
            self._count("n_partial_frames")
        job: Callable[[], Any]
        if isinstance(capture, TiledCaptureResult):
            masks = {key: tile.mask for key, tile in decoded.items() if tile.mask is not None}
            job = functools.partial(
                reconstruct_tiled, capture, sample_masks=masks, **self._recon_options
            )
        else:
            job = functools.partial(
                reconstruct_frame, capture, sample_mask=sample_mask, **self._recon_options
            )
        self._queued.append((received, job, pending.started))

    def _decode_tile(
        self, frame_index: int, key: tuple[int, int], chunks: _TileChunks
    ) -> _DecodedTile:
        """Decode one tile against its position's seed chain.

        The one decode path for both chunk kinds: a ``FRAME_DATA`` tile
        decodes whole; a segment group fills the sample slices that arrived
        and marks them in a survival mask.  A tile whose Φ cannot be trusted
        — only parity arrived, a seedless tile without an unbroken seed
        chain, an undecodable prefix, a tile that does not fit its slot — is
        written off rather than solved against a wrong or unknown Φ.
        """
        assert self._header is not None
        segments = [chunks.segments[index] for index in sorted(chunks.segments)]
        if chunks.data is not None:
            keyframe, encoded = chunks.data.keyframe, chunks.data.frame_bytes
        elif segments:
            keyframe, encoded = segments[0].keyframe, segments[0].prefix_bytes
        else:
            return _DecodedTile(None)  # parity alone cannot rebuild anything
        seed = None
        if not keyframe:
            if self._header.gop_size <= 1:
                self._fault(
                    StreamProtocolError(
                        f"seedless frame {frame_index} for tile {key} in a "
                        "keyframe-only stream"
                    ),
                    "n_corrupt_chunks",
                )
                return _DecodedTile(None)
            if self._chain_frame.get(key) != frame_index - 1:
                # An earlier loss broke this position's seed chain (or no
                # keyframe ever anchored it): decoding against a stale seed
                # would silently rebuild the wrong Φ.
                self._fault(
                    StreamProtocolError(
                        f"seedless frame {frame_index} for tile {key} has no "
                        "unbroken seed chain"
                    )
                )
                return _DecodedTile(
                    None, n_samples_expected=self._peek_samples(encoded, key)
                )
            seed = self._seed_chains[key]
        tel = active(self.telemetry)
        if tel is not None:
            tel.begin_span(self.stream_id, frame_index, SPAN_DECODE)
        mask: np.ndarray | None = None
        try:
            if chunks.data is not None:
                frame = decode_frame(encoded, seed_state=seed)
            else:
                frame, mask = self._assemble_segments(encoded, seed, segments)
        except FramingError as error:
            self._fault(
                StreamProtocolError(
                    f"tile {key} of frame {frame_index} failed to decode: {error}"
                ),
                "n_corrupt_chunks",
            )
            return _DecodedTile(None)
        finally:
            if tel is not None:
                tel.end_span(self.stream_id, frame_index, SPAN_DECODE)
        slot = self._slots[key[0]][key[1]]
        if (frame.config.rows, frame.config.cols) != (slot.rows, slot.cols):
            self._fault(
                StreamProtocolError(
                    f"tile {key} of frame {frame_index} is "
                    f"{frame.config.rows}x{frame.config.cols}, its slot expects "
                    f"{slot.rows}x{slot.cols}"
                ),
                "n_corrupt_chunks",
            )
            return _DecodedTile(None, n_samples_expected=frame.n_samples)
        # The one-pattern frame overlap: this frame's last selection pattern
        # seeds the next frame at this position.  Keyframe-only streams
        # (gop_size <= 1) never read the chain, so skip the CA evolution on
        # their decode hot path.
        if self._header.gop_size > 1:
            self._seed_chains[key] = advance_seed_state(
                frame.seed_state,
                frame.rule_number,
                n_samples=frame.n_samples,
                steps_per_sample=frame.steps_per_sample,
                warmup_steps=frame.warmup_steps,
            )
            self._chain_frame[key] = frame_index
        n_received = frame.n_samples if mask is None else int(mask.sum())
        if not n_received:
            return _DecodedTile(None, n_samples_expected=frame.n_samples)
        return _DecodedTile(frame, mask, frame.n_samples, n_received)

    def _assemble_segments(
        self,
        prefix_bytes: bytes,
        seed: np.ndarray | None,
        segments: list[FrameSegment],
    ) -> tuple[CompressedFrame, np.ndarray | None]:
        """Rebuild a segmented tile: every surviving segment fills its sample
        slice; the mask is ``None`` when all of them arrived."""
        prefix = decode_frame_prefix(prefix_bytes, seed_state=seed)
        header = prefix.header
        samples = np.zeros(header.n_samples, dtype=np.int64)
        mask = np.zeros(header.n_samples, dtype=bool)
        n_bytes = len(prefix_bytes)
        for segment in segments:
            stop = segment.start_sample + segment.n_samples
            try:
                if stop > header.n_samples:
                    raise ValueError("segment runs past its frame")
                values = unpack_samples(
                    segment.sample_bytes, segment.n_samples, header.sample_bits
                )
            except ValueError as error:
                self._fault(
                    StreamProtocolError(
                        f"segment {segment.segment_index} of frame "
                        f"{segment.frame_index}: {error}"
                    ),
                    "n_corrupt_chunks",
                )
                continue
            samples[segment.start_sample : stop] = values
            mask[segment.start_sample : stop] = True
            n_bytes += len(segment.sample_bytes)
        metadata = dict(prefix.metadata)
        metadata["decoded_from_bytes"] = n_bytes
        frame = CompressedFrame(
            samples=samples,
            seed_state=prefix.seed_state,
            rule_number=header.rule_number,
            steps_per_sample=header.steps_per_sample,
            warmup_steps=header.warmup_steps,
            config=SensorConfig(
                rows=header.rows, cols=header.cols, pixel_bits=header.pixel_bits
            ),
            digital_image=None,
            metadata=metadata,
        )
        return frame, None if mask.all() else mask

    def _peek_samples(self, encoded: bytes, key: tuple[int, int]) -> int:
        """Best-effort sample count of a tile whose seed chain is unusable.

        The fixed header precedes the seed on the wire, so decoding against a
        placeholder seed of the right width recovers the header fields (all
        a loss report needs) even when the real chain is stale or absent.
        """
        slot = self._slots[key[0]][key[1]]
        placeholder = np.zeros(slot.rows + slot.cols, dtype=np.uint8)
        try:
            return decode_frame_prefix(encoded, seed_state=placeholder).header.n_samples
        except FramingError:
            return 0

    # ------------------------------------------------- deadline supervision
    def _repairable(self, frame_index: int) -> bool:
        """True when the frame is incomplete in a way a retransmit could fix.

        A frame whose every tile is whole (all samples, or parity rebuilding
        the one missing segment for free) needs no repair; with nothing
        proven missing on the wire there is nothing to NACK.
        """
        if not self._missing:
            return False
        frame = self._frames.get(frame_index)
        if frame is None:
            return True
        return len(frame.tiles) < self._n_tiles or not all(
            chunks.whole for chunks in frame.tiles.values()
        )

    def _queue_nack(self, frame_index: int, now: float) -> None:
        """NACK the current missing set once on behalf of ``frame_index``."""
        sequences = tuple(sorted(self._missing)[:MAX_NACK_SEQUENCES])
        self._outgoing_control.append(NackRequest(frame_index=frame_index, sequences=sequences))
        self._nacked_frames.add(frame_index)
        self._count("n_nacks_sent")
        assert self.nack_grace is not None
        self._deferred[frame_index] = now + self.nack_grace

    def _check_deferred(self, now: float) -> None:
        """Resolve deferred frames that completed or whose grace lapsed."""
        while self._deferred:
            frame_index = min(self._deferred)
            if not self._repairable(frame_index):
                # Repair landed (or parity now covers the hole): settle the
                # frame whole and keep sweeping.
                self._deferred.pop(frame_index)
            elif now >= self._deferred[frame_index]:
                # Grace over — fall back to the partial-Φ salvage.
                self._deferred.pop(frame_index)
                self._count("n_deadline_salvages")
            else:
                return
            self._settle_to(self._settle_frontier)

    async def check_deadlines(self, now: float | None = None) -> None:
        """Fire expired timers (:meth:`tick`) for the hub's reap loop; a tick
        that settled nothing never waits behind another drain."""
        self.tick(self._now() if now is None else now)
        if self._queued:
            await self._drain()

    def tick(self, now: float) -> None:
        """Fire every frame/NACK timer expired at session-clock time ``now``.

        Two timers live here: an incomplete frame whose *first chunk* is
        older than ``frame_deadline`` NACKs once even though its barrier
        never arrived (the stalled-stream case the barrier trigger cannot
        see), and a deferred frame whose grace lapsed settles partial.
        """
        if self.frame_deadline is None or self._ended:
            return
        for frame_index in sorted(self._frames):
            if (
                frame_index not in self._nacked_frames
                and now - self._frames[frame_index].started >= self.frame_deadline
                and self._repairable(frame_index)
            ):
                self._queue_nack(frame_index, now)
        self._check_deferred(now)

    def _flush_deferrals(self) -> None:
        """Cancel every grace window (stream end / EOF): salvage now."""
        self._count("n_deadline_salvages", len(self._deferred))
        self._deferred.clear()

    # ------------------------------------------------------------- chunk fsm
    async def handle_chunk(self, chunk: Chunk) -> None:
        """:meth:`feed` one chunk, then drain (may suspend on backpressure)."""
        self.feed(chunk)
        await self._drain()

    def feed(self, chunk: Chunk) -> None:
        """Advance the FSM by one chunk.

        Every anomaly — a malformed chunk, a sequence gap, a duplicate, a
        chunk after the stream end, a frame that settles incomplete — goes
        through the strictness policy: a strict session raises
        :class:`StreamProtocolError`, a resilient one turns it into
        accounting.  Gaps become tracked losses, duplicates and post-end
        chunks are skipped, reordered chunks are used, and corrupt payloads
        — including an implausible sequence or frame-index jump, the
        signature of a resync decoder latching onto a false magic byte — are
        counted and skipped; only a missing stream header still raises.
        """
        self.last_activity = self._now()
        if not self._advance_sequence(chunk):
            return
        self._count("n_chunks")
        self._count("n_bytes", chunk.n_bytes)
        try:
            self._dispatch_chunk(chunk)
        except StreamProtocolError as error:
            # A chunk that arrived but cannot be used (failed checksum, a
            # truncated payload that swallowed its neighbour, an impossible
            # field) — its data is as lost as a dropped chunk's, but the
            # stream itself keeps flowing.
            self._fault(error, "n_corrupt_chunks")
        if self._deferred:
            # A retransmit may have just completed the deferred head frame
            # (settle it whole) or time may have run out on its grace.
            self._check_deferred(self._now())

    def _advance_sequence(self, chunk: Chunk) -> bool:
        """Run the sequence FSM; returns False when the chunk is skipped."""
        if self._ended:
            self._fault(
                StreamProtocolError(
                    f"{chunk.chunk_type.name} chunk after the stream end"
                ),
                "n_late_chunks",
            )
            return False
        if chunk.sequence == self._next_sequence:
            self._next_sequence += 1
            return True
        self._fault(
            StreamProtocolError(
                f"chunk sequence jumped to {chunk.sequence}, "
                f"expected {self._next_sequence}"
            )
        )
        if chunk.sequence > self._next_sequence:
            gap = chunk.sequence - self._next_sequence
            if gap > self.max_sequence_gap:
                # Not plausible loss but a corrupt sequence field (typically
                # a resync decoder latching onto a false magic byte inside a
                # truncated chunk's spilled payload).  Treating it as loss
                # would fabricate millions of phantom missing chunks, and
                # raising would kill the very salvage resilient mode exists
                # for — so the chunk itself is the casualty: counted corrupt,
                # skipped, and the sequence FSM holds its position.
                self._count("n_corrupt_chunks")
                return False
            # Everything between is now provably lost *unless* it arrives
            # late, in which case the FSM below reclaims it.  Lost chunks is
            # a level (the size of the missing set), booked as deltas.
            self._missing.update(range(self._next_sequence, chunk.sequence))
            self._count("n_lost_chunks", gap)
            self._next_sequence = chunk.sequence + 1
            return True
        if chunk.sequence in self._missing:
            self._missing.discard(chunk.sequence)
            self._count("n_lost_chunks", -1)
            self._count("n_reordered_chunks")
            return True
        self._count("n_duplicate_chunks")
        return False

    def _dispatch_chunk(self, chunk: Chunk) -> None:
        if chunk.chunk_type in CONTROL_CHUNK_TYPES:
            raise StreamProtocolError(
                f"{chunk.chunk_type.name} control chunk on the forward data "
                "path (control flows receiver → node only)"
            )
        if self._header is None and chunk.chunk_type != ChunkType.STREAM_START:
            raise StreamProtocolError(
                f"{chunk.chunk_type.name} chunk before the stream start"
            )
        payload = decode_payload(chunk.chunk_type, chunk.payload)
        if isinstance(payload, StreamHeader):
            if self._header is not None:
                raise StreamProtocolError("duplicate stream-start chunk")
            try:
                self._slots = tile_grid(
                    payload.scene_shape,
                    payload.tile_shape if payload.tiled else payload.scene_shape,
                )
            except ValueError as error:
                raise StreamProtocolError(f"impossible stream geometry: {error}") from error
            self._header = payload
            self._result.header = payload
        elif isinstance(payload, (FrameData, FrameSegment, FrameParity)):
            self._handle_tile_chunk(chunk, payload)
        elif isinstance(payload, FrameComplete):
            if not self._frame_in_window(payload.frame_index):
                return
            # The barrier both finalises its own frame (with the
            # authoritative chunk count) and settles every earlier frame
            # whose own barrier was lost.
            self._expected_frame_chunks = payload.n_chunks
            self._settle_to(payload.frame_index + 1)
        elif isinstance(payload, StreamEnd):
            announced = payload.n_frames
            if not self._plausible(announced):
                return
            # Frames whose barrier (or every chunk) was lost are still
            # outstanding — settle them before sealing the stream.  Any open
            # NACK grace window dies with the stream: the repair can no
            # longer arrive, so deferred frames salvage partial.
            self._flush_deferrals()
            self._settle_to(announced, defer=False)
            self._result.announced_frames = announced
            self._ended = True
        elif isinstance(payload, SessionResume):
            # The resume rides the node's normal forward sequence, so the
            # gap FSM above has already booked everything the cut swallowed
            # as missing — the replay that follows reclaims it.  The chunk
            # itself is pure bookkeeping here; admission (grace window,
            # parked state) is the hub's job before the session ever sees it.
            self._fault(
                StreamProtocolError(
                    "session-resume chunk on a strict session (resume needs "
                    "a resilient receiver)"
                )
            )
            self._count("n_resumes")

    def _handle_tile_chunk(self, chunk: Chunk, part: TilePayload) -> None:
        """Land one tile-carrying chunk, decoded as ``part``, in its frame's grid."""
        assert self._header is not None
        key = (part.grid_row, part.grid_col)
        grid_rows, grid_cols = len(self._slots), len(self._slots[0])
        if not (key[0] < grid_rows and key[1] < grid_cols):
            raise StreamProtocolError(
                f"tile position {key} outside the {grid_rows}x{grid_cols} grid"
            )
        if not self._frame_in_window(part.frame_index):
            return
        tel = active(self.telemetry)
        if tel is not None:
            # Close the frame's transport span: its node-side half began
            # right before the first send.  Over TCP this process never saw
            # that begin, so the end is a documented no-op.
            tel.end_span(self.stream_id, part.frame_index, SPAN_TRANSPORT)
        frame = self._frames.get(part.frame_index)
        if frame is None:
            frame = self._frames[part.frame_index] = _PendingFrame(self._now())
        if not frame.tiles.setdefault(key, _TileChunks()).add(part, chunk.payload):
            self._fault(
                StreamProtocolError(
                    f"duplicate {chunk.chunk_type.name} chunk for tile {key} "
                    f"of frame {part.frame_index}"
                ),
                "n_duplicate_chunks",
            )
            return
        if isinstance(part, FrameData) and not self._header.tiled:
            # An unsegmented single-sensor frame is its own barrier.
            self._expected_frame_chunks = 1
            self._settle_to(part.frame_index + 1)

    # --------------------------------------------------------------- closing
    async def handle_eof(self) -> None:
        """:meth:`seal` a stream whose transport died, then drain."""
        self.seal()
        await self._drain()

    def seal(self) -> None:
        """Seal a stream whose transport died before stream-end.

        A strict session raises (EOF-before-end is a protocol failure); a
        resilient one salvages instead: every outstanding frame settles from
        whatever arrived, and the session ends with ``announced_frames``
        unknown (``None``).
        """
        self._fault(
            StreamProtocolError("transport closed before the stream-end chunk arrived")
        )
        if self._ended:
            return
        self._flush_deferrals()
        self._settle_to(max(self._frames, default=-1) + 1, defer=False)
        self._ended = True

    async def finish(self) -> StreamResult:
        """Settle all in-flight work and return the stream's result.

        Called once :attr:`ended` is true.  A frame still unsettled at the
        stream end (past its announced frame count) is an anomaly for the
        strictness policy.
        """
        if not self._ended:
            raise StreamProtocolError(
                "transport closed before the stream-end chunk arrived"
            )
        if self._frames:
            pending = sorted(self._frames)
            self._frames.clear()
            self._fault(
                StreamProtocolError(f"stream ended with incomplete frames: {pending}")
            )
        await self._drain()  # also waits out another entry point's drain
        for received, future in self._solves:
            received.reconstruction = await future
        self._solves = []
        self._finished = True
        self._result.n_chunks, self._result.n_bytes = self.stats.n_chunks, self.stats.n_bytes
        return self._result

    def cancel(self) -> None:
        """Cancel every in-flight solve (the session is being torn down)."""
        self._queued.clear()
        for _, future in self._solves:
            # Retrieve an already-settled solve's exception so a torn-down
            # session never leaves "exception was never retrieved" noise.
            if not future.cancel() and not future.cancelled():
                future.exception()
