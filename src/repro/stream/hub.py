"""Fleet-scale ingest: one asyncio hub muxing many camera-node streams.

:class:`ReceiverHub` is the many-cameras counterpart of the single-node
:class:`~repro.stream.receiver.StreamReceiver`.  It terminates hundreds of
concurrent node connections (loopback or TCP), demultiplexes chunks by the
stream id **already carried in every chunk header** — the frozen v1 wire
layout needs no extension — and gives each stream its own
:class:`~repro.stream.session.StreamSession` (seed chains, tile barriers,
frame solves), so fleet ingest is the same FSM as single-node
ingest, just many of it.

Two hub-level policies sit on top of the sessions:

* **Fair solve scheduling** (:class:`FairSolveScheduler`) — every
  CPU-bound reconstruction the sessions produce goes through one scheduler
  that keeps a FIFO queue *per stream* and dispatches round-robin across
  streams onto a bounded pool of executor slots.  A chatty camera with
  fifty frames queued gets exactly one solve per scheduling cycle, the same
  as a camera with one frame queued — it cannot starve the rest of the
  fleet (the recorded :attr:`~FairSolveScheduler.dispatch_order` lets tests
  pin this).
* **Two-level backpressure high-watermarks** — ``per_stream_pending``
  bounds one stream's queued-plus-running solves, ``max_pending`` bounds
  the hub-wide total.  A full watermark suspends the *submitting* stream's
  connection coroutine, which (through the transport's own bounded
  buffering) stalls that camera's capture loop — while every other
  connection keeps draining.  Nothing in the hub buffers unboundedly.

A hub serving a single node is **byte-identical** to ``StreamReceiver`` (a
pinned test), which is the invariant that makes the fleet path trustworthy.
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import Executor
from dataclasses import dataclass, field
from collections.abc import Callable
from typing import Any

from repro.recon.pipeline import PROXIMAL_SOLVERS
from repro.stream.protocol import (
    ChunkDecoder,
    ChunkType,
    StreamProtocolError,
    encode_chunk,
    payload_chunk,
)
from repro.stream.session import (
    STATS_SERIES,
    STATS_WINDOW,
    SessionStats,
    StreamResult,
    StreamSession,
    frame_latency_instruments,
    stats_instrument,
)
from repro.stream.transport import (
    TcpTransport,
    Transport,
    TransportClosedError,
    serve_tcp,
)
from repro.telemetry import (
    Counter,
    Gauge,
    MetricsSnapshot,
    Telemetry,
)
from repro.telemetry import (
    serve_metrics as _serve_metrics,
)
from repro.telemetry.registry import latency_quantile_gauges
from repro.utils.memory import release_freed_memory
from repro.utils.validation import check_choice, check_positive


def _keep_recent(entries: list[Any], entry: Any) -> None:
    """Append ``entry``, keeping only the last ``STATS_WINDOW`` entries."""
    entries.append(entry)
    del entries[:-STATS_WINDOW]


class DuplicateStreamIdError(StreamProtocolError):
    """A connection announced a stream id already live on another connection.

    Stream ids are the demux key: two live streams with one id would
    interleave into a single session's FSM and corrupt both.  The id
    becomes reusable again the moment its stream completes (or its
    connection dies), so fleets may recycle ids across sessions — just not
    concurrently.
    """


class HubCapacityError(StreamProtocolError):
    """The hub's ``max_streams`` bound is reached; the new stream is refused.

    Refusing loudly at admission beats degrading every existing stream:
    the rejected node sees a clean typed error while the fleet already
    being served is unaffected.
    """


class SessionResumeError(StreamProtocolError):
    """A ``SESSION_RESUME`` could not be admitted.

    Either no session is parked under the stream id (the node was never
    connected here, or a reap already salvaged it) or the resume arrived
    after the grace window lapsed — in which case the parked state settles
    partial on the spot, exactly as the reap would have.
    """


class HubPortInUseError(OSError):
    """The hub could not bind its listening (or metrics) port.

    Subclasses ``OSError`` so a node-side
    :class:`~repro.stream.node.ReconnectSupervisor` — whose default
    ``retryable`` set is ``(OSError,)`` — treats a hub that is still
    restarting as a transient, retryable condition.
    """


@dataclass
class _ParkedSession:
    """Disconnected session state awaiting a reconnect-with-resume.

    Holds everything a resumed stream needs to reconstruct byte-identically:
    the live :class:`StreamSession` (seed chains, assemblies, sequence FSM —
    untouched), plus the park time the grace window is measured from.
    """

    session: StreamSession
    parked_at: float


@dataclass
class _Job:
    """One queued unit of solver work: the thunk and its result future."""

    fn: Callable[[], Any]
    future: asyncio.Future[Any]


class FairSolveScheduler:
    """Round-robin solve dispatch across streams with two-level watermarks.

    Parameters
    ----------
    slots:
        Worker coroutines executing jobs (each runs its job on the
        executor via ``run_in_executor``).  This bounds hub-wide solver
        parallelism regardless of how many streams are connected.
    per_stream_pending:
        High-watermark on one stream's queued-plus-running jobs; ``None``
        is unbounded.  :meth:`submit` suspends the submitting stream past
        the bound — per-stream backpressure.
    max_pending:
        High-watermark on the hub-wide queued-plus-running total; ``None``
        is unbounded — global backpressure.
    executor:
        ``concurrent.futures`` executor the jobs run on; ``None`` uses the
        event loop's default thread pool.
    """

    def __init__(
        self,
        *,
        slots: int = 2,
        per_stream_pending: int | None = 2,
        max_pending: int | None = None,
        executor: Executor | None = None,
    ) -> None:
        check_positive("slots", slots)
        if per_stream_pending is not None:
            check_positive("per_stream_pending", per_stream_pending)
        if max_pending is not None:
            check_positive("max_pending", max_pending)
        self.slots = int(slots)
        self.per_stream_pending = (
            None if per_stream_pending is None else int(per_stream_pending)
        )
        self.max_pending = None if max_pending is None else int(max_pending)
        self.executor = executor
        # All scheduler state is guarded by one condition, created lazily so
        # the scheduler can be constructed outside a running event loop.
        self._cond: asyncio.Condition | None = None
        self._queues: dict[int, deque[_Job]] = {}
        self._order: deque[int] = deque()
        self._pending: dict[int, int] = {}
        self._total_pending = 0
        self._workers: list[asyncio.Task[None]] = []
        self._closed = False
        #: Stream key of the last ``STATS_WINDOW`` dispatches, in dispatch
        #: order — the fairness audit trail the tests assert round-robin
        #: interleaving on (``n_dispatched`` stays the exact total).
        self.dispatch_order: deque[int] = deque(maxlen=STATS_WINDOW)
        self.n_dispatched = 0

    def _condition(self) -> asyncio.Condition:
        if self._cond is None:
            self._cond = asyncio.Condition()
        return self._cond

    def pending(self, key: int | None = None) -> int:
        """Queued-plus-running jobs for one stream (or hub-wide total)."""
        if key is None:
            return self._total_pending
        return self._pending.get(key, 0)

    def _has_space(self, key: int) -> bool:
        if (
            self.per_stream_pending is not None
            and self._pending.get(key, 0) >= self.per_stream_pending
        ):
            return False
        return self.max_pending is None or self._total_pending < self.max_pending

    async def submit(self, key: int, fn: Callable[[], Any]) -> asyncio.Future[Any]:
        """Queue ``fn`` under ``key``; suspends while a watermark is full."""
        if self._closed:
            raise RuntimeError("solve scheduler is closed")
        cond = self._condition()
        if not self._workers:
            self._workers = [
                asyncio.ensure_future(self._worker()) for _ in range(self.slots)
            ]
        future: asyncio.Future[Any] = asyncio.get_running_loop().create_future()
        async with cond:
            while not self._has_space(key):
                await cond.wait()
                if self._closed:
                    raise RuntimeError("solve scheduler is closed")
            queue = self._queues.get(key)
            if queue is None:
                queue = self._queues[key] = deque()
                self._order.append(key)
            queue.append(_Job(fn=fn, future=future))
            self._pending[key] = self._pending.get(key, 0) + 1
            self._total_pending += 1
            cond.notify_all()
        return future

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        cond = self._condition()
        while True:
            async with cond:
                while not self._order:
                    await cond.wait()
                key = self._order.popleft()
                queue = self._queues[key]
                job = queue.popleft()
                if queue:
                    # Re-queue the key at the *back*: the next dispatch goes
                    # to some other stream first — round-robin fairness.
                    self._order.append(key)
                else:
                    del self._queues[key]
                self.dispatch_order.append(key)
                self.n_dispatched += 1
            try:
                if job.future.cancelled():
                    continue
                try:
                    result = await loop.run_in_executor(self.executor, job.fn)
                except asyncio.CancelledError:
                    job.future.cancel()
                    raise
                except BaseException as error:
                    if not job.future.cancelled():
                        job.future.set_exception(error)
                else:
                    if not job.future.cancelled():
                        job.future.set_result(result)
            finally:
                async with cond:
                    self._pending[key] -= 1
                    if not self._pending[key]:
                        del self._pending[key]
                    self._total_pending -= 1
                    cond.notify_all()

    async def close(self) -> None:
        """Cancel the workers and fail any still-queued jobs (idempotent)."""
        self._closed = True
        workers, self._workers = self._workers, []
        for worker in workers:
            worker.cancel()
        if workers:
            await asyncio.gather(*workers, return_exceptions=True)
        for queue in self._queues.values():
            for job in queue:
                job.future.cancel()
        self._queues.clear()
        self._order.clear()
        self._pending.clear()
        self._total_pending = 0
        if self._cond is not None:
            async with self._cond:
                self._cond.notify_all()


@dataclass
class HubStats:
    """Fleet-level snapshot assembled by :meth:`ReceiverHub.stats`.

    A view of the registry counters the sessions and the hub bump at each
    event, so a field totals every session the hub's facade served.  The
    loss counters aggregate the per-session loss accounting (see
    :class:`~repro.stream.session.SessionStats`); they stay zero on strict
    hubs.  ``frame_latencies`` holds the last ``STATS_WINDOW`` frames.
    """

    n_active: int = 0
    n_completed: int = 0
    n_failed: int = 0
    n_frames: int = 0
    n_bytes: int = 0
    solves_dispatched: int = 0
    frame_latencies: list[float] = field(default_factory=list)
    n_lost_chunks: int = 0
    n_reordered_chunks: int = 0
    n_duplicate_chunks: int = 0
    n_corrupt_chunks: int = 0
    n_recovered_chunks: int = 0
    n_late_chunks: int = 0
    n_partial_frames: int = 0
    n_dropped_frames: int = 0
    # ---- session-durability counters (PR 10) ----
    #: NACK repair requests the sessions queued down the feedback path.
    n_nacks_sent: int = 0
    #: Deferred frames that settled partial after their NACK grace lapsed.
    n_deadline_salvages: int = 0
    #: ``SESSION_RESUME`` chunks the sessions absorbed.
    n_resumes: int = 0
    #: Sessions parked on disconnect awaiting resume.
    n_parked: int = 0
    #: Parked sessions successfully re-admitted.
    n_resumed: int = 0
    #: Resumes refused (and parked state salvaged) past the grace window.
    n_resume_expired: int = 0
    #: Sessions the reap loop settled (grace expiry + idle timeout).
    n_reaped: int = 0
    #: Graceful drains completed.
    n_drained: int = 0
    #: Sessions currently parked awaiting resume.
    n_parked_now: int = 0


#: The hub's own event counters: :class:`HubStats` field -> (series, help).
_HUB_SERIES: dict[str, tuple[str, str]] = {
    "n_completed": ("repro_hub_streams_completed_total", "Streams that finished cleanly."),
    "n_failed": ("repro_hub_streams_failed_total", "Connections torn down by an error."),
    "n_parked": ("repro_hub_sessions_parked_total",
                 "Sessions parked on disconnect awaiting resume."),
    "n_resumed": ("repro_hub_sessions_resumed_total", "Parked sessions successfully re-admitted."),
    "n_resume_expired": ("repro_hub_resumes_expired_total",
                         "Resumes refused past the grace window."),
    "n_reaped": ("repro_hub_sessions_reaped_total", "Sessions the reap loop settled."),
    "n_drained": ("repro_hub_drains_total", "Graceful drains completed."),
}


class ReceiverHub:
    """One asyncio service ingesting many camera-node streams concurrently.

    Parameters
    ----------
    reconstruct, dictionary, solver, regularization, max_iterations:
        Per-session reconstruction options, exactly as on
        :class:`~repro.stream.receiver.StreamReceiver`; every session the
        hub opens gets the same configuration.  ``solver`` must be one of
        the proximal family (``fista``/``ista``); any other name raises
        ``ValueError`` here, before a stream arrives.
    executor:
        ``concurrent.futures`` executor for solver work; ``None`` uses the
        event loop's default thread pool.
    solver_slots, per_stream_pending, max_pending:
        :class:`FairSolveScheduler` sizing — concurrent solver slots, the
        per-stream pending high-watermark, the hub-wide one.
    max_streams:
        Bound on concurrently-live sessions; admission past it raises
        :class:`HubCapacityError` on the offending connection.  ``None``
        is unbounded.
    resilient:
        Serve lossy channels: sessions run the loss-tolerant FSM (see
        :class:`~repro.stream.session.StreamSession`), the chunk decoder
        resynchronises over corrupt framing instead of raising, and a
        transport dying before its stream-end chunk salvages every frame
        already in flight rather than failing the connection.
    feedback:
        Ship each session's queued control chunks (delivery ACKs, rate
        advice and — with ``frame_deadline`` set — NACK repair requests)
        back down the connection's transport — the receiver half of the
        closed loop.  Requires a duplex transport (TCP, or
        :func:`~repro.stream.transport.loopback_duplex_pair`); never enable
        it on a plain single-queue loopback, whose "backward" path is the
        forward queue itself.
    resume_grace:
        Seconds a disconnected (resilient) session's state stays parked
        awaiting a node's ``SESSION_RESUME`` before :meth:`reap` salvages
        it.  ``None`` (default) disables parking: a dead connection
        salvages immediately, exactly as before.
    idle_timeout:
        Seconds of wire silence after which :meth:`reap` seals a live
        resilient session (salvaging its in-flight frames) — the stalled
        node never holds hub state forever.  ``None`` disables reaping.
    frame_deadline, nack_grace:
        Per-session reassembly deadlines — see
        :class:`~repro.stream.session.StreamSession`.  Setting
        ``frame_deadline`` turns on NACK-driven selective repeat.
    max_sequence_gap:
        Per-session resync-plausibility window override (defaults to
        :data:`StreamSession.MAX_SEQUENCE_GAP
        <repro.stream.session.StreamSession.MAX_SEQUENCE_GAP>`).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` shared by every session
        the hub opens: frame traces and stage histograms accumulate there,
        and every stats event is counted into its registry, which
        :meth:`stats` and :meth:`metrics` read.  One facade serves one hub.
        ``None`` (the default) gives the hub its own
        ``Telemetry(enabled=False)``: no tracing, the same counters.
    """

    def __init__(
        self,
        *,
        reconstruct: bool = True,
        dictionary: str = "dct",
        solver: str = "fista",
        regularization: float | None = None,
        max_iterations: int | None = None,
        executor: Executor | None = None,
        solver_slots: int = 2,
        per_stream_pending: int | None = 2,
        max_pending: int | None = None,
        max_streams: int | None = None,
        resilient: bool = False,
        feedback: bool = False,
        resume_grace: float | None = None,
        idle_timeout: float | None = None,
        frame_deadline: float | None = None,
        nack_grace: float | None = None,
        max_sequence_gap: int | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        check_choice("solver", solver, PROXIMAL_SOLVERS)
        if max_streams is not None:
            check_positive("max_streams", max_streams)
        if resume_grace is not None:
            check_positive("resume_grace", resume_grace)
        if idle_timeout is not None:
            check_positive("idle_timeout", idle_timeout)
        self.resilient = bool(resilient)
        self.feedback = bool(feedback)
        self.resume_grace = resume_grace
        self.idle_timeout = idle_timeout
        self.telemetry = telemetry if telemetry is not None else Telemetry(enabled=False)
        self.max_streams = None if max_streams is None else int(max_streams)
        self.scheduler = FairSolveScheduler(
            slots=solver_slots,
            per_stream_pending=per_stream_pending,
            max_pending=max_pending,
            executor=executor,
        )
        self._session_options: dict[str, Any] = dict(
            reconstruct=reconstruct,
            dictionary=dictionary,
            solver=solver,
            regularization=regularization,
            max_iterations=max_iterations,
            resilient=self.resilient,
            emit_feedback=self.feedback,
            max_sequence_gap=max_sequence_gap,
            frame_deadline=frame_deadline,
            nack_grace=nack_grace,
            telemetry=self.telemetry,
        )
        # What stats() reads, by HubStats field: every session's hub-wide
        # series (bound here too, so a fresh hub exports zeros) and its own.
        registry = self.telemetry.registry
        self._counters: dict[str, Counter | Gauge] = {
            name: stats_instrument(registry, series, help_text)
            for name, (series, help_text, _, _) in STATS_SERIES.items()
            if series is not None
        }
        for name, (series, help_text) in _HUB_SERIES.items():
            self._counters[name] = registry.counter(series, help=help_text)
        _, self._latencies = frame_latency_instruments(registry)
        registry.register_collector(self._collect_metrics)
        # Live sessions hub-wide, keyed by stream id — the duplicate /
        # capacity admission registry.  Ids leave it at stream completion
        # (or connection death), so they are reusable sequentially.
        self._active: dict[int, StreamSession] = {}
        #: Disconnected session state awaiting resume, by stream id.  A
        #: parked id is still owned (``_open_session`` refuses it) but not
        #: active (it holds no connection).
        self._parked: dict[int, _ParkedSession] = {}
        #: Latest per-stream-id stats (live and finished) — what an
        #: operator polls while streams run; see docs/OPERATIONS.md.
        self.session_stats: dict[int, SessionStats] = {}
        #: Results of the last ``STATS_WINDOW`` cleanly-finished streams, in
        #: completion order (``n_completed`` counts them all).
        self.completed: list[StreamResult] = []
        #: Errors of the last ``STATS_WINDOW`` failed connections, in failure
        #: order (each failure tears down only that connection's sessions;
        #: ``n_failed`` counts them all).
        self.failures: list[BaseException] = []
        self._servers: list[asyncio.AbstractServer] = []
        self._connections: set[asyncio.Task[Any]] = set()
        #: Bound port of the scrape endpoint once :meth:`serve_metrics` (or
        #: ``serve(metrics_port=...)``) has started it.
        self.metrics_port: int | None = None

    # ------------------------------------------------------------ admission
    @property
    def n_active(self) -> int:
        """Sessions currently live across all connections."""
        return len(self._active)

    def _open_session(self, stream_id: int) -> StreamSession:
        if stream_id in self._active:
            raise DuplicateStreamIdError(
                f"stream id {stream_id} is already active on another connection"
            )
        if stream_id in self._parked:
            raise DuplicateStreamIdError(
                f"stream id {stream_id} is parked awaiting resume; a fresh "
                "stream cannot claim it until the grace window lapses"
            )
        if self.max_streams is not None and len(self._active) >= self.max_streams:
            raise HubCapacityError(
                f"hub is at its max_streams bound of {self.max_streams}; "
                f"stream id {stream_id} refused"
            )
        session = StreamSession(stream_id, self.scheduler, **self._session_options)
        self._active[stream_id] = session
        self.session_stats[stream_id] = session.stats
        return session

    def _release_session(self, session: StreamSession) -> None:
        if self._active.get(session.stream_id) is session:
            del self._active[session.stream_id]

    def _park_session(self, session: StreamSession) -> None:
        """Park a live session's state for the resume grace window."""
        self._release_session(session)
        self._parked[session.stream_id] = _ParkedSession(
            session=session, parked_at=self.telemetry.clock.now()
        )
        self._counters["n_parked"].inc()

    async def _resume_session(self, stream_id: int) -> StreamSession:
        """Admit a ``SESSION_RESUME``: un-park the stream id's session."""
        parked = self._parked.pop(stream_id, None)
        if parked is None:
            raise SessionResumeError(
                f"no parked session for stream id {stream_id} "
                "(never parked here, or already reaped)"
            )
        if (
            self.resume_grace is not None
            and self.telemetry.clock.now() - parked.parked_at > self.resume_grace
        ):
            # Too late: settle the parked state partial (exactly what the
            # reap would have done) and refuse the resume.
            self._counters["n_resume_expired"].inc()
            await self._salvage_session(parked.session)
            raise SessionResumeError(
                f"resume for stream id {stream_id} arrived after the "
                f"{self.resume_grace}s grace window"
            )
        self._active[stream_id] = parked.session
        self._counters["n_resumed"].inc()
        return parked.session

    async def _settle(self, session: StreamSession) -> StreamResult:
        """Finish an ended session, free its id and record its result."""
        result = await session.finish()
        self._release_session(session)
        _keep_recent(self.completed, result)
        self._counters["n_completed"].inc()
        return result

    async def _salvage_session(self, session: StreamSession) -> StreamResult:
        """Seal a session from whatever arrived and record its result."""
        await session.handle_eof()
        return await self._settle(session)

    # ----------------------------------------------------------- connections
    async def attach(
        self, transport: Transport, *, expected_streams: int | None = None
    ) -> list[StreamResult]:
        """Serve one node connection until end-of-stream; return its streams.

        Chunks are demuxed by their stream id: one connection may carry any
        number of (concurrent or sequential) streams, each landing in its
        own session.  With ``expected_streams`` set, the call returns as
        soon as that many streams completed — without waiting for the
        connection's EOF (how the single-node ``StreamReceiver`` preserves
        its historical semantics); otherwise it serves until EOF.

        A protocol error (or the transport dying mid-stream) cancels only
        *this connection's* unfinished sessions, records the error in
        :attr:`failures` and re-raises — every other connection keeps
        flowing; their sessions never observe the failure.  A resilient hub
        instead resynchronises over corrupt framing, ships session feedback
        back down the transport (``feedback=True``), and salvages the
        in-flight frames of a connection that dies before its stream-end.
        """
        decoder = ChunkDecoder(resync=self.resilient)
        # The connection's own id → session map, *including* ended sessions:
        # a late chunk for a finished stream must hit that session's "after
        # the stream end" error, not open a fresh session.
        sessions: dict[int, StreamSession] = {}
        finished: list[StreamResult] = []
        # The receiver→node control path: its own sequence numbering, torn
        # down (without failing ingest) the moment the back channel breaks.
        feedback_sequence = 0
        feedback_open = self.feedback

        async def ship_feedback(session: StreamSession) -> None:
            nonlocal feedback_sequence, feedback_open
            for payload in session.take_outgoing_control():
                if not feedback_open:
                    return
                try:
                    control = payload_chunk(payload, session.stream_id, feedback_sequence)
                except StreamProtocolError:
                    # Feedback built from corrupt input may not encode: drop
                    # that one payload, the stream itself is unharmed.
                    continue
                try:
                    await transport.send(encode_chunk(control))
                except (TransportClosedError, ConnectionError, OSError):
                    # Feedback is advisory: a node that stopped listening
                    # degrades the loop to open-loop, never kills ingest.
                    feedback_open = False
                    return
                feedback_sequence += 1

        try:
            while expected_streams is None or len(finished) < expected_streams:
                data = await transport.recv()
                if data is None:
                    break
                for chunk in decoder.feed(data):
                    session = sessions.get(chunk.stream_id)
                    if session is None:
                        if chunk.chunk_type is ChunkType.SESSION_RESUME:
                            # A node re-attaching a stream this connection
                            # has never seen: admit it from the parked set
                            # (state intact — seed chains, sequence FSM).
                            session = await self._resume_session(chunk.stream_id)
                        else:
                            session = self._open_session(chunk.stream_id)
                        sessions[chunk.stream_id] = session
                    await session.handle_chunk(chunk)
                    if session.ended:
                        # The node stops reading feedback once its stream
                        # end is out: shipping more could only block ingest.
                        session.take_outgoing_control()
                    elif feedback_open:
                        await ship_feedback(session)
                    if session.ended and not session.finished:
                        finished.append(await self._settle(session))
            unfinished = [s for s in sessions.values() if not s.ended]
            if self.resilient:
                for session in unfinished:
                    if self.resume_grace is not None:
                        # A dead connection is not yet a dead stream: park
                        # the state and give the node the grace window to
                        # reconnect-and-resume before anything settles.
                        self._park_session(session)
                    else:
                        # Salvage: seal and settle streams the EOF cut short.
                        finished.append(await self._salvage_session(session))
            elif unfinished or (
                expected_streams is not None and len(finished) < expected_streams
            ):
                raise StreamProtocolError(
                    "transport closed before the stream-end chunk arrived"
                )
            if decoder.pending_bytes and not self.resilient:
                raise StreamProtocolError(
                    f"{decoder.pending_bytes} trailing bytes after the stream end"
                )
            return finished
        except BaseException as error:
            for session in sessions.values():
                if not session.ended:
                    session.cancel()
                self._release_session(session)
            _keep_recent(self.failures, error)
            self._counters["n_failed"].inc()
            raise

    async def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        metrics_port: int | None = None,
    ) -> tuple[asyncio.AbstractServer, int]:
        """Accept TCP node connections, each served by :meth:`attach`.

        Returns the server and its bound port (``port=0`` lets the OS
        pick).  Per-connection failures are recorded in :attr:`failures`
        and close that connection only; the server keeps accepting.
        ``metrics_port`` additionally starts the HTTP scrape endpoint of
        :meth:`serve_metrics` on that port (``0`` = OS-assigned; the bound
        port lands in :attr:`metrics_port`).
        """

        async def handle(transport: TcpTransport) -> None:
            task = asyncio.current_task()
            if task is not None:
                self._connections.add(task)
            try:
                await self.attach(transport)
            except asyncio.CancelledError:
                raise
            except BaseException:
                # Already recorded in self.failures by attach(); the
                # connection dies, the hub keeps serving the rest.
                pass
            finally:
                if task is not None:
                    self._connections.discard(task)
                await transport.close()

        try:
            server, bound_port = await serve_tcp(handle, host=host, port=port)
        except OSError as error:
            raise HubPortInUseError(
                f"hub cannot bind {host}:{port}: {error}"
            ) from error
        self._servers.append(server)
        if metrics_port is not None:
            await self.serve_metrics(host=host, port=metrics_port)
        return server, bound_port

    async def serve_metrics(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[asyncio.AbstractServer, int]:
        """Serve :meth:`metrics` over HTTP; returns ``(server, bound_port)``.

        ``GET /metrics`` answers the Prometheus text exposition,
        ``GET /metrics.json`` the JSON dump — each scrape collects a fresh
        snapshot.  The server is torn down with the hub's :meth:`close`.
        """
        try:
            server, bound_port = await _serve_metrics(
                self.metrics, host=host, port=port
            )
        except OSError as error:
            raise HubPortInUseError(
                f"hub cannot bind its metrics endpoint on {host}:{port}: {error}"
            ) from error
        self._servers.append(server)
        self.metrics_port = bound_port
        return server, bound_port

    # ------------------------------------------------------------ durability
    async def reap(self, now: float | None = None) -> None:
        """Fire the hub's timers (call it from a periodic supervisor loop).

        Three sweeps, all measured on the hub clock (deterministic under a
        :class:`~repro.telemetry.ManualClock`):

        * parked sessions whose resume grace lapsed settle partial;
        * live resilient sessions silent past ``idle_timeout`` are sealed
          and settled — a stalled node stops holding hub state;
        * every live session's frame/NACK deadlines are checked
          (:meth:`StreamSession.check_deadlines
          <repro.stream.session.StreamSession.check_deadlines>`).
        """
        if now is None:
            now = self.telemetry.clock.now()
        if self.resume_grace is not None:
            for stream_id in list(self._parked):
                parked = self._parked[stream_id]
                if now - parked.parked_at > self.resume_grace:
                    del self._parked[stream_id]
                    self._counters["n_resume_expired"].inc()
                    self._counters["n_reaped"].inc()
                    await self._salvage_session(parked.session)
        if self.idle_timeout is not None:
            for session in list(self._active.values()):
                if (
                    session.resilient
                    and not session.ended
                    and now - session.last_activity > self.idle_timeout
                ):
                    self._counters["n_reaped"].inc()
                    await self._salvage_session(session)
        for session in list(self._active.values()):
            await session.check_deadlines(now)

    async def drain(self) -> None:
        """Graceful shutdown flush: park nothing, finish everything.

        Settles every parked session from whatever already arrived (their
        nodes get no further grace — the hub is going away) and then waits
        for every in-flight TCP connection handler to finish, so in-flight
        frames land before :meth:`close` tears the solver down.
        """
        for stream_id in list(self._parked):
            parked = self._parked.pop(stream_id)
            await self._salvage_session(parked.session)
        while self._connections:
            await asyncio.gather(*list(self._connections), return_exceptions=True)
        self._counters["n_drained"].inc()

    async def close(self) -> None:
        """Stop serving: close servers, drain connections, stop the scheduler.

        Then the heap the solves freed goes back to the operating system
        (:func:`~repro.utils.memory.release_freed_memory`), so a process that
        runs hub after hub does not keep each earlier hub's solver working
        set resident.
        """
        servers, self._servers = self._servers, []
        for server in servers:
            server.close()
            await server.wait_closed()
        await self.drain()
        await self.scheduler.close()
        release_freed_memory()

    # ---------------------------------------------------------------- stats
    def stats(self) -> HubStats:
        """Fleet snapshot read off the registry counters: O(series + window),
        however many sessions and frames the hub has served."""
        counts = {name: int(counter.value) for name, counter in self._counters.items()}
        return HubStats(
            n_active=len(self._active),
            solves_dispatched=self.scheduler.n_dispatched,
            frame_latencies=list(self._latencies.values),
            n_parked_now=len(self._parked),
            **counts,
        )

    def _collect_metrics(self) -> None:
        """Set, at every ``registry.collect()``, what no event counts: the
        levels, and the total the solve scheduler keeps itself."""
        registry = self.telemetry.registry
        registry.gauge(
            "repro_hub_streams_active", help="Sessions currently live."
        ).set(len(self._active))
        registry.gauge(
            "repro_hub_sessions_parked",
            help="Sessions currently parked awaiting resume.",
        ).set(len(self._parked))
        registry.counter(
            "repro_hub_solves_dispatched_total",
            help="Solver jobs the fair scheduler dispatched.",
        ).set_total(self.scheduler.n_dispatched)
        latency_quantile_gauges(
            registry,
            "repro_hub_frame_latency_quantile_seconds",
            self._latencies.sorted,
            help="Exact frame-latency percentiles over the raw series.",
        )

    def metrics(self) -> MetricsSnapshot:
        """Typed snapshot of the hub's metrics (collectors run first); render
        it with :meth:`~repro.telemetry.MetricsSnapshot.render_prometheus` or
        :meth:`~repro.telemetry.MetricsSnapshot.to_json`."""
        return self.telemetry.registry.collect()
