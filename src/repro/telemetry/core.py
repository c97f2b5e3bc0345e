"""The ``Telemetry`` facade: one object wiring clock + registry + tracer.

Instrumented code takes ``telemetry: Telemetry | None = None`` and guards
every touch with ``if telemetry is not None`` — ``None`` (the default) is
the zero-cost path, a single identity check that the telemetry benchmark
pins below 2% overhead.  A constructed-but-disabled facade
(``Telemetry(enabled=False)``) additionally turns every recording method
into an early return, so a fleet can keep one wired object and flip
instrumentation without re-plumbing.

One facade spans one pipeline: pass the *same* object to the nodes and the
hub of a loopback fleet so the node-side halves of a frame trace (capture,
encode, transport-begin) join the hub-side halves (transport-end, decode,
queue-wait, solve) on one clock.
"""

from __future__ import annotations

from repro.telemetry.clock import MONOTONIC_CLOCK, Clock
from repro.telemetry.profile import SolverProfile
from repro.telemetry.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.telemetry.trace import FrameTracer

__all__ = ["STAGE_SECONDS", "Telemetry", "active"]

#: Histogram fed by every completed trace span, labelled ``{stage=...}``.
STAGE_SECONDS = "repro_stage_seconds"


class Telemetry:
    """Clock, metrics registry and frame tracer behind one enable switch.

    Parameters
    ----------
    enabled:
        ``False`` turns every recording method into an early return.
    clock:
        The clock every span reads (the process monotonic clock by default).
    tracer:
        A frame tracer to share; one on ``clock`` keeping
        ``max_trace_frames`` frames is built when omitted.

    The facade builds its own :class:`MetricsRegistry` as ``registry``.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        clock: Clock | None = None,
        tracer: FrameTracer | None = None,
        max_trace_frames: int = 1024,
    ) -> None:
        self.enabled = enabled
        self.clock: Clock = clock if clock is not None else MONOTONIC_CLOCK
        self.registry = MetricsRegistry()
        self.tracer = (
            tracer
            if tracer is not None
            else FrameTracer(clock=self.clock, max_frames=max_trace_frames)
        )
        self._stage_histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------ span seam
    def _stage_histogram(self, stage: str) -> Histogram:
        histogram = self._stage_histograms.get(stage)
        if histogram is None:
            histogram = self.registry.histogram(
                STAGE_SECONDS,
                bounds=DEFAULT_LATENCY_BUCKETS,
                labels={"stage": stage},
                help="Seconds each frame spent in a pipeline stage.",
            )
            self._stage_histograms[stage] = histogram
        return histogram

    def begin_span(self, stream_id: int, frame_index: int, stage: str) -> None:
        """Open stage ``stage`` for a frame (no-op while disabled)."""
        if not self.enabled:
            return
        self.tracer.begin(stream_id, frame_index, stage)

    def end_span(self, stream_id: int, frame_index: int, stage: str) -> None:
        """Close a stage and feed its duration to the stage histogram.

        Ending a span whose begin this process never saw (the TCP transport
        half) is a silent no-op — nothing is observed.
        """
        if not self.enabled:
            return
        duration = self.tracer.end(stream_id, frame_index, stage)
        if duration is not None:
            self._stage_histogram(stage).observe(duration)

    def add_span(
        self, stream_id: int, frame_index: int, stage: str, start: float, end: float
    ) -> None:
        """Record an externally measured stage interval (e.g. per-GOP capture)."""
        if not self.enabled:
            return
        duration = self.tracer.add_span(stream_id, frame_index, stage, start, end)
        if duration is not None:
            self._stage_histogram(stage).observe(duration)

    # -------------------------------------------------------- profiling seam
    def solver_profile(self) -> SolverProfile | None:
        """A fresh profile when enabled, else ``None`` (solvers skip all work)."""
        return SolverProfile() if self.enabled else None

    # ------------------------------------------------------------- snapshots
    def metrics(self) -> MetricsSnapshot:
        """Collect the registry right now (collectors run first)."""
        return self.registry.collect()


def active(telemetry: Telemetry | None) -> Telemetry | None:
    """``telemetry`` when it is present *and* enabled, else ``None``.

    Collapses the two-level guard at instrumentation sites to one truthy
    check::

        tel = active(self._telemetry)
        if tel is not None:
            tel.begin_span(stream_id, frame_index, SPAN_DECODE)
    """
    if telemetry is not None and telemetry.enabled:
        return telemetry
    return None
