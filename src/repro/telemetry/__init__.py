"""Unified telemetry: metrics registry, frame-lifecycle traces, profiles.

Dependency-free (pure stdlib — no numpy) so it can be imported, scraped and
tested anywhere the library runs.  Three pieces behind one
:class:`Telemetry` facade:

* :mod:`~repro.telemetry.registry` — counters / gauges / fixed-bucket
  histograms with Prometheus-text and JSON renderers;
* :mod:`~repro.telemetry.trace` — per-frame spans across
  capture → encode → transport → decode → queue-wait → solve;
* :mod:`~repro.telemetry.profile` — opt-in per-iteration solver profiles.

The package contract, pinned by tests and benchmarks: **zero-cost when
disabled** (``telemetry=None`` everywhere by default) and **bit-neutral
when enabled** (instrumentation records times and counts only — it never
touches data or RNG, so every reconstructed byte is identical either way).
"""

from repro.telemetry.clock import MONOTONIC_CLOCK, Clock, ManualClock, MonotonicClock
from repro.telemetry.core import STAGE_SECONDS, Telemetry, active
from repro.telemetry.profile import SolverProfile
from repro.telemetry.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricSample,
    MetricsRegistry,
    MetricsSnapshot,
    Window,
    parse_prometheus,
)
from repro.telemetry.scrape import serve_metrics
from repro.telemetry.stats import SUMMARY_QUANTILES, percentile, quantile_summary
from repro.telemetry.trace import (
    SPAN_CAPTURE,
    SPAN_DECODE,
    SPAN_ENCODE,
    SPAN_QUEUE_WAIT,
    SPAN_SOLVE,
    SPAN_TRANSPORT,
    STAGES,
    FrameTrace,
    FrameTracer,
    Span,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "MONOTONIC_CLOCK",
    "SPAN_CAPTURE",
    "SPAN_DECODE",
    "SPAN_ENCODE",
    "SPAN_QUEUE_WAIT",
    "SPAN_SOLVE",
    "SPAN_TRANSPORT",
    "STAGES",
    "STAGE_SECONDS",
    "SUMMARY_QUANTILES",
    "Clock",
    "Counter",
    "FrameTrace",
    "FrameTracer",
    "Gauge",
    "Histogram",
    "ManualClock",
    "MetricSample",
    "MetricsRegistry",
    "MetricsSnapshot",
    "MonotonicClock",
    "SolverProfile",
    "Span",
    "Telemetry",
    "Window",
    "active",
    "parse_prometheus",
    "percentile",
    "quantile_summary",
    "serve_metrics",
]
