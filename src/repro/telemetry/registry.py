"""A dependency-free metrics registry: counters, gauges, histograms.

Design constraints, in order:

* **stdlib only** — the registry must be importable (and scrape-able) in any
  environment the library runs in, including the invariant linter's
  zero-dependency CI job;
* **deterministic** — no clocks, no threads of its own; every number in a
  snapshot is either counted by instrumented code where its event happens
  (a stream session bumps the hub's counters as each chunk lands) or set by
  a registered collector at :meth:`MetricsRegistry.collect` time, for levels
  only the owner can read (live sessions, exact quantiles over a window);
* **thread-safe where it must be** — solver spans observe histograms from
  executor threads, so every instrument guards its state with a lock;
* **renderer round-trip** — one typed :class:`MetricsSnapshot` renders to
  both the Prometheus text exposition and JSON, and both parse back
  losslessly (pinned by the telemetry suite).

Histograms use **fixed bucket boundaries** chosen at creation: observation
is O(#buckets) with zero allocation, snapshots are mergeable across
processes, and the quantile estimate (:meth:`Histogram.quantile`) is the
standard piecewise-linear interpolation over the cumulative counts —
property-tested against ``numpy.percentile`` to within one bucket width.
"""

from __future__ import annotations

import json
import math
import re
import threading
from bisect import bisect_left, insort
from collections import deque
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

from repro.telemetry.stats import quantile_summary

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSample",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Window",
    "parse_prometheus",
]

#: Prometheus-style latency boundaries (seconds): sub-millisecond frames up
#: to ten-second mosaics, roughly geometric so relative error stays bounded.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

Labels = tuple[tuple[str, str], ...]


def _normalize_labels(labels: Mapping[str, object] | None) -> Labels:
    if not labels:
        return ()
    pairs = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
        pairs.append((key, str(labels[key])))
    return tuple(pairs)


class _Instrument:
    """State shared by every instrument: identity, help text, a lock."""

    kind = "untyped"

    def __init__(self, name: str, labels: Labels, help: str) -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self._lock = threading.Lock()


class Counter(_Instrument):
    """A monotonically increasing count (events, bytes, frames)."""

    kind = "counter"

    def __init__(self, name: str, labels: Labels = (), help: str = "") -> None:
        super().__init__(name, labels, help)
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative — counters never go down)."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    def set_total(self, value: float) -> None:
        """Pin the absolute total — the *collector* path.

        For a count its owner keeps outside the registry (a node's
        retransmits, the scheduler's dispatches), copied at every collect:
        unlike :meth:`inc` this overwrites.  Totals still cannot be negative.
        """
        if value < 0:
            raise ValueError(f"counter totals must be >= 0, got {value}")
        with self._lock:
            self._value = float(value)


class Gauge(_Instrument):
    """A value that can go up and down (active streams, queue depth)."""

    kind = "gauge"

    def __init__(self, name: str, labels: Labels = (), help: str = "") -> None:
        super().__init__(name, labels, help)
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram(_Instrument):
    """Fixed-boundary histogram: O(#buckets) observe, mergeable snapshots.

    ``bounds`` are the *upper* bucket edges, strictly increasing and finite;
    an implicit ``+Inf`` bucket catches everything past the last edge.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        bounds: Sequence[float],
        labels: Labels = (),
        help: str = "",
    ) -> None:
        super().__init__(name, labels, help)
        edges = tuple(float(bound) for bound in bounds)
        if not edges:
            raise ValueError("histogram needs at least one bucket boundary")
        if any(not math.isfinite(edge) for edge in edges):
            raise ValueError("bucket boundaries must be finite (+Inf is implicit)")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(f"bucket boundaries must be strictly increasing: {edges}")
        self.bounds = edges
        self._counts = [0] * (len(edges) + 1)
        self._sum = 0.0
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def bucket_counts(self) -> tuple[int, ...]:
        """Per-bucket (non-cumulative) counts; the last entry is ``+Inf``."""
        return tuple(self._counts)

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, float(value))
        with self._lock:
            self._counts[index] += 1
            self._sum += float(value)
            self._count += 1

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (0-100) from the bucket counts.

        Piecewise-linear interpolation inside the bucket that holds the
        target rank (the classic Prometheus ``histogram_quantile`` rule);
        the estimate is exact to within the width of that bucket.  The open
        ``+Inf`` bucket clamps to the last finite edge.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self._count == 0:
            raise ValueError("quantile of an empty histogram")
        rank = (q / 100.0) * self._count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index >= len(self.bounds):
                    return self.bounds[-1]
                lower = 0.0 if index == 0 else self.bounds[index - 1]
                upper = self.bounds[index]
                fraction = (rank - previous) / bucket_count
                return lower + (upper - lower) * min(1.0, max(0.0, fraction))
        return self.bounds[-1]


class Window:
    """The last ``maxlen`` values of a series, in arrival and in sorted order.

    Never exported itself: ``sorted`` gives a collector exact quantiles
    (:func:`latency_quantile_gauges`) in linear time.  Unlocked: its writers
    run on the event loop.
    """

    def __init__(self, maxlen: int) -> None:
        self.values: deque[float] = deque(maxlen=maxlen)
        self.sorted: list[float] = []

    def append(self, value: float) -> None:
        if len(self.values) == self.values.maxlen:
            del self.sorted[bisect_left(self.sorted, self.values[0])]
        self.values.append(value)
        insort(self.sorted, value)


# ------------------------------------------------------------------ snapshots
@dataclass(frozen=True)
class MetricSample:
    """One metric family member, frozen at collect time.

    ``value`` is set for counters and gauges; the bucket fields, ``sum`` and
    ``count`` for histograms.
    """

    name: str
    kind: str
    labels: Labels = ()
    help: str = ""
    value: float | None = None
    bucket_bounds: tuple[float, ...] | None = None
    bucket_counts: tuple[int, ...] | None = None
    sum: float | None = None
    count: int | None = None

    def label(self, key: str) -> str | None:
        for name, value in self.labels:
            if name == key:
                return value
        return None


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _labels_text(labels: Labels) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{_escape(value)}"' for key, value in labels)
    return "{" + body + "}"


def _format_number(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


@dataclass(frozen=True)
class MetricsSnapshot:
    """A typed, immutable picture of every registered instrument.

    The object :meth:`MetricsRegistry.collect` (and thus
    ``ReceiverHub.metrics()``) returns: look values up with :meth:`value`,
    ship them with :meth:`render_prometheus` / :meth:`to_json`, and get them
    back with :meth:`from_json` — both renderings round-trip losslessly.
    """

    samples: tuple[MetricSample, ...] = ()

    def __iter__(self):  # type: ignore[no-untyped-def]
        return iter(self.samples)

    def get(
        self, name: str, labels: Mapping[str, object] | None = None
    ) -> MetricSample | None:
        """The sample called ``name`` with exactly ``labels`` (or ``None``)."""
        wanted = _normalize_labels(labels)
        for sample in self.samples:
            if sample.name == name and sample.labels == wanted:
                return sample
        return None

    def value(self, name: str, labels: Mapping[str, object] | None = None) -> float:
        """Counter/gauge value (histograms: use :meth:`get`); raises if absent."""
        sample = self.get(name, labels)
        if sample is None:
            raise KeyError(f"no metric {name!r} with labels {dict(labels or {})}")
        if sample.value is None:
            raise KeyError(f"{name!r} is a {sample.kind}; it has no scalar value")
        return sample.value

    # ------------------------------------------------------------- renderers
    def render_prometheus(self) -> str:
        """The Prometheus text exposition (version 0.0.4) of every sample."""
        lines: list[str] = []
        seen_headers: set[str] = set()
        for sample in self.samples:
            if sample.name not in seen_headers:
                seen_headers.add(sample.name)
                if sample.help:
                    lines.append(f"# HELP {sample.name} {_escape(sample.help)}")
                lines.append(f"# TYPE {sample.name} {sample.kind}")
            if sample.kind == "histogram":
                assert sample.bucket_bounds is not None
                assert sample.bucket_counts is not None
                cumulative = 0
                edges = [*sample.bucket_bounds, math.inf]
                for edge, bucket_count in zip(edges, sample.bucket_counts):
                    cumulative += bucket_count
                    bucket_labels = (*sample.labels, ("le", _format_number(edge)))
                    lines.append(
                        f"{sample.name}_bucket{_labels_text(bucket_labels)} {cumulative}"
                    )
                labels_text = _labels_text(sample.labels)
                lines.append(
                    f"{sample.name}_sum{labels_text} {_format_number(sample.sum or 0.0)}"
                )
                lines.append(f"{sample.name}_count{labels_text} {cumulative}")
            else:
                assert sample.value is not None
                lines.append(
                    f"{sample.name}{_labels_text(sample.labels)} "
                    f"{_format_number(sample.value)}"
                )
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict[str, object]:
        """The JSON-ready form (also what :meth:`to_json` serialises)."""
        metrics: list[dict[str, object]] = []
        for sample in self.samples:
            entry: dict[str, object] = {
                "name": sample.name,
                "kind": sample.kind,
                "labels": dict(sample.labels),
                "help": sample.help,
            }
            if sample.kind == "histogram":
                entry["bucket_bounds"] = list(sample.bucket_bounds or ())
                entry["bucket_counts"] = list(sample.bucket_counts or ())
                entry["sum"] = sample.sum
                entry["count"] = sample.count
            else:
                entry["value"] = sample.value
            metrics.append(entry)
        return {"metrics": metrics}

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> MetricsSnapshot:
        """Rebuild a snapshot from :meth:`to_json` output (lossless)."""
        payload = json.loads(text)
        samples = []
        for entry in payload["metrics"]:
            labels = _normalize_labels(entry.get("labels") or {})
            if entry["kind"] == "histogram":
                samples.append(
                    MetricSample(
                        name=entry["name"],
                        kind="histogram",
                        labels=labels,
                        help=entry.get("help", ""),
                        bucket_bounds=tuple(entry["bucket_bounds"]),
                        bucket_counts=tuple(entry["bucket_counts"]),
                        sum=entry["sum"],
                        count=entry["count"],
                    )
                )
            else:
                samples.append(
                    MetricSample(
                        name=entry["name"],
                        kind=entry["kind"],
                        labels=labels,
                        help=entry.get("help", ""),
                        value=entry["value"],
                    )
                )
        return cls(samples=tuple(samples))


_SAMPLE_LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> dict[tuple[str, Labels], float]:
    """Parse a text exposition back to ``{(name, labels): value}``.

    Covers the subset :meth:`MetricsSnapshot.render_prometheus` emits — what
    the round-trip tests and the scrape examples need; not a general parser.
    """
    values: dict[tuple[str, Labels], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_LINE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {line!r}")
        labels: list[tuple[str, str]] = []
        if match.group("labels"):
            for key, raw in _LABEL_PAIR_RE.findall(match.group("labels")):
                value = raw.replace('\\"', '"').replace("\\n", "\n")
                value = value.replace("\\\\", "\\")
                labels.append((key, value))
        raw_value = match.group("value")
        number = math.inf if raw_value == "+Inf" else float(raw_value)
        values[(match.group("name"), tuple(labels))] = number
    return values


# ------------------------------------------------------------------- registry
class MetricsRegistry:
    """Instrument factory + snapshot point for one process/pipeline.

    Instruments are get-or-create by ``(name, labels)``: asking twice
    returns the same object, asking with a different kind raises.  Pull-style
    *collectors* (:meth:`register_collector`) run at the top of every
    :meth:`collect` and set what cannot be counted at an event.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, Labels], _Instrument] = {}
        self._collectors: list[Callable[[], None]] = []
        self._windows: dict[str, Window] = {}

    def _get_or_create(
        self,
        cls: type,
        name: str,
        labels: Mapping[str, object] | None,
        help: str,
        **kwargs: object,
    ) -> _Instrument:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        key = (name, _normalize_labels(labels))
        with self._lock:
            existing = self._instruments.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            instrument = cls(name, labels=key[1], help=help, **kwargs)
            self._instruments[key] = instrument
            return instrument

    def counter(
        self,
        name: str,
        *,
        labels: Mapping[str, object] | None = None,
        help: str = "",
    ) -> Counter:
        instrument = self._get_or_create(Counter, name, labels, help)
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(
        self,
        name: str,
        *,
        labels: Mapping[str, object] | None = None,
        help: str = "",
    ) -> Gauge:
        instrument = self._get_or_create(Gauge, name, labels, help)
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(
        self,
        name: str,
        *,
        bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labels: Mapping[str, object] | None = None,
        help: str = "",
    ) -> Histogram:
        instrument = self._get_or_create(Histogram, name, labels, help, bounds=bounds)
        assert isinstance(instrument, Histogram)
        if instrument.bounds != tuple(float(bound) for bound in bounds):
            raise ValueError(
                f"histogram {name!r} already registered with bounds "
                f"{instrument.bounds}"
            )
        return instrument

    def window(self, name: str, *, maxlen: int) -> Window:
        """The :class:`Window` called ``name``, get-or-create like an instrument."""
        with self._lock:
            return self._windows.setdefault(name, Window(maxlen))

    def register_collector(self, collector: Callable[[], None]) -> None:
        """Run ``collector()`` at the top of every :meth:`collect`.

        The pull seam, for values no event can count: a collector reads a
        level its owner holds (live sessions, a governor's counters, a
        latency window) and writes it via ``set``/``set_total``.
        """
        with self._lock:
            self._collectors.append(collector)

    def collect(self) -> MetricsSnapshot:
        """Run the collectors, then freeze every instrument into a snapshot."""
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector()
        samples = []
        with self._lock:
            instruments = sorted(
                self._instruments.values(), key=lambda i: (i.name, i.labels)
            )
        for instrument in instruments:
            if isinstance(instrument, Histogram):
                samples.append(
                    MetricSample(
                        name=instrument.name,
                        kind="histogram",
                        labels=instrument.labels,
                        help=instrument.help,
                        bucket_bounds=instrument.bounds,
                        bucket_counts=instrument.bucket_counts,
                        sum=instrument.sum,
                        count=instrument.count,
                    )
                )
            else:
                assert isinstance(instrument, (Counter, Gauge))
                samples.append(
                    MetricSample(
                        name=instrument.name,
                        kind=instrument.kind,
                        labels=instrument.labels,
                        help=instrument.help,
                        value=instrument.value,
                    )
                )
        return MetricsSnapshot(samples=tuple(samples))


def latency_quantile_gauges(
    registry: MetricsRegistry,
    name: str,
    values: Sequence[float],
    *,
    help: str = "",
) -> None:
    """Export p50/p90/p99 of ``values`` as ``{quantile=...}`` gauges.

    The summary companion to a latency histogram: exact quantiles via
    :func:`repro.telemetry.stats.percentile` over the raw series (histogram
    quantiles are estimates; these are not).  No-op on an empty series.
    """
    if not values:
        return
    for key, value in quantile_summary(values).items():
        quantile = float(key[1:]) / 100.0
        registry.gauge(
            name, labels={"quantile": f"{quantile:g}"}, help=help
        ).set(value)
