"""Pure-python summary statistics shared by every latency report.

:func:`percentile` moved here from ``repro.stream.hub`` (which still
re-exports it) so the hub, the metrics snapshots, the benchmarks and the
operator docs all compute quantiles through one function — by the same
linear-interpolation rule as ``numpy.percentile(..., method="linear")``,
which the property suite pins exactly.
"""

from __future__ import annotations

from collections.abc import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0–100) of ``values`` by linear interpolation."""
    return _interpolate(sorted(values), q)


def _interpolate(ordered: list[float], q: float) -> float:
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    position = (len(ordered) - 1) * (q / 100.0)
    below = int(position)
    above = min(below + 1, len(ordered) - 1)
    weight = position - below
    return ordered[below] * (1.0 - weight) + ordered[above] * weight


#: The quantiles every latency summary reports (p50 / p90 / p99).
SUMMARY_QUANTILES: tuple[float, ...] = (50.0, 90.0, 99.0)


def quantile_summary(
    values: Sequence[float], quantiles: Sequence[float] = SUMMARY_QUANTILES
) -> dict[str, float]:
    """``{"p50": ..., "p90": ..., "p99": ...}`` for a latency series.

    >>> summary = quantile_summary([1.0, 2.0, 3.0, 4.0])
    >>> summary["p50"]
    2.5
    """
    ordered = sorted(values)
    return {f"p{q:g}": _interpolate(ordered, q) for q in quantiles}
