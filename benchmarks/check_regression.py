#!/usr/bin/env python
"""CI benchmark-regression gate.

Compares a fresh pytest-benchmark JSON report against the committed
``benchmarks/baseline.json`` and fails (exit code 1) when the median runtime
of any tracked benchmark regresses by more than the threshold (default
30 %).  Each benchmark is held to its own baseline median: a group mixes
members whose runtimes differ by two orders of magnitude (``recon`` holds
0.14 s and 12.9 s solves), so a group's median-of-medians can stay put while
one member doubles.  The group table (``@pytest.mark.benchmark(group=...)``
labels, median of member medians) is still printed as context, but it does
not gate.

Usage::

    python benchmarks/check_regression.py benchmark-results.json \
        benchmarks/baseline.json [--threshold 1.30]

Overriding
----------
A genuine, accepted slow-down (or a runner-hardware change) is recorded by
refreshing the baseline: download the ``benchmark-results`` artifact from the
CI run, trim it with ``--write-baseline``, and commit it::

    python benchmarks/check_regression.py benchmark-results.json \
        benchmarks/baseline.json --write-baseline

To merge a PR before the baseline refresh lands, apply the
``benchmark-override`` label to the pull request — CI skips this gate when
the label is present (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def benchmark_medians(report: dict) -> dict:
    """Median runtime per grouped benchmark name, in seconds."""
    return {
        bench["name"]: bench["stats"]["median"]
        for bench in report.get("benchmarks", [])
        if bench.get("group") is not None
    }


def group_medians(report: dict) -> dict:
    """Median-of-medians runtime per benchmark group, in seconds."""
    per_group: dict = {}
    for bench in report.get("benchmarks", []):
        group = bench.get("group")
        if group is None:
            continue
        per_group.setdefault(group, []).append(bench["stats"]["median"])
    return {group: statistics.median(values) for group, values in per_group.items()}


def _print_ratios(title: str, reference: dict, current: dict, threshold: float) -> None:
    width = max((len(name) for name in reference), default=5)
    print(f"{title.ljust(width)}  {'baseline':>12}  {'current':>12}  {'ratio':>7}")
    for name in sorted(reference):
        if name not in current:
            print(f"{name.ljust(width)}  {reference[name] * 1e3:>10.2f}ms  {'missing':>12}")
            continue
        ratio = current[name] / reference[name]
        flag = "  <-- REGRESSION" if ratio > threshold else ""
        print(
            f"{name.ljust(width)}  {reference[name] * 1e3:>10.2f}ms  "
            f"{current[name] * 1e3:>10.2f}ms  {ratio:>6.2f}x{flag}"
        )
    for name in sorted(set(current) - set(reference)):
        print(f"{name.ljust(width)}  (untracked — add it to the baseline)")


def trim_report(report: dict) -> dict:
    """Reduce a pytest-benchmark report to what the gate needs.

    Keeping only names, groups and median stats makes the committed baseline
    small and its diffs reviewable.
    """
    return {
        "machine_info": {
            key: report.get("machine_info", {}).get(key)
            for key in ("node", "processor", "machine", "python_version")
        },
        "benchmarks": [
            {
                "name": bench["name"],
                "group": bench.get("group"),
                "stats": {"median": bench["stats"]["median"]},
            }
            for bench in report.get("benchmarks", [])
            if bench.get("group") is not None
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", type=Path, help="fresh pytest-benchmark JSON")
    parser.add_argument("baseline", type=Path, help="committed baseline JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.30,
        help="maximum allowed result/baseline median ratio per benchmark (default 1.30)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="trim the results file into a new baseline instead of comparing",
    )
    args = parser.parse_args(argv)

    results = json.loads(args.results.read_text())
    if args.write_baseline:
        args.baseline.write_text(json.dumps(trim_report(results), indent=2) + "\n")
        print(f"baseline refreshed: {args.baseline}")
        return 0

    baseline = json.loads(args.baseline.read_text())
    current = benchmark_medians(results)
    reference = benchmark_medians(baseline)

    failures = []
    for name in sorted(reference):
        if name not in current:
            failures.append(f"tracked benchmark '{name}' missing from the results")
            continue
        ratio = current[name] / reference[name]
        if ratio > args.threshold:
            failures.append(
                f"benchmark '{name}' regressed {ratio:.2f}x "
                f"(limit {args.threshold:.2f}x)"
            )
    _print_ratios("benchmark", reference, current, args.threshold)
    print("\ngroup medians (context only, not gated):")
    _print_ratios("group", group_medians(baseline), group_medians(results), args.threshold)

    if failures:
        print("\nbenchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        print(
            "\nIf the slow-down is intended, refresh benchmarks/baseline.json "
            "(--write-baseline) or apply the 'benchmark-override' PR label.",
            file=sys.stderr,
        )
        return 1
    print("\nbenchmark regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
