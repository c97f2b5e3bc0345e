#!/usr/bin/env python
"""Print the end-to-end benchmark trajectory recorded in ``BENCH_*.json``.

Each ``BENCH_<pr>.json`` at the repository root holds one PR's paired
``perfbench/run.py`` runs: per workload and end-to-end metric, the runs of
the parent and of the change, with their medians.  This script reads them
all and prints, per workload and metric, one row per PR: the parent's and
the change's medians, the change in percent, and the pairs the change won.

Usage (from the repository root)::

    python benchmarks/trajectory.py
    python benchmarks/trajectory.py --workload video_64 --metric cpu_s_per_frame

Medians from different files were measured on different days, and a shared
VM's speed drifts between them, so compare a PR's change with its own
parent; read across PRs only as a rough trend.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_NAME = re.compile(r"BENCH_(\d+)\.json$")


def load_trajectory(root: Path = ROOT) -> dict[int, dict]:
    """Every ``BENCH_<pr>.json`` under ``root``, keyed and ordered by PR."""
    files = {}
    for path in root.glob("BENCH_*.json"):
        match = BENCH_NAME.search(path.name)
        if match:
            files[int(match.group(1))] = json.loads(path.read_text())
    return dict(sorted(files.items()))


def trajectory_rows(
    benches: dict[int, dict],
    workload: str | None = None,
    metric: str | None = None,
) -> list[dict]:
    """One row per (workload, metric, PR) with both medians, in read order."""
    rows = []
    for pr, bench in benches.items():
        for name, result in bench.get("end_to_end", {}).items():
            if workload not in (None, name):
                continue
            for metric_name, sides in result.get("metrics", {}).items():
                if metric not in (None, metric_name):
                    continue
                parent = sides["parent"]["median"]
                change = sides["change"]["median"]
                rows.append({
                    "workload": name,
                    "metric": metric_name,
                    "pr": pr,
                    "parent": parent,
                    "change": change,
                    "change_pct": 100.0 * (change - parent) / parent if parent else None,
                    "wins": sides.get("change_wins"),
                    "pairs": result.get("pairs"),
                })
    rows.sort(key=lambda row: (row["workload"], row["metric"], row["pr"]))
    return rows


def format_rows(rows: list[dict]) -> str:
    """The rows as aligned text, one block per workload and metric."""
    lines = []
    current = None
    for row in rows:
        key = (row["workload"], row["metric"])
        if key != current:
            current = key
            lines.append(f"\n{row['workload']} {row['metric']}")
            lines.append(f"  {'PR':>4} {'parent':>12} {'change':>12} {'change%':>9} {'wins':>7}")
        pct = "" if row["change_pct"] is None else f"{row['change_pct']:+.1f}"
        wins = "" if row["wins"] is None else f"{row['wins']}/{row['pairs']}"
        lines.append(
            f"  {row['pr']:>4} {row['parent']:>12.6g} {row['change']:>12.6g} {pct:>9} {wins:>7}"
        )
    return "\n".join(lines).lstrip("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="directory holding BENCH_*.json")
    parser.add_argument("--workload", help="only this workload (e.g. video_64)")
    parser.add_argument("--metric", help="only this metric (e.g. cpu_s_per_frame)")
    args = parser.parse_args(argv)
    rows = trajectory_rows(load_trajectory(args.root), args.workload, args.metric)
    if not rows:
        print("no matching BENCH_*.json medians", file=sys.stderr)
        return 1
    print(format_rows(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
