"""Held-out seed check for the capture -> pixels benchmark.

A speed claim made while looking at one workload seed is re-checked on a
seed nobody tuned against.  This script runs ``run.py`` on the default seed
and on the held-out seed, alternating which goes first, and reports for
every end-to-end metric whether the two medians agree within the metric's
bound from ``BENCHMARK.json``.

Usage (from the repository root)::

    python3 perfbench/heldout.py --workload mosaic_256 --runs 3

Exit code 0 when every metric agrees, 1 when one does not or a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
HELD_OUT_SEED = 104729


def run_once(workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if completed.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise RuntimeError(f"{workload} seed {seed} failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)

    samples: dict[int, list[dict]] = {DEFAULT_SEED: [], HELD_OUT_SEED: []}
    try:
        for index in range(args.runs):
            order = (DEFAULT_SEED, HELD_OUT_SEED) if index % 2 == 0 else (HELD_OUT_SEED, DEFAULT_SEED)
            for seed in order:
                samples[seed].append(run_once(args.workload, seed, bench["run_seconds"]))
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"heldout: {error}", file=sys.stderr)
        return 1

    report = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        default = statistics.median(run[name] for run in samples[DEFAULT_SEED])
        held_out = statistics.median(run[name] for run in samples[HELD_OUT_SEED])
        change = (held_out - default) / default
        agrees = abs(change) <= metric["bound"]
        report[name] = {
            "default": default, "held_out": held_out, "relative_change": change,
            "bound": metric["bound"], "agrees": agrees,
        }
        print(f"{name:24s} seed {DEFAULT_SEED}: {default:12.6g}  seed {HELD_OUT_SEED}: "
              f"{held_out:12.6g}  change {change:+7.2%}  bound {metric['bound']:.0%}  "
              f"{'agrees' if agrees else 'DISAGREES'}")
    every = all(entry["agrees"] for entry in report.values())
    print(json.dumps({"workload": args.workload, "runs": args.runs, "agrees": every,
                      "metrics": report}))
    return 0 if every else 1


if __name__ == "__main__":
    sys.exit(main())
