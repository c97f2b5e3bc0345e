"""Capture -> pixels benchmark of the streaming compressive-imaging service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload video_64 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``; the
benchmark's command line always passes that value.

``BENCHMARK.json`` gates ``video_64`` and ``mosaic_256`` only.  ``fanin_40``
runs by hand: its 16x16 frames keep the interpreter, not numpy kernels,
busy, and on a shared 2-vCPU VM whose speed swings 2x within a minute its
ten-run medians moved 25-34% between two sets of the same code, twice the
drift of the other workloads and more than any bound allows.

``--trace 0`` measures the end-to-end metrics of one workload with no layer
tracing and checks the outputs (PSNR floor, every offered frame fully
reconstructed and, on ``video_64``, one streamed frame byte-identical to
in-process ``reconstruct_frame``).  ``--trace 1`` runs the workload for half
the time untraced and half with the layer tracer of ``tracer.py`` installed, and
reports the per-layer metrics of ``layers.py`` plus the tracing overhead
(traced minus untraced end-to-end figures).  ``--workload all`` runs every
workload in a fresh process.  The metric names, units and bounds live in
``BENCHMARK.json`` at the repository root.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is non-zero when a correctness check fails.

The process pins itself to one CPU, so ``nproc`` inside the benchmark is 1,
and BLAS to one thread, before numpy loads.  On a shared 2-vCPU VM the
threads of a free-running process hand the GIL across cores: ``fanin_40``
ran 2x slower than pinned and its throughput drifted 30% between runs, and
BLAS threads on top of the solver pool made a 64x64 stream 3x slower.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("video_64", "mosaic_256", "fanin_40")
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Per-layer metric -> tracer metric whose seconds (``_s``) or calls it reads.
TRACED_SECONDS = (
    "sensor.capture", "ca.factors", "io.encode", "io.decode", "stream.chunk_encode",
    "stream.chunk_decode", "stream.seed_chain", "stream.session", "stream.submit_wait",
    "recon.operator", "cs.step_size", "cs.iterate", "cs.forward", "cs.adjoint",
    "cs.dictionary",
)
OVERHEAD_OF = ("frames_per_s", "frame_latency_p50_s", "frame_latency_tail_s", "cpu_s_per_frame")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))


#: Times ``import workloads`` (repro, numpy and scipy) in a fresh interpreter.
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; started = time.perf_counter(); "
    "import workloads; print(time.perf_counter() - started)"
)


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import the program."""
    completed = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(completed.stdout)


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; one combined result line."""
    combined: dict = {}
    attempted = failed = 0
    correct = True
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        lines = completed.stdout.strip().splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        sys.stderr.write(completed.stderr)
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if result is None or completed.returncode != 0:
            correct = False
        if result is not None:
            attempted += result["attempted"]
            failed += result["failed"]
            combined.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({
        "correct": correct, "attempted": max(attempted, 1), "failed": failed,
        "metrics": combined,
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for variable in BLAS_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = load_spec()
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.workload == "all":
        return run_all(args)

    import_started = time.perf_counter()
    import workloads  # imports repro (and numpy): timed as part of set-up

    import_s = time.perf_counter() - import_started
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = workloads.SPECS[args.workload]

    import numpy
    import scipy

    print("# environment " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": workloads.NPROC, "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": {variable: os.environ[variable] for variable in BLAS_VARIABLES},
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "capture_executor_threads": workloads.NPROC,
        "solver_executor_threads": workloads.NPROC, "solver_slots": 2,
        "tiled_capture_max_workers": workloads.NPROC,
        "load": "closed loop, one asyncio event loop, in-memory loopback links",
    }))
    if args.trace:
        return traced_run(args, spec, bench)

    imports = [import_s]
    phase = workloads.run_phase(
        spec, args.seed, args.seconds, workloads.Ledger(),
        after_round=lambda: imports.append(fresh_import_s()),
    )
    summary = workloads.summarize(spec, phase, check_quality=True)
    if args.workload == "video_64" and not summary.errors:
        mismatch = workloads.spot_check_video(phase)
        if mismatch:
            summary.errors.append(mismatch)
    # Every round builds fresh sensors, hub and nodes, and after every round
    # a fresh interpreter imports the program again.  One 0.6-s import
    # samples a shared machine's speed at one instant (it swings 2x within
    # a minute; one sample per run moved set medians 35%), so set-up is the
    # median import spread over the run plus the median build.
    builds = [rnd.build_s for rnd in phase.rounds]
    setup_s = statistics.median(imports) + statistics.median(builds)
    metrics = {"setup_s": setup_s, **summary.metrics}
    print("# notes " + json.dumps({**summary.notes, "import_s": imports, "build_s": builds}))
    # Not a bounded metric (it is 0 in every healthy run); the result line
    # carries it as attempted/failed.
    print(f"{'failed_frame_ratio':32s} {summary.notes.get('failed_frame_ratio', 1.0):14.6g} ratio")
    units = {metric["name"]: metric["unit"] for metric in bench["end_to_end"]}
    summary.errors += [f"metric {name} was not measured" for name in units if name not in metrics]
    for error in summary.errors:
        print(f"# FAILED {error}")
    correct = not summary.errors
    emit(correct, max(summary.offered, 1), summary.offered - summary.good,
         {name: metrics[name] for name in units if name in metrics}, units)
    return 0 if correct else 1


def traced_run(args: argparse.Namespace, spec, bench: dict) -> int:
    import layers
    import workloads
    from tracer import Tracer

    # Both phases share the run's time budget, so a traced run costs about
    # as much as an untraced one.
    seconds = args.seconds / 2
    base = workloads.summarize(
        spec, workloads.run_phase(spec, args.seed, seconds, workloads.Ledger()),
        check_quality=False,
    )
    ledger = workloads.Ledger()
    tracer = Tracer(layers.make_probes(ledger.note_solver_results, ledger.note_enqueued))
    tracer.install()
    try:
        phase = workloads.run_phase(spec, args.seed, seconds, ledger)
    finally:
        broken = tracer.uninstall()
    traced = workloads.summarize(spec, phase, check_quality=False)
    errors = base.errors + traced.errors
    errors += [f"tracer left {target} patched" for target in broken]
    errors += [
        f"tracer self-check: no call reached {target}"
        for target in tracer.missing_calls(layers.EXPECTED_CALLS[args.workload])
    ]
    frames = max(traced.good, 1)
    totals = tracer.totals
    metrics = {f"{name}_s": totals.seconds[name] / frames for name in TRACED_SECONDS}
    metrics.update({
        "sensor.capture_calls": totals.calls["sensor.capture"] / frames,
        "stream.chunks": totals.calls["stream.chunk_encode"] / frames,
        "stream.send_wait_s": ledger.send_wait_s / frames,
        "stream.queue_wait_s": ledger.queue_wait_s / frames,
        "stream.solve_jobs": traced.notes.get("solve_jobs", 0) / frames,
        "recon.solve_s": ledger.solve_busy_s / frames,
        "cs.iterations_mean": statistics.fmean(ledger.iterations) if ledger.iterations else 0.0,
        "cs.capped_ratio": statistics.fmean(ledger.capped) if ledger.capped else 0.0,
    })
    for name in OVERHEAD_OF:
        if name in base.metrics and name in traced.metrics:
            metrics[f"overhead.{name}"] = traced.metrics[name] - base.metrics[name]
    print("# untraced " + json.dumps(base.metrics))
    print("# traced   " + json.dumps(traced.metrics))
    print("# notes " + json.dumps({"untraced": base.notes, "traced": traced.notes}))
    units = {metric["name"]: metric["unit"] for metric in bench["per_layer"]}
    for name in units:
        print(f"# target {name}: {layers.TARGETS[name]}")
    errors += [f"metric {name} was not measured" for name in units if name not in metrics]
    for error in errors:
        print(f"# FAILED {error}")
    correct = not errors
    attempted = base.offered + traced.offered
    failed = attempted - base.good - traced.good
    emit(correct, max(attempted, 1), failed,
         {name: metrics[name] for name in units if name in metrics}, units)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
