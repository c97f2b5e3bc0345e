"""Per-layer metrics of the traced run: probes, expected calls and targets.

Every per-layer metric names the end-to-end metric it should move and on
which workload (``TARGETS``), so a change that claims a layer gain can be
checked against the end-to-end row it predicted.  Times are seconds per
reconstructed frame unless the unit says otherwise.  ``inclusive`` times
overlap where one layer calls another (``cs.forward_s`` contains the
dictionary synthesis it runs); ``self`` times do not.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from tracer import Probe

_STREAM_TARGET = (
    "frames_per_s and cpu_s_per_frame on fanin_40 (by hand) and video_64; flat on "
    "mosaic_256 (the event loop contends with solver threads for the GIL)"
)
_SCHEDULER_TARGET = "frame_latency_tail_s on fanin_40 (by hand) and video_64; flat on mosaic_256"

#: Per-layer metric -> the end-to-end metric and workload it should move.
#: ``fanin_40`` is not in ``BENCHMARK.json`` (see ``run.py``), so every target
#: on it also names a gated workload.
TARGETS: dict[str, str] = {
    "sensor.capture_s": "frame_latency_p50_s on mosaic_256; cpu_s_per_frame on fanin_40 (by hand)",
    "sensor.capture_calls": "frame_latency_p50_s on mosaic_256; cpu_s_per_frame on fanin_40 (by hand)",
    "ca.factors_s": "frames_per_s on fanin_40 (by hand) and video_64",
    "io.encode_s": _STREAM_TARGET,
    "io.decode_s": _STREAM_TARGET,
    "stream.chunk_encode_s": _STREAM_TARGET,
    "stream.chunk_decode_s": _STREAM_TARGET,
    "stream.chunks": _STREAM_TARGET,
    "stream.seed_chain_s": _STREAM_TARGET,
    "stream.session_s": _STREAM_TARGET,
    "stream.send_wait_s": "high values mean the run is hub-bound",
    "stream.submit_wait_s": _SCHEDULER_TARGET,
    "stream.queue_wait_s": _SCHEDULER_TARGET,
    "stream.solve_jobs": _SCHEDULER_TARGET,
    "recon.operator_s": "frames_per_s on fanin_40 (by hand) and video_64",
    "recon.solve_s": "frame_latency_p50_s on all three workloads",
    "cs.step_size_s": "frame_latency_p50_s on mosaic_256 and video_64",
    "cs.iterate_s": (
        "frame_latency_p50_s on mosaic_256 (batched) or video_64 (solo), not both"
    ),
    "cs.forward_s": "frame_latency_p50_s on video_64 (solo path only)",
    "cs.adjoint_s": "frame_latency_p50_s on video_64 (solo path only)",
    "cs.dictionary_s": "frame_latency_p50_s on video_64 and mosaic_256",
    "cs.iterations_mean": "frame_latency_p50_s on all three workloads (work per solve)",
    "cs.capped_ratio": "frame_latency_p50_s on all three workloads (work per solve)",
    "overhead.frames_per_s": "traced minus untraced; tracing cost, not a program metric",
    "overhead.frame_latency_p50_s": "traced minus untraced; tracing cost",
    "overhead.frame_latency_tail_s": "traced minus untraced; tracing cost",
    "overhead.cpu_s_per_frame": "traced minus untraced; tracing cost",
}

#: Public functions each workload must reach; a traced run that records zero
#: calls for one of them fails (a refactor moved the call site).
_COMMON = [
    "repro.sensor.imager:CompressiveImager.capture_batch",
    "repro.ca.selection:CASelectionGenerator.next_states",
    "repro.recon.operator:ca_selection_factors",
    "repro.stream.node:encode_frame",
    "repro.stream.node:encode_chunk",
    "repro.stream.protocol:ChunkDecoder.feed",
    "repro.stream.session:advance_seed_state",
    "repro.stream.session:StreamSession.handle_chunk",
    "repro.stream.hub:FairSolveScheduler.submit",
    "repro.cs.dictionaries:DCT2Dictionary.synthesize",
]
_SOLO = [
    "repro.recon.pipeline:frame_operator",
    "repro.recon.pipeline:_SOLVERS[fista]",
    "repro.cs.operators:BaseSensingOperator.operator_norm",
    "repro.cs.operators:BaseSensingOperator.matvec",
    "repro.cs.operators:BaseSensingOperator.rmatvec",
    "repro.cs.dictionaries:DCT2Dictionary.analyze",
]
EXPECTED_CALLS: dict[str, list[str]] = {
    "video_64": _COMMON + _SOLO + ["repro.stream.session:decode_frame"],
    "mosaic_256": _COMMON
    + [
        "repro.sensor.shard:TiledSensorArray.capture_scene_sequence",
        "repro.stream.session:decode_frame",
        "repro.recon.batch:frame_operator",
        "repro.recon.batch:batched_operator_norms",
        "repro.recon.batch:batched_proximal_gradient",
    ],
    "fanin_40": _COMMON
    + _SOLO
    + [
        "repro.stream.node:pack_samples",
        "repro.stream.session:decode_frame_prefix",
        "repro.stream.session:unpack_samples",
    ],
}


def make_probes(
    on_solver_results: Callable[[Any, tuple, dict], None],
    on_enqueued: Callable[[tuple, dict, float], None],
) -> list[Probe]:
    """Every probe of the traced run, wired to the run's ledger callbacks."""
    dictionary_methods = [
        Probe(f"repro.cs.dictionaries:DCT2Dictionary.{method}", "cs.dictionary")
        for method in ("synthesize", "analyze", "synthesize_batch", "analyze_batch")
    ]
    return [
        Probe("repro.sensor.imager:CompressiveImager.capture_batch", "sensor.capture"),
        Probe(
            "repro.sensor.shard:TiledSensorArray.capture_scene_sequence",
            "sensor.capture",
            fans_out=True,
        ),
        Probe("repro.ca.selection:CASelectionGenerator.next_states", "ca.factors"),
        Probe("repro.recon.operator:ca_selection_factors", "ca.factors"),
        Probe("repro.stream.node:encode_frame", "io.encode"),
        Probe("repro.stream.node:pack_samples", "io.encode"),
        Probe("repro.stream.session:decode_frame", "io.decode"),
        Probe("repro.stream.session:decode_frame_prefix", "io.decode"),
        Probe("repro.stream.session:unpack_samples", "io.decode"),
        Probe("repro.stream.node:encode_chunk", "stream.chunk_encode"),
        Probe("repro.stream.protocol:ChunkDecoder.feed", "stream.chunk_decode"),
        Probe("repro.stream.session:advance_seed_state", "stream.seed_chain"),
        Probe(
            "repro.stream.session:StreamSession.handle_chunk",
            "stream.session",
            mode="async_self",
        ),
        Probe(
            "repro.stream.hub:FairSolveScheduler.submit",
            "stream.submit_wait",
            mode="wall",
            on_return=on_enqueued,
        ),
        Probe("repro.recon.pipeline:frame_operator", "recon.operator"),
        Probe("repro.recon.batch:frame_operator", "recon.operator"),
        Probe("repro.recon.batch:batched_operator_norms", "cs.step_size"),
        Probe("repro.cs.operators:BaseSensingOperator.operator_norm", "cs.step_size"),
        Probe(
            "repro.recon.pipeline:_SOLVERS[fista]",
            "cs.iterate",
            mode="self",
            on_result=on_solver_results,
        ),
        Probe(
            "repro.recon.batch:batched_proximal_gradient",
            "cs.iterate",
            mode="self",
            on_result=on_solver_results,
        ),
        Probe("repro.cs.operators:BaseSensingOperator.matvec", "cs.forward"),
        Probe("repro.cs.operators:BaseSensingOperator.rmatvec", "cs.adjoint"),
        *dictionary_methods,
    ]
