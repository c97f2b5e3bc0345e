"""The three capture -> pixels workloads and the harness that times them.

A run repeats *rounds* of one workload until its time budget is spent.  A
round builds fresh sensors, a fresh ``ReceiverHub`` and fresh camera nodes,
streams a fixed number of frames from capture to reconstructed pixels over
in-memory loopback links on one event loop, and tears everything down.
Every round of a run has the same shape, so the pooled per-frame figures do
not depend on how many rounds fit the budget.

Streams are closed loops: a ``CameraNode`` pulls its next scene only when the
loopback link (``max_buffered``) and the hub's ``per_stream_pending``
watermark let it send, the way a real node behaves.  Everything the program
sees is generated from the workload seed before the round starts.

What the benchmark adds around the program, all from this file:

* the scene iterator stamps the time each scene is pulled (the frame's
  latency clock starts there; for a tiled GOP, at the pull of the GOP);
* the node's transport is a thin wrapper that counts wire bytes and the
  time a node spends suspended in ``send``;
* the hub's solver executor is a thread pool that stamps when each job
  starts and ends and which object it returned, so a frame's latency stops
  when the job returning its ``ReceivedFrame.reconstruction`` ends.
"""

from __future__ import annotations

import asyncio
import os
import resource
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Coroutine, Iterator

import numpy as np

from repro.cs.metrics import psnr
from repro.optics.scenes import make_scene
from repro.recon.pipeline import reconstruct_frame
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.shard import TiledSensorArray
from repro.sensor.video import VideoSequencer
from repro.stream.hub import ReceiverHub
from repro.stream.node import CameraNode
from repro.stream.transport import LoopbackTransport

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

#: A round that has not finished by then is a hang, not a slow run.
ROUND_TIMEOUT_S = 120.0


def derive(seed: int, *labels: object) -> int:
    """A 31-bit seed derived from the workload seed and a label path."""
    return zlib.crc32("/".join(str(part) for part in (seed, *labels)).encode()) & 0x7FFFFFFF


# --------------------------------------------------------------------- ledger
@dataclass
class Ledger:
    """Benchmark-side measurements of one phase (a run's rounds)."""

    done_at: dict[int, tuple[Any, float]] = field(default_factory=dict)
    enqueued: dict[int, tuple[Any, float]] = field(default_factory=dict)
    solve_busy_s: float = 0.0
    queue_wait_s: float = 0.0
    send_wait_s: float = 0.0
    iterations: list[int] = field(default_factory=list)
    capped: list[bool] = field(default_factory=list)
    # Solver threads and the event loop both update the ledger; the phase
    # reads the totals only after every job has finished.
    lock: threading.Lock = field(default_factory=threading.Lock)

    def job_done(self, fn: Any, result: Any, started: float, ended: float) -> None:
        with self.lock:
            self.done_at[id(result)] = (result, ended)
            self.solve_busy_s += ended - started
            queued = self.enqueued.pop(id(fn), None)
            if queued is not None:
                self.queue_wait_s += started - queued[1]

    def note_enqueued(self, args: tuple, kwargs: dict, ended: float) -> None:
        fn = kwargs.get("fn", args[2] if len(args) > 2 else None)
        with self.lock:
            self.enqueued[id(fn)] = (fn, ended)

    def note_send_wait(self, seconds: float) -> None:
        with self.lock:
            self.send_wait_s += seconds

    def note_solver_results(self, result: Any, args: tuple, kwargs: dict) -> None:
        solved = result if isinstance(result, list) else [result]
        with self.lock:
            self.iterations.extend(int(item.n_iterations) for item in solved)
            self.capped.extend(not item.converged for item in solved)


class TimedExecutor(ThreadPoolExecutor):
    """The hub's solver executor: stamps job start, end and return value."""

    def __init__(self, max_workers: int, ledger: Ledger) -> None:
        super().__init__(max_workers=max_workers, thread_name_prefix="solver")
        self.ledger = ledger

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
        ledger = self.ledger

        def job() -> Any:
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            ledger.job_done(fn, result, started, time.perf_counter())
            return result

        return super().submit(job)


class Link:
    """One loopback connection shared by several nodes.

    It closes only after its last node has finished, so many streams can be
    multiplexed over one ``hub.attach`` connection.
    """

    def __init__(self, n_nodes: int) -> None:
        self.transport = LoopbackTransport()
        self.open_nodes = n_nodes


class NodeEnd:
    """A node's end of a :class:`Link`: counts wire bytes and send waits."""

    def __init__(self, link: Link, ledger: Ledger) -> None:
        self.link = link
        self.ledger = ledger
        self.bytes_sent = 0
        self._closed = False

    async def send(self, data: bytes) -> None:
        started = time.perf_counter()
        await self.link.transport.send(data)
        self.ledger.note_send_wait(time.perf_counter() - started)
        self.bytes_sent += len(data)

    async def recv(self) -> bytes | None:
        return await self.link.transport.recv()

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.link.open_nodes -= 1
        if self.link.open_nodes == 0:
            await self.link.transport.close()


def pulled(scenes: list[np.ndarray], stamps: list[float]) -> Iterator[np.ndarray]:
    """Yield scenes, stamping each pull."""
    for scene in scenes:
        stamps.append(time.perf_counter())
        yield scene


# ------------------------------------------------------------------ workloads
@dataclass
class Stream:
    """One node's stream within a round."""

    stream_id: int
    sensor_seed: int
    scenes: list[np.ndarray]
    gop_size: int
    tiled: bool
    stamps: list[float] = field(default_factory=list)
    end: NodeEnd | None = None

    def started_at(self, frame_index: int) -> float:
        # A tiled GOP is captured in one call when its scenes are pulled.
        index = frame_index - frame_index % self.gop_size if self.tiled else frame_index
        return self.stamps[index]


@dataclass
class Built:
    """A round's program objects, made from the generated inputs."""

    hub: ReceiverHub
    links: list[Link]
    sends: list[Coroutine[Any, Any, Any]]
    executors: list[ThreadPoolExecutor]


@dataclass
class Spec:
    """A workload: its streams per round and how to build and check them."""

    name: str
    streams: Callable[[int, int], list[Stream]]
    build: Callable[[list[Stream], Ledger], Built]
    references: Callable[[Stream], list[np.ndarray]]
    psnr_floor_db: float
    #: Rounds every run makes, however slow the machine: it fixes the
    #: smallest frame count and so the tail percentile (see :func:`tail`).
    min_rounds: int = 1


def _service(streams: list[Stream], ledger: Ledger, *, resilient: bool) -> Built:
    """Executors, hub and links shared by every node of a round.

    ``nproc`` capture threads serve all nodes and the hub keeps its default
    two solver slots on ``nproc`` solver threads; streams are spread over at
    most ``nproc`` loopback connections.
    """
    capture = ThreadPoolExecutor(max_workers=NPROC, thread_name_prefix="capture")
    solver = TimedExecutor(NPROC, ledger)
    n_links = min(NPROC, len(streams))
    links = [Link(len(streams[i::n_links])) for i in range(n_links)]
    for position, stream in enumerate(streams):
        stream.end = NodeEnd(links[position % n_links], ledger)
    hub = ReceiverHub(executor=solver, resilient=resilient)
    return Built(hub, links, [], [capture, solver])


def _video_sequencer(seed: int, shape: tuple[int, int]) -> VideoSequencer:
    rows, cols = shape
    return VideoSequencer(
        CompressiveImager(SensorConfig(rows=rows, cols=cols), seed=seed), seed=seed
    )


def _video_streams(n_nodes: int, n_frames: int, shape: tuple[int, int]) -> Callable[[int, int], list[Stream]]:
    def streams(seed: int, round_index: int) -> list[Stream]:
        return [
            Stream(
                stream_id=node,
                sensor_seed=derive(seed, round_index, "sensor", node),
                scenes=[
                    make_scene("natural", shape, seed=derive(seed, round_index, "scene", node, i))
                    for i in range(n_frames)
                ],
                gop_size=4,
                tiled=False,
            )
            for node in range(1, n_nodes + 1)
        ]

    return streams


def _video_build(shape: tuple[int, int], *, resilient: bool, **node_options: Any) -> Callable[[list[Stream], Ledger], Built]:
    def build(streams: list[Stream], ledger: Ledger) -> Built:
        built = _service(streams, ledger, resilient=resilient)
        for stream in streams:
            node = CameraNode(
                stream.end,
                stream_id=stream.stream_id,
                gop_size=stream.gop_size,
                executor=built.executors[0],
                **node_options,
            )
            built.sends.append(
                node.stream_video(
                    _video_sequencer(stream.sensor_seed, shape),
                    pulled(stream.scenes, stream.stamps),
                    keep_digital_image=False,
                )
            )
        return built

    return build


def _video_references(shape: tuple[int, int]) -> Callable[[Stream], list[np.ndarray]]:
    def references(stream: Stream) -> list[np.ndarray]:
        capture = _video_sequencer(stream.sensor_seed, shape).capture_sequence(stream.scenes)
        return [frame.digital_image.astype(float) for frame in capture.frames]

    return references


MOSAIC_SHAPE = (256, 256)


def _mosaic_streams(seed: int, round_index: int) -> list[Stream]:
    return [
        Stream(
            stream_id=1,
            sensor_seed=derive(seed, round_index, "sensor", 1),
            scenes=[
                make_scene("natural", MOSAIC_SHAPE, seed=derive(seed, round_index, "scene", 1, i))
                for i in range(2)
            ],
            gop_size=2,
            tiled=True,
        )
    ]


def _mosaic_array(seed: int) -> TiledSensorArray:
    return TiledSensorArray(MOSAIC_SHAPE, max_workers=NPROC, seed=seed)


def _mosaic_build(streams: list[Stream], ledger: Ledger) -> Built:
    (stream,) = streams
    built = _service(streams, ledger, resilient=False)
    node = CameraNode(
        stream.end,
        stream_id=stream.stream_id,
        gop_size=stream.gop_size,
        executor=built.executors[0],
    )
    built.sends.append(
        node.stream_tiled_video(
            _mosaic_array(stream.sensor_seed),
            pulled(stream.scenes, stream.stamps),
            keep_digital_image=False,
        )
    )
    return built


def _mosaic_references(stream: Stream) -> list[np.ndarray]:
    results = _mosaic_array(stream.sensor_seed).capture_scene_sequence(
        stream.scenes, advance=True
    )
    return [result.digital_image().astype(float) for result in results]


#: PSNR floors sit a few dB under what each workload reconstructs (about
#: 27.5, 25.5 and 21 dB): a drop past them is a broken reconstruction.
SPECS: dict[str, Spec] = {
    "video_64": Spec(
        name="video_64",
        streams=_video_streams(n_nodes=1, n_frames=16, shape=(64, 64)),
        build=_video_build((64, 64), resilient=False),
        references=_video_references((64, 64)),
        psnr_floor_db=24.0,
        min_rounds=2,
    ),
    "mosaic_256": Spec(
        name="mosaic_256",
        streams=_mosaic_streams,
        build=_mosaic_build,
        references=_mosaic_references,
        psnr_floor_db=22.0,
    ),
    "fanin_40": Spec(
        name="fanin_40",
        streams=_video_streams(n_nodes=40, n_frames=4, shape=(16, 16)),
        build=_video_build((16, 16), resilient=True, segments_per_frame=4, parity=True),
        references=_video_references((16, 16)),
        psnr_floor_db=18.0,
    ),
}


# --------------------------------------------------------------------- rounds
@dataclass
class Round:
    """What one round produced, before any reference check."""

    streams: list[Stream]
    results: dict[int, Any]
    build_s: float
    active_s: float
    cpu_s: float
    solve_jobs: int
    errors: list[str]


async def _stream_round(spec: Spec, streams: list[Stream], ledger: Ledger) -> Round:
    build_started = time.perf_counter()
    built = spec.build(streams, ledger)
    hub = built.hub
    cpu_started = time.process_time()
    send_tasks = [asyncio.ensure_future(send) for send in built.sends]
    attach_tasks = [asyncio.ensure_future(hub.attach(link.transport)) for link in built.links]
    errors: list[str] = []
    results: dict[int, Any] = {}
    try:
        attached = await asyncio.wait_for(
            asyncio.gather(*attach_tasks, return_exceptions=True), ROUND_TIMEOUT_S
        )
        for outcome in attached:
            if isinstance(outcome, BaseException):
                errors.append(f"hub connection failed: {outcome!r}")
            else:
                results.update({result.stream_id: result for result in outcome})
        if errors:
            for task in send_tasks:
                task.cancel()
        for outcome in await asyncio.gather(*send_tasks, return_exceptions=True):
            if isinstance(outcome, BaseException) and not errors:
                errors.append(f"node failed: {outcome!r}")
    except asyncio.TimeoutError:
        errors.append(f"round did not finish within {ROUND_TIMEOUT_S:.0f} s")
        for task in send_tasks + attach_tasks:
            task.cancel()
        await asyncio.gather(*send_tasks, *attach_tasks, return_exceptions=True)
    finally:
        await hub.close()
        for executor in built.executors:
            executor.shutdown(wait=True)
    cpu_s = time.process_time() - cpu_started
    if hub.failures and not errors:
        errors.append(f"hub recorded failure: {hub.failures[0]!r}")
    first_pull = min(
        (stream.stamps[0] for stream in streams if stream.stamps), default=build_started
    )
    finishes = [ledger.done_at[id(frame.reconstruction)][1]
                for result in results.values() for frame in result.frames
                if id(frame.reconstruction) in ledger.done_at]
    return Round(
        streams=streams,
        results=results,
        build_s=first_pull - build_started,
        active_s=(max(finishes) - first_pull) if finishes else 0.0,
        cpu_s=cpu_s,
        solve_jobs=hub.scheduler.n_dispatched,
        errors=errors,
    )


def run_round(spec: Spec, seed: int, round_index: int, ledger: Ledger) -> Round:
    streams = spec.streams(seed, round_index)
    return asyncio.run(_stream_round(spec, streams, ledger))


@dataclass
class Phase:
    """The rounds of one phase and the ledger that timed them."""

    rounds: list[Round]
    ledger: Ledger
    peak_rss_mb: float


def run_phase(
    spec: Spec, seed: int, seconds: float, ledger: Ledger,
    after_round: Callable[[], None] | None = None,
) -> Phase:
    """Run ``spec.min_rounds`` rounds, then more until the next one is
    predicted to overrun ``seconds``.

    ``after_round`` runs between rounds, outside their timed spans.
    """
    rounds: list[Round] = []
    started = time.perf_counter()
    while True:
        rounds.append(run_round(spec, seed, len(rounds), ledger))
        if after_round is not None:
            after_round()
        elapsed = time.perf_counter() - started
        if rounds[-1].errors:
            break
        if len(rounds) >= spec.min_rounds and elapsed + elapsed / len(rounds) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Phase(rounds, ledger, peak_rss_mb)


# ----------------------------------------------------------------- reporting
def _frame_ok(frame: Any) -> bool:
    return (
        frame.reconstruction is not None
        and frame.sample_mask is None
        and (frame.loss is None or frame.loss.clean)
    )


def tail(latencies: list[float], smallest: int) -> tuple[float, float, int]:
    """Latency at the tail percentile of a workload whose runs have at
    least ``smallest`` frames.

    The percentile is the highest with >= 10 frames beyond it in a run of
    ``smallest`` frames, so every run of the workload reports the same
    percentile (a run with more frames has more than ten beyond it).  Below
    11 frames no percentile has ten beyond it; the maximum is reported at
    100.  Returns ``(value, percentile, n)``.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if smallest < 11:
        return ordered[-1], 100.0, n
    beyond_start = -(-(smallest - 10) * n // smallest)  # ceil((smallest - 10) / smallest * n)
    return ordered[beyond_start - 1], 100.0 * (smallest - 10) / smallest, n


@dataclass
class Summary:
    """End-to-end figures of one phase plus its correctness verdict."""

    offered: int
    good: int
    metrics: dict[str, float]
    notes: dict[str, Any]
    errors: list[str]


def summarize(spec: Spec, phase: Phase, *, check_quality: bool) -> Summary:
    ledger = phase.ledger
    errors = [error for rnd in phase.rounds for error in rnd.errors]
    offered = good = 0
    latencies: list[float] = []
    psnrs: list[float] = []
    wire_bytes = 0
    for rnd in phase.rounds:
        for stream in rnd.streams:
            offered += len(stream.stamps)
            wire_bytes += stream.end.bytes_sent if stream.end is not None else 0
            result = rnd.results.get(stream.stream_id)
            if result is None:
                continue
            references = spec.references(stream) if check_quality else []
            for frame in result.frames:
                if not _frame_ok(frame) or id(frame.reconstruction) not in ledger.done_at:
                    continue
                good += 1
                done = ledger.done_at[id(frame.reconstruction)][1]
                latencies.append(done - stream.started_at(frame.frame_index))
                if references:
                    psnrs.append(psnr(references[frame.frame_index], frame.reconstruction.image))
    if not latencies:
        errors.append("no frame was reconstructed")
        return Summary(offered, good, {}, {}, errors)
    active_s = sum(rnd.active_s for rnd in phase.rounds)
    # Every round has the same shape, so the smallest run is min_rounds rounds.
    smallest = offered // len(phase.rounds) * spec.min_rounds
    tail_value, tail_percentile, n = tail(latencies, smallest)
    metrics = {
        "frames_per_s": good / active_s,
        "frame_latency_p50_s": float(np.median(latencies)),
        "frame_latency_tail_s": tail_value,
        "cpu_s_per_frame": sum(rnd.cpu_s for rnd in phase.rounds) / good,
        "peak_rss_mb": phase.peak_rss_mb,
        "wire_bytes_per_frame": wire_bytes / offered,
    }
    if psnrs:
        metrics["psnr_db"] = float(np.mean(psnrs))
        if metrics["psnr_db"] < spec.psnr_floor_db:
            errors.append(
                f"psnr_db {metrics['psnr_db']:.2f} below the {spec.psnr_floor_db} dB floor"
            )
    if good != offered:
        errors.append(f"{offered - good} of {offered} frames were not fully reconstructed")
    notes = {
        "rounds": len(phase.rounds),
        "frames": good,
        "tail_percentile": round(tail_percentile, 1),
        "tail_samples": n,
        "failed_frame_ratio": (offered - good) / offered if offered else 1.0,
        "solve_jobs": sum(rnd.solve_jobs for rnd in phase.rounds),
    }
    return Summary(offered, good, metrics, notes, errors)


def spot_check_video(phase: Phase) -> str | None:
    """Streamed frame 1 of round 0 must equal in-process reconstruction.

    Frame 1 is seedless on the wire, so the check covers the receiver's
    seed-chain re-derivation as well as the solve.  Returns an error or None.
    """
    rnd = phase.rounds[0]
    (stream,) = rnd.streams
    streamed = rnd.results[stream.stream_id].frames[1].reconstruction
    local = _video_sequencer(stream.sensor_seed, (64, 64)).capture_sequence(stream.scenes[:2])
    expected = reconstruct_frame(local.frames[1])
    if streamed.image.tobytes() != expected.image.tobytes():
        return "streamed video_64 frame 1 differs from in-process reconstruct_frame"
    return None

