"""Telemetry overhead benchmarks: the zero-cost contract, measured.

The ``telemetry`` group pins the two numbers the observability layer
promises (docs/OPERATIONS.md "Observability"):

* ``test_telemetry_disabled_overhead`` — a streamed video with
  ``telemetry=None`` versus the identical stream with a wired, *enabled*
  facade.  The disabled path is the default for every user, so the
  benchmark asserts inline that leaving telemetry out costs **< 2%**
  against the un-instrumented seed path (the median over paired rounds of
  the disabled/enabled ratio of process CPU time, which cancels machine
  drift).
* ``test_telemetry_enabled_fan_in_40_nodes`` — the 40-node hub fan-in of
  ``test_bench_hub.py`` with one shared enabled facade across every node
  and the hub: full span tracing + stage histograms + metric collectors at
  fleet scale, wired into ``baseline.json`` so a regression in the
  *enabled* path is caught too.
"""

import asyncio
import statistics
import time

import pytest

from benchmarks.paired import paired_rounds
from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.video import VideoSequencer
from repro.stream.hub import ReceiverHub
from repro.stream.node import CameraNode
from repro.stream.receiver import StreamReceiver
from repro.stream.transport import LoopbackTransport
from repro.telemetry import STAGES, Telemetry

CONFIG = SensorConfig(rows=16, cols=16)
N_FRAMES = 4
SCENES = [make_scene("blobs", (16, 16), seed=index) for index in range(N_FRAMES)]

N_NODES = 40
FLEET_FRAMES = 2
FLEET_SCENES = [make_scene("blobs", (16, 16), seed=index) for index in range(FLEET_FRAMES)]


def _stream_once(telemetry):
    async def scenario():
        transport = LoopbackTransport(max_buffered=8)
        sequencer = VideoSequencer(
            CompressiveImager(CONFIG, seed=7), samples_per_frame=40, seed=7
        )
        node = CameraNode(transport, gop_size=N_FRAMES, telemetry=telemetry)
        receiver = StreamReceiver(reconstruct=False, telemetry=telemetry)
        send = asyncio.create_task(
            node.stream_video(sequencer, SCENES, keep_digital_image=False)
        )
        result = await receiver.run(transport)
        await send
        return result

    return asyncio.run(scenario())


#: Paired rounds of the overhead gate, and the streams each side runs per
#: round: one ~15 ms stream is too short a sample of a shared machine.
OVERHEAD_ROUNDS = 15
STREAMS_PER_BLOCK = 5


def _stream_block(make_telemetry):
    for _ in range(STREAMS_PER_BLOCK):
        _stream_once(make_telemetry())


@pytest.mark.benchmark(group="telemetry")
def test_telemetry_disabled_overhead(benchmark):
    """telemetry=None must cost < 2% against the seed (un-instrumented) path.

    The benchmark clock times the ``telemetry=None`` stream (the number the
    regression gate tracks).  The inline assertion compares the disabled
    path against an enabled facade over paired rounds
    (:func:`~benchmarks.paired.paired_rounds`), each timing a block of
    streams per side in process CPU time.  The disabled path carries only
    ``if telemetry is not None`` checks, so the enabled run bounds it from
    above: the median disabled/enabled ratio must stay below 1.02.
    """
    _stream_once(None)  # warm caches before any timing
    result = benchmark.pedantic(lambda: _stream_once(None), rounds=9, iterations=1)
    assert result.n_frames == N_FRAMES

    rounds = paired_rounds(
        {
            "disabled": lambda: _stream_block(lambda: None),
            "enabled": lambda: _stream_block(Telemetry),
        },
        rounds=OVERHEAD_ROUNDS,
        clock=time.process_time,
    )
    ratio = statistics.median(r["disabled"] / r["enabled"] for r in rounds)
    disabled = statistics.median(r["disabled"] for r in rounds) / STREAMS_PER_BLOCK
    enabled = statistics.median(r["enabled"] for r in rounds) / STREAMS_PER_BLOCK
    print(
        f"\ntelemetry disabled {disabled * 1e3:.2f} ms vs enabled "
        f"{enabled * 1e3:.2f} ms CPU per stream ({ratio - 1.0:+.2%} paired median)"
    )
    assert ratio < 1.02, (
        f"telemetry=None path is {ratio - 1.0:+.2%} vs an enabled facade — "
        "the disabled path must be free (contract: < 2%)"
    )


def _run_instrumented_fleet():
    telemetry = Telemetry()

    async def scenario():
        hub = ReceiverHub(reconstruct=False, telemetry=telemetry)

        async def one_node(stream_id):
            transport = LoopbackTransport(max_buffered=4)
            sequencer = VideoSequencer(
                CompressiveImager(CONFIG, seed=stream_id),
                samples_per_frame=40,
                seed=stream_id,
            )
            node = CameraNode(
                transport,
                stream_id=stream_id,
                gop_size=FLEET_FRAMES,
                telemetry=telemetry,
            )
            send = asyncio.create_task(
                node.stream_video(sequencer, FLEET_SCENES, keep_digital_image=False)
            )
            await hub.attach(transport)
            await send

        await asyncio.gather(
            *(one_node(stream_id) for stream_id in range(1, N_NODES + 1))
        )
        await hub.close()
        return hub, telemetry

    return asyncio.run(scenario())


@pytest.mark.benchmark(group="telemetry")
def test_telemetry_enabled_fan_in_40_nodes(benchmark):
    """Fully instrumented 40-node fan-in: spans + histograms + collectors."""
    hub, telemetry = benchmark.pedantic(
        _run_instrumented_fleet, rounds=3, iterations=1
    )
    assert len(hub.completed) == N_NODES
    # Every frame of every stream is traced (reconstruct=False: the four
    # pre-solve stages; queue_wait/solve need a scheduler dispatch).
    assert len(telemetry.tracer) == N_NODES * FLEET_FRAMES
    snapshot = hub.metrics()
    assert snapshot.value("repro_hub_frames_total") == N_NODES * FLEET_FRAMES
    for stage in STAGES[:4]:
        sample = snapshot.get("repro_stage_seconds", {"stage": stage})
        assert sample is not None and sample.count >= N_NODES * FLEET_FRAMES
    streams_per_second = N_NODES / benchmark.stats.stats.median
    print(
        f"\ninstrumented hub fan-in: {streams_per_second:.1f} streams/s "
        f"({N_NODES} nodes x {FLEET_FRAMES} frames, full tracing)"
    )
