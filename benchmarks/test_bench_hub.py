"""E16 — fleet ingest hub throughput (many nodes → one receiver).

The ``hub`` group times :class:`~repro.stream.hub.ReceiverHub` muxing a
fleet of loopback camera nodes on one event loop, reconstruction disabled so
the numbers isolate the hub machinery (connection fan-in, per-chunk demux,
per-stream session FSMs, seed-chain decode, stats accounting):

* ``test_hub_fan_in_40_nodes`` — 40 concurrent 16x16 GOP-video nodes, two
  frames each: the sustained **streams/s** of the accept-to-complete path;
* ``test_hub_p99_frame_latency`` — the p99 of per-frame latency (first
  chunk landed → frame fully decoded) across the same fan-in, i.e. what a
  fleet operator would alert on (see docs/OPERATIONS.md).

Both are wired into ``benchmarks/baseline.json``, so CI's regression gate
(``benchmarks/check_regression.py``) guards the fleet path exactly like the
single-node streaming hot path.
"""

import asyncio

import pytest

from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.video import VideoSequencer
from repro.stream.hub import ReceiverHub
from repro.stream.node import CameraNode
from repro.stream.transport import LoopbackTransport
from repro.telemetry import percentile

N_NODES = 40
N_FRAMES = 2
CONFIG = SensorConfig(rows=16, cols=16)
SCENES = [make_scene("blobs", (16, 16), seed=index) for index in range(N_FRAMES)]


def _run_fleet_once():
    async def scenario():
        hub = ReceiverHub(reconstruct=False)

        async def one_node(stream_id):
            transport = LoopbackTransport(max_buffered=4)
            sequencer = VideoSequencer(
                CompressiveImager(CONFIG, seed=stream_id),
                samples_per_frame=40,
                seed=stream_id,
            )
            node = CameraNode(transport, stream_id=stream_id, gop_size=N_FRAMES)
            send = asyncio.create_task(
                node.stream_video(sequencer, SCENES, keep_digital_image=False)
            )
            await hub.attach(transport)
            await send

        await asyncio.gather(
            *(one_node(stream_id) for stream_id in range(1, N_NODES + 1))
        )
        await hub.close()
        return hub

    return asyncio.run(scenario())


@pytest.mark.benchmark(group="hub")
def test_hub_fan_in_40_nodes(benchmark):
    """Streams/sec sustained by one hub muxing 40 concurrent video nodes."""
    hub = benchmark.pedantic(_run_fleet_once, rounds=3, iterations=1)
    assert len(hub.completed) == N_NODES
    assert not hub.failures
    streams_per_second = N_NODES / benchmark.stats.stats.median
    print(f"\nhub fan-in: {streams_per_second:.1f} streams/s "
          f"({N_NODES} nodes x {N_FRAMES} frames)")


@pytest.mark.benchmark(group="hub")
def test_hub_p99_frame_latency(benchmark):
    """p99 of first-chunk→frame-decoded latency across the 40-node fleet."""
    hub = benchmark.pedantic(_run_fleet_once, rounds=3, iterations=1)
    latencies = hub.stats().frame_latencies
    assert len(latencies) == N_NODES * N_FRAMES
    p99 = percentile(latencies, 99)
    print(f"\nhub p99 frame latency: {p99 * 1e3:.1f} ms "
          f"(median wall {benchmark.stats.stats.median * 1e3:.1f} ms)")
