"""Runnable demo: a camera node killed mid-GOP heals itself.

A small loopback fleet streams into one :class:`ReceiverHub` with the PR-10
session-durability layer armed.  One node's connection is scripted to die
mid-GOP — after its keyframe but before the dependent frames — and the demo
shows the full recovery arc:

1. **Park** — the hub sees the connection EOF mid-stream and, instead of
   salvaging a half video, parks the session state (seed chain, frame
   assemblies, sequence FSM) for a resume grace window.
2. **Reconnect** — the node's :class:`ReconnectSupervisor` dials a fresh
   connection (exponential backoff + jitter, all through the injectable
   telemetry clock) and announces itself with a ``SESSION_RESUME`` chunk.
3. **Replay** — the node re-sends its bounded retransmission buffer
   verbatim; the session dedups what already landed and reclaims exactly
   the chunk the cut swallowed.  The GOP seed chain never re-anchors, so
   the resumed stream decodes byte-identically to an unbroken one.

The recovery counters printed at the end come from ``hub.metrics()`` — the
same typed snapshot a Prometheus scrape of ``hub.serve_metrics()`` renders.

See docs/OPERATIONS.md ("Recovery knobs") for the operator's guide to the
grace windows and tests/stream/test_self_healing.py for the pinned
counter-for-counter semantics this demo prints.

Run:  python examples/self_healing_stream.py
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
from repro.stream.fault import DisconnectingTransport
from repro.stream.node import ReconnectSupervisor
from repro.stream.transport import loopback_duplex_pair

N_NODES = 3
FAULTY_NODE = 2
N_FRAMES = 6
DISCONNECT_AFTER = 9  # send index: segment 2 of frame 1 — mid-GOP
CONFIG = SensorConfig(rows=16, cols=16)
SCENES = [make_scene("blobs", (16, 16), seed=index) for index in range(N_FRAMES)]


def make_sequencer(stream_id):
    return VideoSequencer(
        CompressiveImager(CONFIG, seed=stream_id),
        samples_per_frame=48,
        seed=stream_id,
    )


async def healthy_node(hub, stream_id):
    """An unfaulted fleet member over a plain loopback pipe."""
    transport = LoopbackTransport(max_buffered=8)
    node = CameraNode(transport, stream_id=stream_id, gop_size=4)
    send = asyncio.create_task(
        node.stream_video(make_sequencer(stream_id), SCENES)
    )
    await hub.attach(transport)
    await send
    return node


async def killed_node(hub, stream_id):
    """The faulty member: its wire dies mid-GOP, the supervisor heals it."""
    node_end, hub_end = loopback_duplex_pair(max_buffered=8)
    cutter = DisconnectingTransport(node_end, disconnect_after=DISCONNECT_AFTER)
    attach_tasks = [asyncio.create_task(hub.attach(hub_end))]

    async def connect():
        await attach_tasks[0]  # the dead connection parks before we redial
        new_node_end, new_hub_end = loopback_duplex_pair(max_buffered=8)
        attach_tasks.append(asyncio.create_task(hub.attach(new_hub_end)))
        return new_node_end

    node = CameraNode(
        cutter,
        stream_id=stream_id,
        gop_size=4,
        segments_per_frame=4,
        parity=True,
        retransmit_capacity=64,
        reconnect=ReconnectSupervisor(connect),
    )
    await node.stream_video(make_sequencer(stream_id), SCENES)
    await attach_tasks[-1]
    return node


async def run_fleet():
    hub = ReceiverHub(reconstruct=False, resilient=True, resume_grace=60.0)
    jobs = [
        killed_node(hub, stream_id)
        if stream_id == FAULTY_NODE
        else healthy_node(hub, stream_id)
        for stream_id in range(1, N_NODES + 1)
    ]
    nodes = await asyncio.gather(*jobs)
    await hub.drain()
    await hub.close()
    return hub, nodes[FAULTY_NODE - 1]


def main() -> None:
    print(
        f"Fleet of {N_NODES} nodes x {N_FRAMES} frames; node {FAULTY_NODE}'s "
        f"wire is cut at send #{DISCONNECT_AFTER} (mid-GOP)\n"
    )
    hub, faulty = asyncio.run(run_fleet())

    metrics = hub.metrics()
    print("recovery counters (from hub.metrics()):")
    for name in (
        "repro_hub_sessions_parked_total",
        "repro_hub_sessions_resumed_total",
        "repro_hub_session_resumes_total",
        "repro_hub_duplicate_chunks_total",
        "repro_hub_reordered_chunks_total",
        "repro_hub_lost_chunks",
        "repro_hub_streams_completed_total",
        "repro_hub_frames_total",
    ):
        print(f"  {name:<40} {metrics.value(name):.0f}")
    print("node-side ledger:")
    print(f"  reconnect attempts                       {faulty.reconnect.n_attempts}")
    print(f"  resumes announced                        {faulty.n_resumes}")
    print(f"  chunks replayed from the buffer          {faulty.n_resume_retransmits}")

    # The healed stream matches an isolated capture with the same seed,
    # bit for bit — the GOP seed chain survived the disconnect.
    healed = next(r for r in hub.completed if r.stream_id == FAULTY_NODE)
    direct = make_sequencer(FAULTY_NODE).capture_sequence(SCENES).frames
    bit_exact = all(
        np.array_equal(received.capture.samples, expected.samples)
        for received, expected in zip(healed.frames, direct)
    )
    assert healed.n_frames == N_FRAMES
    assert bit_exact
    print(
        f"\nstream {FAULTY_NODE} resumed and decoded bit-exactly "
        f"({healed.n_frames}/{N_FRAMES} frames): {bit_exact}"
    )


if __name__ == "__main__":
    main()
