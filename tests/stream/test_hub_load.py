"""Hub load tests: hundreds of concurrent nodes, fairness under contention.

Two scales are exercised:

* **breadth** — ≥100 concurrent loopback nodes streaming GOP video into
  one hub (decode path: per-stream seed chains at fleet scale), every
  stream completing with every frame;
* **contention** — a chatty node with many frames queued against quiet
  single-frame nodes on a one-slot solver: the round-robin scheduler must
  interleave the quiet streams' solves ahead of the chatty node's backlog
  rather than draining the chatty queue first.
"""

import asyncio

import numpy as np

from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.video import VideoSequencer
from repro.stream.hub import ReceiverHub
from repro.stream.node import CameraNode
from repro.stream.transport import LoopbackTransport
from repro.telemetry import percentile


CONFIG = SensorConfig(rows=16, cols=16)


def run(coro):
    return asyncio.run(coro)


class TestHundredNodeLoopback:
    N_NODES = 120
    N_FRAMES = 2

    def test_sustains_concurrent_nodes_with_complete_streams(self):
        scenes = [
            make_scene("blobs", (16, 16), seed=index)
            for index in range(self.N_FRAMES)
        ]

        async def scenario():
            hub = ReceiverHub(reconstruct=False)

            async def one_node(stream_id):
                transport = LoopbackTransport(max_buffered=4)
                sequencer = VideoSequencer(
                    CompressiveImager(CONFIG, seed=stream_id),
                    samples_per_frame=40,
                    seed=stream_id,
                )
                node = CameraNode(
                    transport, stream_id=stream_id, gop_size=self.N_FRAMES
                )
                send = asyncio.create_task(node.stream_video(sequencer, scenes))
                results = await hub.attach(transport)
                await send
                return results

            all_results = await asyncio.gather(
                *(one_node(stream_id) for stream_id in range(1, self.N_NODES + 1))
            )
            await hub.close()
            return hub, all_results

        hub, all_results = run(scenario())
        # Every stream completed with every announced frame — no stream was
        # starved or dropped while its 119 peers were flowing.
        assert len(hub.completed) == self.N_NODES
        assert not hub.failures
        per_stream = {
            results[0].stream_id: results[0] for results in all_results
        }
        assert sorted(per_stream) == list(range(1, self.N_NODES + 1))
        for result in per_stream.values():
            assert result.n_frames == self.N_FRAMES
            assert result.announced_frames == self.N_FRAMES
        # Spot-check correctness at both ends of the id range: the demuxed
        # bytes match an isolated capture with the same seeds.
        for stream_id in (1, self.N_NODES):
            sequencer = VideoSequencer(
                CompressiveImager(CONFIG, seed=stream_id),
                samples_per_frame=40,
                seed=stream_id,
            )
            direct = sequencer.capture_sequence(scenes).frames
            received = per_stream[stream_id].frames
            for got, expected in zip(received, direct):
                assert np.array_equal(got.capture.samples, expected.samples)
                assert np.array_equal(got.capture.seed_state, expected.seed_state)
        # Fleet stats aggregated across every session.
        snapshot = hub.stats()
        assert snapshot.n_completed == self.N_NODES
        assert snapshot.n_frames == self.N_NODES * self.N_FRAMES
        assert len(snapshot.frame_latencies) == self.N_NODES * self.N_FRAMES
        assert percentile(snapshot.frame_latencies, 99) >= 0.0


class TestChattyNodeFairness:
    N_QUIET = 4
    CHATTY_FRAMES = 6

    def test_quiet_streams_complete_amid_a_chatty_backlog(self):
        chatty_id = 100

        async def scenario():
            # One solver slot and a per-stream watermark: contention is
            # maximal and entirely resolved by the round-robin policy.
            hub = ReceiverHub(
                max_iterations=5, solver_slots=1, per_stream_pending=1
            )

            async def chatty():
                scenes = [
                    make_scene("blobs", (16, 16), seed=index)
                    for index in range(self.CHATTY_FRAMES)
                ]
                transport = LoopbackTransport(max_buffered=32)
                node = CameraNode(transport, stream_id=chatty_id, gop_size=1)
                imager = CompressiveImager(CONFIG, seed=1)
                send = asyncio.create_task(node.stream_frames(imager, scenes))
                results = await hub.attach(transport)
                await send
                return results

            async def quiet(stream_id):
                # Stagger the quiet nodes into the middle of the chatty
                # node's stream so their solves compete with its backlog.
                await asyncio.sleep(0.002 * stream_id)
                scenes = [make_scene("blobs", (16, 16), seed=90 + stream_id)]
                transport = LoopbackTransport(max_buffered=8)
                node = CameraNode(transport, stream_id=stream_id)
                imager = CompressiveImager(CONFIG, seed=stream_id)
                send = asyncio.create_task(node.stream_frames(imager, scenes))
                results = await hub.attach(transport)
                await send
                return results

            await asyncio.gather(
                chatty(), *(quiet(stream_id) for stream_id in range(1, self.N_QUIET + 1))
            )
            order = list(hub.scheduler.dispatch_order)
            await hub.close()
            return hub, order

        hub, order = run(scenario())
        assert len(hub.completed) == self.N_QUIET + 1
        assert not hub.failures
        # Fairness: every quiet stream's solve was dispatched before the
        # chatty stream's final solve — the backlog never monopolised the
        # single slot.
        last_chatty = max(
            index for index, key in enumerate(order) if key == chatty_id
        )
        for stream_id in range(1, self.N_QUIET + 1):
            first_quiet = order.index(stream_id)
            assert first_quiet < last_chatty, (
                f"stream {stream_id} was starved: first dispatch at "
                f"{first_quiet}, chatty stream still solving at {last_chatty}"
            )
        # Every reconstruction actually landed.
        for result in hub.completed:
            for frame in result.frames:
                assert frame.reconstruction is not None
