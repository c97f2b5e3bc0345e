"""Pre-encoded camera-node streams for tests that drive a session directly.

Each stream is captured once per process and kept as the exact chunks its
node put on the wire, so session-level tests (back-pressure, the stateful
fuzz machine) can deliver, drop, duplicate or reorder them without running a
camera.
"""

import asyncio
from functools import lru_cache

from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.shard import TiledSensorArray
from repro.sensor.video import VideoSequencer
from repro.stream.node import CameraNode
from repro.stream.protocol import (
    ChunkDecoder,
    FrameComplete,
    FrameData,
    FrameParity,
    FrameSegment,
    decode_payload,
)


class RecordingTransport:
    """Swallows every sent slice into a list (no receiver on the other end)."""

    def __init__(self):
        self.slices = []

    async def send(self, data):
        self.slices.append(bytes(data))

    async def recv(self):
        return None

    async def close(self):
        pass


def _scenes(n_frames, shape):
    return [make_scene("blobs", shape, seed=index) for index in range(n_frames)]


@lru_cache(maxsize=None)
def recorded_chunks(kind, n_frames, *, segments_per_frame=1, parity=False):
    """The chunks one GOP-2 stream of ``n_frames`` frames puts on the wire.

    ``kind`` is ``"video"`` (one 16x16 sensor) or ``"mosaic"`` (a 32x32
    scene on a 2x2 grid of 16x16 tiles).
    """

    async def scenario():
        transport = RecordingTransport()
        node = CameraNode(
            transport, gop_size=2, segments_per_frame=segments_per_frame, parity=parity
        )
        if kind == "video":
            sequencer = VideoSequencer(
                CompressiveImager(SensorConfig(rows=16, cols=16), seed=7),
                samples_per_frame=50,
                seed=7,
            )
            await node.stream_video(sequencer, _scenes(n_frames, (16, 16)))
        else:
            array = TiledSensorArray(
                (32, 32), tile_shape=(16, 16), compression_ratio=0.2, max_workers=1, seed=5
            )
            await node.stream_tiled_video(array, _scenes(n_frames, (32, 32)))
        return transport.slices

    decoder = ChunkDecoder()
    return tuple(
        chunk for data in asyncio.run(scenario()) for chunk in decoder.feed(data)
    )


def frame_index_of(chunk):
    """The frame a tile or barrier chunk belongs to; ``None`` for the rest."""
    payload = decode_payload(chunk.chunk_type, chunk.payload)
    if isinstance(payload, (FrameData, FrameSegment, FrameParity, FrameComplete)):
        return payload.frame_index
    return None
