"""Pre-encoded camera-node streams for tests that drive a session directly.

Each stream is captured once per process and kept as the exact chunks its
node put on the wire, so session-level tests (back-pressure, the stateful
fuzz machine, the corruption gate) can deliver, drop, duplicate, reorder or
corrupt them without running a camera.
"""

import asyncio
from functools import lru_cache

import numpy as np

from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.shard import TiledCaptureResult, TiledSensorArray
from repro.sensor.video import VideoSequencer
from repro.stream.node import CameraNode
from repro.stream.protocol import (
    ChunkDecoder,
    ChunkType,
    FrameComplete,
    FrameData,
    FrameParity,
    FrameSegment,
    decode_payload,
    payload_chunk,
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


def as_frame_data_stream(chunks):
    """The same stream as a node that shipped each tile as one ``FRAME_DATA``
    chunk wrote it — the framing sessions still decode.

    Every one-segment group becomes the ``FRAME_DATA`` chunk carrying its
    prefix and samples (the whole encoded frame); a single-sensor stream
    drops its barriers, since such a frame was its own barrier.  Sequences
    are renumbered from 0.
    """
    tiled = decode_payload(ChunkType.STREAM_START, chunks[0].payload).tiled
    payloads = []
    for chunk in chunks:
        payload = decode_payload(chunk.chunk_type, chunk.payload)
        if isinstance(payload, FrameSegment):
            assert payload.n_segments == 1
            payload = FrameData(
                payload.frame_index,
                payload.grid_row,
                payload.grid_col,
                payload.keyframe,
                payload.prefix_bytes + payload.sample_bytes,
            )
        elif isinstance(payload, FrameComplete) and not tiled:
            continue
        payloads.append(payload)
    return [
        payload_chunk(payload, chunks[0].stream_id, sequence)
        for sequence, payload in enumerate(payloads)
    ]


def _solve_input(frame, mask):
    """A tile's samples as its solve reads them (lost ones as ``-1``) and
    everything Φ is rebuilt from: the seed, the sensor, the rule, the steps."""
    samples = frame.samples if mask is None else np.where(mask, frame.samples, -1)
    phi = (
        np.asarray(frame.seed_state, dtype=np.uint8).tobytes(),
        frame.config,
        frame.rule_number,
        frame.steps_per_sample,
        frame.warmup_steps,
    )
    return samples, phi


def landed_frames(session):
    """Frame index → tile position → that tile's :func:`_solve_input`.

    The session core never drains, so every frame it landed is still queued.
    """
    landed = {}
    for received, job, _ in session._queued:
        capture = received.capture
        if isinstance(capture, TiledCaptureResult):
            tiles = {(slot.grid_row, slot.grid_col): frame for slot, frame in capture.delivered()}
            masks = job.keywords["sample_masks"]
        else:
            tiles, masks = {(0, 0): capture}, {(0, 0): received.sample_mask}
        landed[received.frame_index] = {
            key: _solve_input(frame, masks.get(key)) for key, frame in tiles.items()
        }
    return landed


def wrong_frames(landed, clean):
    """Indices of ``landed`` frames with a tile whose surviving samples or Φ
    differ from the ``clean`` recording's (both from :func:`landed_frames`)."""
    wrong = []
    for index, tiles in landed.items():
        for key, (samples, phi) in tiles.items():
            clean_samples, clean_phi = clean.get(index, {}).get(key, (None, None))
            survived = samples >= 0
            if (
                phi != clean_phi
                or samples.shape != clean_samples.shape
                or not np.array_equal(samples[survived], clean_samples[survived])
            ):
                wrong.append(index)
                break
    return wrong
