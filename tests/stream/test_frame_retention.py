"""What one landed streamed frame keeps alive.

A landed 64x64 video frame holds its decoded samples and its reconstructed
image, plus small metadata and solver diagnostics.  The solver's coefficient
vector is a second copy of the image (4096 float64 values, 32 KiB), so a
reconstruction does not keep it: services and benchmarks that hold many
landed frames would otherwise pay for every image twice.
"""

import asyncio
import gc
import tracemalloc

from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.video import VideoSequencer
from repro.stream.node import CameraNode
from repro.stream.receiver import StreamReceiver
from repro.stream.transport import LoopbackTransport

N_FRAMES = 4
SHAPE = (64, 64)
#: Bytes a landed frame may keep beyond its samples and image: metadata,
#: diagnostics and object headers (about 2.7 KB measured).
OVERHEAD_BYTES = 8192


def stream_frames():
    async def scenario():
        transport = LoopbackTransport()
        node = CameraNode(transport, gop_size=N_FRAMES)
        imager = CompressiveImager(SensorConfig(rows=SHAPE[0], cols=SHAPE[1]), seed=3)
        scenes = [make_scene("natural", SHAPE, seed=index) for index in range(N_FRAMES)]
        receiver = StreamReceiver(max_iterations=2)
        send = asyncio.create_task(
            node.stream_video(VideoSequencer(imager, seed=3), scenes, keep_digital_image=False)
        )
        result = await receiver.run(transport)
        await send
        return result.frames

    return asyncio.run(scenario())


def test_a_landed_64x64_frame_keeps_its_pixels_once():
    stream_frames()  # warm lazy imports and caches outside the trace
    tracemalloc.start()
    try:
        frames = stream_frames()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        assert len(frames) == N_FRAMES
        payload = sum(
            frame.capture.samples.nbytes + frame.reconstruction.image.nbytes
            for frame in frames
        )
        del frames
        gc.collect()
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= payload + N_FRAMES * OVERHEAD_BYTES
