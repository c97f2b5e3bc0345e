"""repro — reproduction of "Concurrent focal-plane generation of compressed samples
from time-encoded pixel values" (Trevisi et al., DATE 2018).

The library simulates, end to end, an image sensor that produces compressive
-sampling measurements directly at the focal plane: light is encoded into
pixel firing times, a Rule 30 cellular automaton selects which pixels
contribute to each compressed sample, a token protocol serialises the pixel
events onto shared column buses, and a global-counter TDC plus a
sample-and-add chain accumulate each 20-bit compressed sample — after which
the image is recovered off-chip with standard sparse-recovery solvers from
nothing but the samples and the CA seed.

Quickstart
----------
>>> from repro import CompressiveImager, SensorConfig, make_scene, reconstruct_frame
>>> imager = CompressiveImager(SensorConfig())
>>> frame = imager.capture_scene(make_scene("blobs", seed=1), n_samples=1200)
>>> result = reconstruct_frame(frame, dictionary="dct", solver="fista")
"""

from repro.ca import CASelectionGenerator, ElementaryCellularAutomaton, RuleTable
from repro.cs import (
    BlockCompressiveSampler,
    SensingOperator,
    StructuredSensingOperator,
    make_dictionary,
    psnr,
    ssim,
)
from repro.io import decode_frame, encode_frame
from repro.optics import PhotoConversion, make_scene
from repro.pixel import Pixel, TimeEncoder
from repro.recon import (
    IncrementalTiledReconstructor,
    reconstruct_frame,
    reconstruct_samples,
    reconstruct_tiled,
)
from repro.sensor import (
    CompressedFrame,
    CompressiveImager,
    SensorConfig,
    TiledCaptureResult,
    TiledSensorArray,
    VideoSequencer,
)
from repro.stream import (
    BitrateGovernor,
    CameraNode,
    LoopbackTransport,
    ReceiverHub,
    StreamReceiver,
)
from repro.telemetry import Telemetry

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "RuleTable",
    "ElementaryCellularAutomaton",
    "CASelectionGenerator",
    "SensingOperator",
    "StructuredSensingOperator",
    "BlockCompressiveSampler",
    "make_dictionary",
    "psnr",
    "ssim",
    "make_scene",
    "PhotoConversion",
    "TimeEncoder",
    "Pixel",
    "SensorConfig",
    "CompressiveImager",
    "CompressedFrame",
    "reconstruct_frame",
    "reconstruct_samples",
    "reconstruct_tiled",
    "TiledSensorArray",
    "TiledCaptureResult",
    "VideoSequencer",
    "encode_frame",
    "decode_frame",
    "IncrementalTiledReconstructor",
    "CameraNode",
    "BitrateGovernor",
    "StreamReceiver",
    "ReceiverHub",
    "LoopbackTransport",
    "Telemetry",
]
