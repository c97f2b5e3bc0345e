"""Image reconstruction from compressed frames.

The receiver side of the paper's system: rebuild the measurement operator
from the CA seed carried in the :class:`~repro.sensor.imager.CompressedFrame`
(through the shared builders of :mod:`repro.ca.selection`), and solve the
sparse-recovery problem in a chosen dictionary.
"""

from repro.recon.batch import solve_tiles_batched
from repro.recon.operator import frame_operator
from repro.recon.pipeline import (
    ReconstructionResult,
    TiledReconstructionResult,
    reconstruct_frame,
    reconstruct_samples,
    reconstruct_tiled,
)

__all__ = [
    "frame_operator",
    "solve_tiles_batched",
    "reconstruct_frame",
    "reconstruct_samples",
    "reconstruct_tiled",
    "ReconstructionResult",
    "TiledReconstructionResult",
]
