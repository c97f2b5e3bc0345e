"""Image reconstruction from compressed frames.

The receiver side of the paper's system: rebuild the measurement matrix from
the CA seed carried in the :class:`~repro.sensor.imager.CompressedFrame`,
and solve the sparse-recovery problem in a chosen dictionary.
"""

from repro.recon.batch import solve_tiles_batched
from repro.recon.operator import (
    frame_operator,
    measurement_factors_from_seed,
    measurement_matrix_from_seed,
)
from repro.recon.pipeline import (
    ReconstructionResult,
    TiledReconstructionResult,
    reconstruct_frame,
    reconstruct_samples,
    reconstruct_tiled,
)

__all__ = [
    "measurement_matrix_from_seed",
    "measurement_factors_from_seed",
    "frame_operator",
    "solve_tiles_batched",
    "reconstruct_frame",
    "reconstruct_samples",
    "reconstruct_tiled",
    "ReconstructionResult",
    "TiledReconstructionResult",
]
