"""Sensor-level architecture model (Fig. 2).

This package assembles the pixel model, the CA selection generator and the
column read-out chain into a full behavioural simulator of the prototype
chip:

* :mod:`repro.sensor.config` — :class:`SensorConfig`, the single place where
  the Table II parameters live, with every derived quantity (bit widths,
  conversion window, maximum compressed-sample rate) computed from them.
* :mod:`repro.sensor.column_bus` — the shared column bus with the
  ``C_in``/``C_out`` token protocol and the global event-termination pulse.
* :mod:`repro.sensor.tdc` — the global-counter time-to-digital converter and
  its ±1 LSB late-detection error model.
* :mod:`repro.sensor.sample_add` — the per-column 'Sample & Add' accumulators
  and the final adder producing the 20-bit compressed sample.
* :mod:`repro.sensor.power` — parametric power/area model used to regenerate
  Table II.
* :mod:`repro.sensor.imager` — :class:`CompressiveImager`, the top-level
  object: scene in, compressed samples (plus the CA seed) out.
* :mod:`repro.sensor.shard` — :class:`TiledSensorArray`, a mosaic of
  independent imager tiles capturing one large scene concurrently.
"""

from repro.sensor.column_bus import ColumnBusArbiter, ColumnControlUnit
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressedFrame, CompressiveImager
from repro.sensor.power import PowerAreaModel, chip_feature_summary
from repro.sensor.sample_add import ColumnAccumulator, SampleAndAdd
from repro.sensor.shard import (
    TiledCaptureResult,
    TiledSensorArray,
    TileSlot,
    merge_tile_statistics,
    tile_grid,
)
from repro.sensor.tdc import GlobalCounterTDC
from repro.sensor.video import VideoCaptureResult, VideoSequencer

__all__ = [
    "SensorConfig",
    "ColumnBusArbiter",
    "ColumnControlUnit",
    "GlobalCounterTDC",
    "ColumnAccumulator",
    "SampleAndAdd",
    "PowerAreaModel",
    "chip_feature_summary",
    "CompressiveImager",
    "CompressedFrame",
    "VideoSequencer",
    "VideoCaptureResult",
    "TiledSensorArray",
    "TiledCaptureResult",
    "TileSlot",
    "merge_tile_statistics",
    "tile_grid",
]
