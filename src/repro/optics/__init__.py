"""Synthetic scenes and the optical/electrical front-end model.

The prototype chip was characterised with lab optics; here the stimulus is
synthetic.  :mod:`repro.optics.scenes` generates test images with the
sparsity statistics that matter for compressive sampling (piecewise-smooth
regions, 1/f spectra, bars, point sources), and :mod:`repro.optics.photo`
converts scene irradiance into per-pixel photocurrents with the usual noise
sources (shot noise, dark current, fixed-pattern noise).
"""

from repro.optics.photo import PhotoConversion
from repro.optics.motion import orbiting_blob_sequence
from repro.optics.scenes import list_scenes, make_scene

__all__ = [
    "make_scene",
    "list_scenes",
    "PhotoConversion",
    "orbiting_blob_sequence",
]
