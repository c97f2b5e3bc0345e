"""Conversion of scene irradiance into per-pixel photocurrents.

The pixel of Fig. 1 integrates a photocurrent on its sense node; the time it
takes the node to cross the comparator reference encodes the light level.
This module turns a normalised scene (relative irradiance in ``[0, 1]``) into
an array of photocurrents with the relevant non-idealities:

* responsivity and full-scale photocurrent of the n-well/p-substrate diode,
* dark current (a floor that keeps fully dark pixels from never firing),
* photon shot noise (Poisson statistics on the collected charge),
* pixel-to-pixel photoresponse non-uniformity (gain fixed-pattern noise).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import SeedLike, new_rng
from repro.utils.validation import check_positive

#: Elementary charge in coulombs.
ELECTRON_CHARGE = 1.602176634e-19


@dataclass
class PhotoConversion:
    """Parameters of the irradiance-to-photocurrent conversion.

    Attributes
    ----------
    full_scale_current:
        Photocurrent (A) generated by a pixel at irradiance 1.0.  The default
        (10 nA) corresponds to strong illumination on the small
        n-well/p-substrate diode, which is what a per-sample integration
        window of only ~10-20 µs (Section III-B) requires.
    dark_current:
        Photocurrent floor (A) present even at zero irradiance.  It lumps the
        diode dark current together with the ambient (background) illumination
        of the scene; the default 10:1 full-scale-to-floor ratio keeps the
        reciprocal light-to-time mapping inside the 8-bit counter range.
    prnu_sigma:
        Relative sigma of the pixel gain fixed-pattern noise.
    shot_noise:
        Whether to add photon shot noise to the integrated charge.
    integration_time:
        Nominal exposure (s) used to convert current into collected electrons
        for the shot-noise computation; defaults to the ~10 us conversion
        window of the prototype.
    seed:
        Seed for the FPN map and the shot-noise draws.
    """

    full_scale_current: float = 10.0e-9
    dark_current: float = 1.0e-9
    prnu_sigma: float = 0.01
    shot_noise: bool = True
    integration_time: float = 10.0e-6
    seed: int = 2018
    _prnu_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        check_positive("full_scale_current", self.full_scale_current)
        check_positive("dark_current", self.dark_current, allow_zero=True)
        check_positive("prnu_sigma", self.prnu_sigma, allow_zero=True)
        check_positive("integration_time", self.integration_time)

    def prnu_map(self, shape) -> np.ndarray:
        """Multiplicative gain map (mean 1.0), fixed per sensor instance."""
        key = (int(shape[0]), int(shape[1]))
        if key not in self._prnu_cache:
            rng = new_rng(self.seed)
            gains = 1.0 + self.prnu_sigma * rng.standard_normal(key)
            self._prnu_cache[key] = np.clip(gains, 0.1, None)
        return self._prnu_cache[key]

    def convert(self, scene: np.ndarray, *, rng: SeedLike = None) -> np.ndarray:
        """Convert a normalised scene into a photocurrent array (amperes)."""
        scene = np.asarray(scene, dtype=float)
        if scene.ndim != 2:
            raise ValueError(f"scene must be 2-D, got {scene.ndim} dimensions")
        if scene.min() < 0.0 or scene.max() > 1.0 + 1e-9:
            raise ValueError("scene must be normalised to [0, 1]")
        gains = self.prnu_map(scene.shape)
        current = self.dark_current + scene * self.full_scale_current * gains
        if self.shot_noise:
            generator = new_rng(rng if rng is not None else self.seed + 1)
            electrons = current * self.integration_time / ELECTRON_CHARGE
            noisy_electrons = generator.poisson(np.clip(electrons, 0.0, None))
            current = noisy_electrons * ELECTRON_CHARGE / self.integration_time
            current = np.maximum(current, self.dark_current * 0.1)
        return current
