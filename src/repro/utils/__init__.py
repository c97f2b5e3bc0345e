"""Shared utilities: validation, bit manipulation, image helpers and RNG.

These helpers are deliberately small and dependency-free (numpy only) so that
every other subsystem — cellular automata, pixel models, the sensor simulator
and the compressive-sampling core — can rely on them without pulling in the
heavier packages.
"""

from repro.utils.bitops import bit_width
from repro.utils.images import (
    block_view,
    image_to_vector,
    normalize_image,
    unblock_view,
)
from repro.utils.rng import derive_seed, new_rng
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_power_of_two,
    check_probability,
)

__all__ = [
    "bit_width",
    "block_view",
    "image_to_vector",
    "normalize_image",
    "unblock_view",
    "derive_seed",
    "new_rng",
    "check_in_range",
    "check_positive",
    "check_power_of_two",
    "check_probability",
]
