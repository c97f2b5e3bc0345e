"""Deterministic random-number handling.

Everything in the library that involves randomness — CA seeds, LFSR seeds,
Gaussian measurement matrices, scene generation, noise injection — funnels
through :func:`new_rng` / :func:`derive_seed`, so every experiment is exactly
reproducible from a single integer seed.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator]


def new_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned unchanged so callers can thread a generator through
    a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(base_seed: int, *labels: str | int) -> int:
    """Derive a stable sub-seed from ``base_seed`` and a sequence of labels.

    Used to give independent, reproducible randomness to the different
    subsystems of one experiment (e.g. ``derive_seed(seed, "scene", frame)``
    vs. ``derive_seed(seed, "comparator-offset")``) without the subsystems
    sharing a generator and therefore coupling their draws.
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(base_seed)).encode("utf-8"))
    for label in labels:
        hasher.update(b"/")
        hasher.update(str(label).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big")


def nonzero_seed_bits(n_bits: int, seed: SeedLike = None) -> np.ndarray:
    """Random bit vector guaranteed to contain at least one set bit.

    CA and LFSR registers initialised to all-zero get stuck in the zero
    state; seeds for those generators come from here.
    """
    if n_bits <= 0:
        raise ValueError(f"n_bits must be positive, got {n_bits}")
    rng = new_rng(seed)
    bits = (rng.random(n_bits) < 0.5).astype(np.uint8)
    if not bits.any():
        bits[int(rng.integers(n_bits))] = 1
    return bits
