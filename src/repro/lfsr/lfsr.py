"""A Fibonacci LFSR and an LFSR-driven selection generator.

These are the baselines the paper positions its CA against: an LFSR is the
conventional on-chip pseudo-random source for compressive-sampling
measurement matrices [13][14].  The :class:`LFSRSelectionGenerator` mirrors
the interface of :class:`repro.ca.selection.CASelectionGenerator` so the two
strategies are drop-in interchangeable in the sensor simulator and in the
matrix-quality benchmark (E10).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.ca.selection import selection_masks_from_states
from repro.lfsr.polynomials import primitive_taps
from repro.utils.rng import SeedLike, new_rng
from repro.utils.validation import check_positive


class FibonacciLFSR:
    """A Fibonacci (external-XOR) linear-feedback shift register.

    Parameters
    ----------
    n_bits:
        Register length.
    taps:
        Tap exponents including ``n_bits`` (e.g. ``(8, 6, 5, 4)``).  Defaults
        to a primitive polynomial for maximal period.
    state:
        Initial register value (non-zero).  Drawn at random when omitted.
    seed:
        RNG seed for the random initial state.
    """

    def __init__(
        self,
        n_bits: int,
        taps: Sequence[int] | None = None,
        *,
        state: int | None = None,
        seed: SeedLike = None,
    ) -> None:
        check_positive("n_bits", n_bits)
        self.n_bits = int(n_bits)
        self.taps: tuple[int, ...] = (
            tuple(taps) if taps is not None else primitive_taps(self.n_bits)
        )
        for tap in self.taps:
            if not 1 <= tap <= self.n_bits:
                raise ValueError(f"tap {tap} outside register of {self.n_bits} bits")
        mask = (1 << self.n_bits) - 1
        if state is None:
            rng = new_rng(seed)
            state = int(rng.integers(1, mask + 1))
        state = int(state) & mask
        if state == 0:
            raise ValueError("LFSR state must be non-zero")
        self._initial_state = state
        self._state = state

    @property
    def state(self) -> int:
        """Current register contents as an unsigned integer."""
        return self._state

    @property
    def period(self) -> int:
        """Maximal period for a primitive polynomial: ``2**n_bits - 1``."""
        return (1 << self.n_bits) - 1

    def reset(self, state: int | None = None) -> None:
        """Reload the initial state (or a new non-zero ``state``)."""
        if state is not None:
            state = int(state) & ((1 << self.n_bits) - 1)
            if state == 0:
                raise ValueError("LFSR state must be non-zero")
            self._initial_state = state
        self._state = self._initial_state

    def step(self) -> int:
        """Advance one cycle and return the output bit (the last stage).

        Stages are numbered 1..n with stage ``n`` as the output; the feedback
        into stage 1 is the XOR of the tapped stages, which realises the
        tabulated primitive polynomial and hence the maximal period.
        """
        feedback = 0
        for tap in self.taps:
            feedback ^= (self._state >> (tap - 1)) & 1
        output = (self._state >> (self.n_bits - 1)) & 1
        self._state = ((self._state << 1) | feedback) & ((1 << self.n_bits) - 1)
        return output

    def bits(self, n_bits: int) -> np.ndarray:
        """Return the next ``n_bits`` output bits as a ``uint8`` array."""
        check_positive("n_bits", n_bits)
        return np.array([self.step() for _ in range(int(n_bits))], dtype=np.uint8)

    def state_bits(self) -> np.ndarray:
        """Current register contents as an MSB-first bit array (parallel read-out)."""
        return np.array(
            [(self._state >> shift) & 1 for shift in range(self.n_bits - 1, -1, -1)],
            dtype=np.uint8,
        )


class LFSRSelectionGenerator:
    """Selection-pattern generator driven by an LFSR instead of the Rule 30 CA.

    Produces, for every compressed sample, a fresh ``rows + cols`` bit window
    from the LFSR output stream; rows and columns are then combined by the
    same XOR construction as the CA generator, so only the pseudo-random
    source differs.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        *,
        n_bits: int = 32,
        taps: Iterable[int] | None = None,
        state: int | None = None,
        seed: SeedLike = None,
    ) -> None:
        check_positive("rows", rows)
        check_positive("cols", cols)
        self.rows = int(rows)
        self.cols = int(cols)
        self._lfsr = FibonacciLFSR(n_bits, taps, state=state, seed=seed)
        self._initial_state = self._lfsr.state
        self._sample_index = 0

    @property
    def sample_index(self) -> int:
        """Index of the next pattern to be generated."""
        return self._sample_index

    @property
    def seed_value(self) -> int:
        """The LFSR seed — the information the receiver needs to rebuild Φ."""
        return self._initial_state

    def reset(self) -> None:
        """Rewind to the seed."""
        self._lfsr.reset(self._initial_state)
        self._sample_index = 0

    def next_pattern(self) -> np.ndarray:
        """Return the next ``rows x cols`` binary selection mask.

        The LFSR output window plays the role of the CA state — the first
        ``rows`` bits drive the row lines, the rest the columns — and the
        mask expansion rides the one shared XOR builder in
        :func:`repro.ca.selection.selection_masks_from_states` (the shared-Φ
        invariant covers the LFSR path too).
        """
        window = self._lfsr.bits(self.rows + self.cols)
        self._sample_index += 1
        return selection_masks_from_states(
            window[None, :], self.rows, self.cols
        ).reshape(self.rows, self.cols)

    def measurement_matrix(self, n_samples: int) -> np.ndarray:
        """Return Φ as an ``n_samples x (rows*cols)`` binary matrix (from the seed)."""
        check_positive("n_samples", n_samples)
        clone = LFSRSelectionGenerator(
            self.rows,
            self.cols,
            n_bits=self._lfsr.n_bits,
            taps=self._lfsr.taps,
            state=self._initial_state,
        )
        # One contiguous bit pull from the re-seeded clone, expanded in a
        # single batched pass through the shared builder — bit-identical to
        # per-pattern iteration and non-destructive to this generator.
        window = clone._lfsr.bits(int(n_samples) * (self.rows + self.cols))
        states = window.reshape(int(n_samples), self.rows + self.cols)
        return selection_masks_from_states(states, self.rows, self.cols)
