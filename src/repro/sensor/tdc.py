"""Global-counter time-to-digital conversion.

The sensor digitises the time-encoded pixel values with a single global
counter clocked at 24 MHz (Fig. 2): the counter starts at the global pixel
reset, and each time a pixel pulse reaches the foot of its column the current
8-bit count is sampled and handed to the column's 'Sample & Add'.  Because
pulses held back by the token protocol can slip into the following clock
period, a sampled code can be one LSB above the ideal value — the paper
verifies at system level that this error is negligible; benchmark E8 repeats
that verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class GlobalCounterTDC:
    """Free-running global counter sampled by column events.

    Attributes
    ----------
    clock_frequency:
        Counter clock (Table II: 24 MHz).
    n_bits:
        Counter width (8 bits → 256 codes).
    start_delay:
        Initial delay between the pixel reset and the counter start,
        "allocating some initial delay to allow the pulses to reach the
        bottom of the array" (Section III-B).
    """

    clock_frequency: float = 24.0e6
    n_bits: int = 8
    start_delay: float = 0.0

    def __post_init__(self) -> None:
        check_positive("clock_frequency", self.clock_frequency)
        check_positive("n_bits", self.n_bits)
        check_positive("start_delay", self.start_delay, allow_zero=True)

    @property
    def clock_period(self) -> float:
        """One counter tick (s)."""
        return 1.0 / self.clock_frequency

    @property
    def n_codes(self) -> int:
        """Number of representable codes, ``2**n_bits``."""
        return 1 << self.n_bits

    @property
    def max_code(self) -> int:
        """Largest code the counter can deliver."""
        return self.n_codes - 1

    @property
    def conversion_window(self) -> float:
        """Duration covered by one full counter sweep."""
        return self.n_codes * self.clock_period

    # ------------------------------------------------------------ conversion
    def sample(self, times) -> np.ndarray:
        """Sample the counter at the given absolute times (s since reset).

        Times earlier than ``start_delay`` sample code 0; times beyond the
        conversion window clip at the maximum code (the counter has stopped).
        """
        times = np.asarray(times, dtype=float)
        codes = np.floor((times - self.start_delay) / self.clock_period)
        codes = np.clip(codes, 0, self.max_code)
        return codes.astype(np.int64)

    def ideal_codes(self, firing_times) -> np.ndarray:
        """Codes the TDC would produce if every pulse arrived unqueued.

        Non-finite firing times (pixels that never cross the threshold)
        saturate at the maximum code.
        """
        firing_times = np.asarray(firing_times, dtype=float)
        finite = np.isfinite(firing_times)
        codes = np.full(firing_times.shape, self.max_code, dtype=np.int64)
        codes[finite] = self.sample(firing_times[finite])
        return codes

    def code_to_time(self, codes) -> np.ndarray:
        """Centre-of-bin time represented by a counter code."""
        codes = np.asarray(codes, dtype=float)
        return self.start_delay + (codes + 0.5) * self.clock_period

    def quantization_error_bound(self) -> float:
        """Worst-case time error of a single conversion (one clock period)."""
        return self.clock_period

    # ------------------------------------------------------ error modelling
    def late_detection_codes(self, emit_times, fire_times):
        """Codes actually sampled when pulses are emitted at ``emit_times``.

        ``emit_times`` are the bus-occupation times returned by the column
        arbiter; ``fire_times`` the ideal comparator-flip times.  Returns the
        ``(emit_codes, ideal_codes)`` pair; the difference between the two is
        exactly the ±1 LSB (or more, under heavy queueing) late-detection
        error discussed in Section III-B.  The batched event engine calls
        this once per sample block over every delivered event.
        """
        emit_codes = self.sample(np.asarray(emit_times, dtype=float))
        ideal_codes = self.sample(np.asarray(fire_times, dtype=float))
        if emit_codes.shape != ideal_codes.shape:
            raise ValueError("emit_times and fire_times must have the same shape")
        return emit_codes, ideal_codes

    def lsb_error_statistics(self, emit_times, fire_times) -> dict:
        """Summary of the late-detection error over a set of events."""
        emit_codes, ideal_codes = self.late_detection_codes(emit_times, fire_times)
        error = emit_codes - ideal_codes
        return {
            "n_events": int(error.size),
            "n_errors": int(np.count_nonzero(error)),
            "max_error_lsb": int(error.max()) if error.size else 0,
            "mean_error_lsb": float(error.mean()) if error.size else 0.0,
            "error_rate": float(np.count_nonzero(error) / error.size) if error.size else 0.0,
        }


def apply_stochastic_lsb_error(
    codes: np.ndarray,
    probability: float,
    *,
    max_code: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Add a +1 LSB error to each code independently with the given probability.

    Emulates the late-detection error without running the full event-level
    arbitration, one uniform draw per code in order.  Over a pattern's
    selected, unsaturated codes the bump count is Binomial(n, p): the
    distribution the capture engine draws per sample directly, which
    ``tests/sensor/test_lsb_streaming.py`` checks against this function.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {probability}")
    bumps = (rng.random(codes.size) < probability).reshape(codes.shape)
    return np.minimum(codes + bumps.astype(np.int64), int(max_code))
