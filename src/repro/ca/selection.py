"""Row/column selection-signal generation for the full-frame compressive strategy.

In the sensor of Fig. 2 a single 1-D cellular automaton of ``rows + cols``
cells surrounds the pixel array.  At every compressed sample the cells
assigned to the rows drive the row selection lines ``S_i`` and the cells
assigned to the columns drive the column selection lines ``S_j``; pixel
``(i, j)`` contributes to that compressed sample iff ``S_i XOR S_j`` is 1
(the 6-transistor XOR gate of Fig. 1).  Advancing the CA by one (or more)
clock cycles produces the next row of the measurement matrix Φ.

Because the CA is deterministic, the complete Φ is a pure function of the
seed — this is the property the paper exploits to avoid transmitting or
storing Φ.

Φ is built *batched*: the CA states for a whole frame are evolved in one
pass (:meth:`~repro.ca.automaton.ElementaryCellularAutomaton.evolve_states`)
and expanded into the ``(n_samples, rows*cols)`` selection matrix with a
single broadcast XOR — no per-sample Python objects.  The module-level
:func:`ca_measurement_matrix` (dense Φ) and :func:`ca_selection_factors`
(its ``(R, C)`` factors) are the only seed-to-Φ builders: a captured
frame's Φ, the receiver's reconstruction pipeline and the matrix-quality
baselines all come from them, so the two ends of the channel cannot drift
apart.  :class:`CASelectionGenerator` is the sensor's stateful view of the
same CA: its batched :meth:`~CASelectionGenerator.next_states` feeds the
capture engines, and its per-pattern iterator
(:meth:`CASelectionGenerator.next_pattern`,
:meth:`CASelectionGenerator.patterns`) is what the bit-fidelity reference
capture loop walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator

import numpy as np

from repro.ca.automaton import BoundaryCondition, ElementaryCellularAutomaton
from repro.ca.rules import RuleTable
from repro.utils.rng import SeedLike, nonzero_seed_bits
from repro.utils.validation import check_binary_array, check_positive


def selection_masks_from_states(states: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Expand a stack of CA states into flattened XOR selection masks.

    ``states`` has shape ``(n_samples, rows + cols)``; the first ``rows``
    cells of each state drive the row lines and the remainder the column
    lines.  The result is the ``(n_samples, rows * cols)`` ``uint8`` slice of
    Φ produced by the ``S_i XOR S_j`` gate of Fig. 1, computed for the whole
    batch with one broadcast XOR.
    """
    states = np.asarray(states, dtype=np.uint8)
    if states.ndim != 2 or states.shape[1] != rows + cols:
        raise ValueError(
            f"states must have shape (n, {rows + cols}), got {states.shape}"
        )
    row_signals = states[:, :rows]
    col_signals = states[:, rows:]
    masks = np.bitwise_xor(row_signals[:, :, None], col_signals[:, None, :])
    return masks.reshape(states.shape[0], rows * cols)


def selection_factors_from_states(
    states: np.ndarray, rows: int, cols: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split a stack of CA states into the row/column factors ``(R, C)``.

    ``R`` is the ``(n_samples, rows)`` slice of cells driving the row
    selection lines and ``C`` the ``(n_samples, cols)`` slice driving the
    columns.  These are the *pre-expansion* factors of the measurement
    matrix: ``Φ[i] = R_i ⊕ C_i`` as an outer XOR, equivalently
    ``Φ[i,(r,c)] = R[i,r] + C[i,c] − 2·R[i,r]·C[i,c]`` — the rank-structured
    form both the sensor's batched capture and the receiver's matrix-free
    :class:`~repro.cs.structured.StructuredSensingOperator` compute with
    instead of materialising Φ.
    """
    states = np.asarray(states, dtype=np.uint8)
    if states.ndim != 2 or states.shape[1] != rows + cols:
        raise ValueError(
            f"states must have shape (n, {rows + cols}), got {states.shape}"
        )
    return states[:, :rows].copy(), states[:, rows:].copy()


def _evolved_states(
    n_samples: int,
    rows: int,
    cols: int,
    seed_state: np.ndarray,
    *,
    rule: int | RuleTable,
    steps_per_sample: int,
    warmup_steps: int,
    boundary: BoundaryCondition,
) -> np.ndarray:
    """The shared CA evolution behind the dense and factored Φ builders."""
    check_positive("n_samples", n_samples)
    check_positive("rows", rows)
    check_positive("cols", cols)
    automaton = ElementaryCellularAutomaton(
        rows + cols, rule, seed_state=np.asarray(seed_state), boundary=boundary
    )
    if warmup_steps:
        automaton.step(int(warmup_steps))
    return automaton.evolve_states(int(n_samples), int(steps_per_sample))


def ca_selection_factors(
    n_samples: int,
    rows: int,
    cols: int,
    seed_state: np.ndarray,
    *,
    rule: int | RuleTable = 30,
    steps_per_sample: int = 1,
    warmup_steps: int = 0,
    boundary: BoundaryCondition = BoundaryCondition.PERIODIC,
) -> tuple[np.ndarray, np.ndarray]:
    """Build the row/column CA factors ``(R, C)`` of Φ from a seed.

    This is the factored twin of :func:`ca_measurement_matrix`: it runs the
    *same* batched CA evolution but stops before the broadcast-XOR
    expansion, returning the ``(n_samples, rows)`` / ``(n_samples, cols)``
    ``uint8`` factor pair instead of the ``(n_samples, rows*cols)`` dense
    matrix.  ``selection_masks_from_states`` applied to the re-joined
    factors reproduces the dense Φ bit for bit, so the two builders cannot
    drift apart — the recon-equivalence suite pins this.
    """
    states = _evolved_states(
        n_samples,
        rows,
        cols,
        seed_state,
        rule=rule,
        steps_per_sample=steps_per_sample,
        warmup_steps=warmup_steps,
        boundary=boundary,
    )
    return selection_factors_from_states(states, int(rows), int(cols))


def ca_measurement_matrix(
    n_samples: int,
    rows: int,
    cols: int,
    seed_state: np.ndarray,
    *,
    rule: int | RuleTable = 30,
    steps_per_sample: int = 1,
    warmup_steps: int = 0,
    boundary: BoundaryCondition = BoundaryCondition.PERIODIC,
) -> np.ndarray:
    """Build Φ from a CA seed in one batched pass — the shared Φ builder.

    Every consumer of a dense CA measurement matrix (a frame's
    :meth:`~repro.sensor.imager.CompressedFrame.measurement_matrix`, the
    receiver's dense reference in :func:`repro.recon.operator.frame_operator`,
    the CS baselines) routes through this function, which guarantees that the
    matrix used for capture and the matrix rebuilt for reconstruction are the
    same batched computation, bit for bit.

    Parameters
    ----------
    n_samples : int
        Number of selection patterns (rows of Φ) to generate.
    rows, cols : int
        Pixel-array dimensions; the CA ring has ``rows + cols`` cells.
    seed_state : numpy.ndarray
        The CA seed bits, shape ``(rows + cols,)``, values in {0, 1} — the
        side information shared between sensor and receiver.
    rule : int or RuleTable
        CA rule number (30 in the paper).
    steps_per_sample : int
        CA clock cycles between consecutive patterns.
    warmup_steps : int
        CA clock cycles applied once before the first pattern.
    boundary : BoundaryCondition
        Ring boundary condition; the hardware ring is periodic.

    Returns
    -------
    numpy.ndarray
        Φ as a ``(n_samples, rows * cols)`` ``uint8`` 0/1 matrix, pattern
        masks flattened in raster order.
    """
    states = _evolved_states(
        n_samples,
        rows,
        cols,
        seed_state,
        rule=rule,
        steps_per_sample=steps_per_sample,
        warmup_steps=warmup_steps,
        boundary=boundary,
    )
    return selection_masks_from_states(states, int(rows), int(cols))


@dataclass(frozen=True)
class SelectionPattern:
    """One pixel-selection pattern (one row of the measurement matrix).

    Attributes
    ----------
    index:
        Ordinal of the compressed sample this pattern belongs to.
    row_signals, col_signals:
        The CA cell states driving the row / column selection lines.
    mask:
        The ``rows x cols`` binary selection mask ``S_i XOR S_j``.
    """

    index: int
    row_signals: np.ndarray
    col_signals: np.ndarray
    mask: np.ndarray

    @property
    def density(self) -> float:
        """Fraction of selected pixels (the XOR construction targets ~1/2)."""
        return float(np.count_nonzero(self.mask) / self.mask.size)

    def as_vector(self) -> np.ndarray:
        """The mask flattened in raster order — one row of Φ."""
        return self.mask.reshape(-1)


class CASelectionGenerator:
    """Generates successive pixel-selection patterns from a seeded CA.

    Parameters
    ----------
    rows, cols:
        Pixel-array dimensions.  The CA register has ``rows + cols`` cells;
        the first ``rows`` cells drive the row lines, the rest the columns.
    seed_state:
        Explicit CA seed (``rows + cols`` bits).  This is the quantity the
        sensor would share with the receiver.  If omitted, a random non-zero
        seed is drawn from ``seed``.
    rule:
        CA rule; the paper uses Rule 30.
    steps_per_sample:
        How many CA clock cycles separate consecutive selection patterns.
        One step already decorrelates neighbouring patterns for Rule 30;
        larger values trade selection-update time for extra mixing.
    warmup_steps:
        CA clock cycles applied once, before the first pattern, to wash out
        the (possibly low-entropy) seed.
    boundary:
        CA boundary condition; the hardware ring is periodic.
    seed:
        RNG seed used only to draw ``seed_state`` when it is not supplied.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        *,
        seed_state: np.ndarray | None = None,
        rule: int | RuleTable = 30,
        steps_per_sample: int = 1,
        warmup_steps: int = 0,
        boundary: BoundaryCondition = BoundaryCondition.PERIODIC,
        seed: SeedLike = None,
    ) -> None:
        check_positive("rows", rows)
        check_positive("cols", cols)
        check_positive("steps_per_sample", steps_per_sample)
        check_positive("warmup_steps", warmup_steps, allow_zero=True)
        self.rows = int(rows)
        self.cols = int(cols)
        self.steps_per_sample = int(steps_per_sample)
        self.warmup_steps = int(warmup_steps)
        n_cells = self.rows + self.cols
        if seed_state is None:
            seed_state = nonzero_seed_bits(n_cells, seed)
        else:
            seed_state = check_binary_array("seed_state", np.asarray(seed_state))
            if seed_state.size != n_cells:
                raise ValueError(
                    f"seed_state must have rows + cols = {n_cells} bits, got {seed_state.size}"
                )
        self._seed_state = seed_state.copy()
        self._automaton = ElementaryCellularAutomaton(
            n_cells, rule, seed_state=seed_state, boundary=boundary
        )
        self._sample_index = 0
        if self.warmup_steps:
            self._automaton.step(self.warmup_steps)

    # ----------------------------------------------------------------- state
    @property
    def seed_state(self) -> np.ndarray:
        """The CA seed — the only thing that must be shared with the receiver."""
        return self._seed_state.copy()

    @property
    def rule(self) -> RuleTable:
        """The CA rule driving the register."""
        return self._automaton.rule

    @property
    def sample_index(self) -> int:
        """Index of the next pattern that :meth:`next_pattern` will produce."""
        return self._sample_index

    def reset(self) -> None:
        """Rewind to the state right after seeding (and warm-up)."""
        self._automaton.reset(self._seed_state)
        if self.warmup_steps:
            self._automaton.step(self.warmup_steps)
        self._sample_index = 0

    # -------------------------------------------------------------- patterns
    def _pattern_from_state(self, state: np.ndarray, index: int) -> SelectionPattern:
        row_signals = state[: self.rows].astype(np.uint8)
        col_signals = state[self.rows:].astype(np.uint8)
        mask = np.bitwise_xor.outer(row_signals, col_signals).astype(np.uint8)
        return SelectionPattern(
            index=index,
            row_signals=row_signals,
            col_signals=col_signals,
            mask=mask,
        )

    def next_states(self, n_patterns: int) -> np.ndarray:
        """Consume the CA states of the next ``n_patterns`` selection patterns.

        Returns the ``(n_patterns, rows + cols)`` ``uint8`` state stack and
        advances the generator exactly as ``n_patterns`` calls of
        :meth:`next_pattern` would: the first state is the current one unless
        patterns have already been consumed, and each subsequent state lies
        ``steps_per_sample`` CA generations further on.  This is the batched
        primitive behind both the capture fast path and the pattern iterator.
        """
        check_positive("n_patterns", n_patterns)
        states = self._automaton.evolve_states(
            int(n_patterns),
            self.steps_per_sample,
            step_before_first=self._sample_index > 0,
        )
        self._sample_index += int(n_patterns)
        return states

    def next_pattern(self) -> SelectionPattern:
        """Return the selection pattern for the next compressed sample.

        The first pattern is derived from the post-warm-up seed state itself;
        subsequent patterns advance the CA by ``steps_per_sample`` cycles.
        """
        index = self._sample_index
        state = self.next_states(1)[0]
        return self._pattern_from_state(state, index)

    def patterns(self, n_patterns: int) -> Iterator[SelectionPattern]:
        """Yield the next ``n_patterns`` selection patterns.

        Lazy: the CA advances one pattern per iteration, so a consumer that
        stops early leaves the generator positioned exactly on the last
        pattern it took (the pre-batching contract).  Batch consumers that
        want the whole stretch at once should use :meth:`next_states`, which
        evolves it in a single pass.
        """
        check_positive("n_patterns", n_patterns)
        for _ in range(int(n_patterns)):
            yield self.next_pattern()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CASelectionGenerator(rows={self.rows}, cols={self.cols}, "
            f"rule={self._automaton.rule.number}, steps_per_sample={self.steps_per_sample})"
        )
