"""Elementary cellular-automaton engine.

The paper's selection CA is a one-dimensional register of Rule 30 cells that
surrounds the pixel array (Fig. 2).  The engine below is rule-agnostic — any
:class:`~repro.ca.rules.RuleTable` can drive it — and supports the two
boundary conditions that make sense for a hardware ring of cells: a closed
ring (periodic) and fixed logic levels at both ends.
"""

from __future__ import annotations

import enum
import functools
from collections.abc import Iterable

import numpy as np

from repro.ca.rules import RuleTable
from repro.utils.rng import SeedLike, nonzero_seed_bits
from repro.utils.validation import check_binary_array


@functools.cache
def rule_monomials(rule_number: int) -> tuple[tuple[int, ...], ...]:
    """The algebraic normal form of an elementary rule, as its monomials.

    Each monomial lists the neighbourhood variables it multiplies (0 left,
    1 centre, 2 right; the empty monomial is the constant 1), and the rule
    is the XOR of its monomials.  A monomial's coefficient is the Möbius
    transform of the truth table: the XOR of the outputs on every
    neighbourhood whose high cells lie inside the monomial.
    """
    monomials = []
    for subset in range(8):
        variables = tuple(index for index in range(3) if subset & (4 >> index))
        coefficient = 0
        for pattern in range(8):
            if pattern & ~subset == 0:
                coefficient ^= (rule_number >> pattern) & 1
        if coefficient:
            monomials.append(variables)
    return tuple(monomials)


class BoundaryCondition(enum.Enum):
    """Boundary handling for the 1-D cell register."""

    #: The register closes on itself (cell 0's left neighbour is the last cell).
    PERIODIC = "periodic"
    #: Cells beyond the register edges read as constant logic '0'.
    FIXED_ZERO = "fixed_zero"
    #: Cells beyond the register edges read as constant logic '1'.
    FIXED_ONE = "fixed_one"


class ElementaryCellularAutomaton:
    """A one-dimensional, radius-1, binary cellular automaton.

    Parameters
    ----------
    n_cells:
        Number of cells in the register.  For the paper's sensor this is
        ``rows + cols`` (the CA wraps around the array and feeds both the row
        and the column selection lines).
    rule:
        The update rule, either a Wolfram code or a :class:`RuleTable`.
    seed_state:
        Initial register contents as an iterable of bits.  When omitted, a
        random non-zero state is drawn from ``seed``.
    boundary:
        One of :class:`BoundaryCondition`.  Hardware rings use ``PERIODIC``.
    seed:
        RNG seed used only when ``seed_state`` is not given.
    """

    def __init__(
        self,
        n_cells: int,
        rule: int | RuleTable = 30,
        *,
        seed_state: Iterable[int] | None = None,
        boundary: BoundaryCondition = BoundaryCondition.PERIODIC,
        seed: SeedLike = None,
    ) -> None:
        if n_cells < 3:
            raise ValueError(f"n_cells must be at least 3, got {n_cells}")
        self.n_cells = int(n_cells)
        self.rule = rule if isinstance(rule, RuleTable) else RuleTable(int(rule))
        self.boundary = BoundaryCondition(boundary)
        if seed_state is None:
            state = nonzero_seed_bits(self.n_cells, seed)
        else:
            state = check_binary_array("seed_state", np.array(list(seed_state)))
            if state.size != self.n_cells:
                raise ValueError(
                    f"seed_state has {state.size} bits, expected {self.n_cells}"
                )
        self._initial_state = state.copy()
        self._state = state.copy()
        self._generation = 0

    # ------------------------------------------------------------------ state
    @property
    def state(self) -> np.ndarray:
        """Current register contents (copy, ``uint8``)."""
        return self._state.copy()

    @property
    def initial_state(self) -> np.ndarray:
        """The seed the register was initialised (or last reset) with."""
        return self._initial_state.copy()

    @property
    def generation(self) -> int:
        """Number of update steps applied since the last reset."""
        return self._generation

    def reset(self, seed_state: Iterable[int] | None = None) -> None:
        """Reset to the original seed, or to a new ``seed_state`` if given."""
        if seed_state is not None:
            state = check_binary_array("seed_state", np.array(list(seed_state)))
            if state.size != self.n_cells:
                raise ValueError(
                    f"seed_state has {state.size} bits, expected {self.n_cells}"
                )
            self._initial_state = state.copy()
        self._state = self._initial_state.copy()
        self._generation = 0

    # ---------------------------------------------------------------- update
    def step(self, n_steps: int = 1) -> np.ndarray:
        """Advance the automaton ``n_steps`` generations and return the new state."""
        if n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {n_steps}")
        return self._evolve(1, int(n_steps), step_before_first=True)[0]

    def evolve_states(
        self,
        n_snapshots: int,
        stride: int = 1,
        *,
        step_before_first: bool = False,
    ) -> np.ndarray:
        """Advance the automaton and collect ``n_snapshots`` strided states.

        This is the batched form behind the vectorised Φ builder: the whole
        evolution runs in one pass and the snapshot stack comes back as a
        single ``(n_snapshots, n_cells)`` ``uint8`` array.

        Parameters
        ----------
        n_snapshots:
            Number of states to record.
        stride:
            CA generations between consecutive snapshots.
        step_before_first:
            When false (default) snapshot 0 is the automaton's current state
            and ``(n_snapshots - 1) * stride`` generations are applied in
            total; when true the automaton advances ``stride`` generations
            before every snapshot, including the first.

        The automaton is left positioned on the last snapshot, exactly as if
        the equivalent sequence of :meth:`step` calls had been made.
        """
        if n_snapshots < 0:
            raise ValueError(f"n_snapshots must be non-negative, got {n_snapshots}")
        if stride < 1:
            raise ValueError(f"stride must be at least 1, got {stride}")
        return self._evolve(
            int(n_snapshots), int(stride), step_before_first=step_before_first
        )

    def _evolve(
        self, n_snapshots: int, stride: int, *, step_before_first: bool
    ) -> np.ndarray:
        """The one update engine: every stepping method calls this.

        The register is packed into one Python integer (bit ``i`` is cell
        ``i``) and the rule is applied over the whole register at once in its
        algebraic normal form: the XOR of the rule's monomials over
        ``(left, centre, right)`` (:func:`rule_monomials`; Rule 30 is
        ``l ⊕ c ⊕ r ⊕ c·r``).  The neighbour words are the register shifted
        by one cell, with the boundary shifted in at the open end: the
        wrapped-around cell on a ring, a constant fill bit otherwise.
        Arbitrary-precision integer ops make this a handful of word-level
        operations per generation instead of a numpy call chain, which
        matters because CA evolution is the only serial part of the batched
        Φ builder.
        """
        n_cells = self.n_cells
        if n_snapshots == 0:
            return np.empty((0, n_cells), dtype=np.uint8)
        top = n_cells - 1
        ring_mask = (1 << n_cells) - 1
        periodic = self.boundary is BoundaryCondition.PERIODIC
        # The bits shifted in at cell 0's left and cell n-1's right: the
        # fixed boundary's fill, or on a ring the wrapped-around cells (set
        # each generation below).
        fill_left = int(self.boundary is BoundaryCondition.FIXED_ONE)
        fill_right = fill_left << top
        packed = int.from_bytes(
            np.packbits(self._state, bitorder="little").tobytes(), "little"
        )
        # Each monomial as (first factor, further factors); factor 3 is the
        # all-ones register, the constant monomial.
        monomials = [
            (monomial[0], monomial[1:]) if monomial else (3, ())
            for monomial in rule_monomials(self.rule.number)
        ]
        n_bytes = (n_cells + 7) // 8
        packed_rows = bytearray()
        for snapshot_index in range(n_snapshots):
            if snapshot_index > 0 or step_before_first:
                for _ in range(stride):
                    if periodic:
                        fill_left, fill_right = packed >> top, (packed & 1) << top
                    # Bit i of factors[0] is cell i's left neighbour, of
                    # factors[2] its right one.
                    factors = (
                        ((packed << 1) | fill_left) & ring_mask,
                        packed,
                        (packed >> 1) | fill_right,
                        ring_mask,
                    )
                    next_packed = 0
                    for first, further in monomials:
                        term = factors[first]
                        for factor in further:
                            term &= factors[factor]
                        next_packed ^= term
                    packed = next_packed
            packed_rows += packed.to_bytes(n_bytes, "little")
        n_advances = n_snapshots if step_before_first else n_snapshots - 1
        self._generation += stride * n_advances
        snapshots = np.unpackbits(
            np.frombuffer(bytes(packed_rows), dtype=np.uint8).reshape(n_snapshots, n_bytes),
            axis=1,
            count=n_cells,
            bitorder="little",
        )
        self._state = snapshots[-1].copy()
        return snapshots

    def run(self, n_steps: int, *, include_initial: bool = True) -> np.ndarray:
        """Run ``n_steps`` generations and return the full space-time diagram.

        The result has shape ``(n_steps + 1, n_cells)`` when
        ``include_initial`` is true (row 0 is the current state before
        stepping), else ``(n_steps, n_cells)``.
        """
        if n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {n_steps}")
        return self._evolve(
            int(n_steps) + bool(include_initial), 1, step_before_first=not include_initial
        )

    # ------------------------------------------------------------- utilities
    def center_column(self, n_steps: int) -> np.ndarray:
        """Bit sequence produced by the centre cell over ``n_steps`` updates.

        The centre column of Rule 30 is the classic pseudo-random bit source
        (it is what Mathematica's ``RandomInteger`` historically used); it is
        a convenient scalar stream for the statistical tests.
        """
        if n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {n_steps}")
        states = self._evolve(int(n_steps), 1, step_before_first=True)
        return states[:, self.n_cells // 2].copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ElementaryCellularAutomaton(n_cells={self.n_cells}, rule={self.rule.number}, "
            f"boundary={self.boundary.value}, generation={self._generation})"
        )
