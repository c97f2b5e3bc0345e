"""Elementary cellular-automaton rules in Wolfram coding.

A radius-1 elementary CA updates each cell from the triple (L, S, R): the
left neighbour, the cell itself and the right neighbour.  The 8 possible
neighbourhoods are numbered 7..0 by reading ``LSR`` as a binary number, and a
rule is the 8-bit word listing the next state for each neighbourhood — the
Wolfram code.  Table I of the paper is exactly the truth table of Rule 30.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Neighbourhoods in the order used by Table I of the paper (LSR from 111 to 000).
NEIGHBORHOOD_ORDER: tuple[tuple[int, int, int], ...] = (
    (1, 1, 1),
    (1, 1, 0),
    (1, 0, 1),
    (1, 0, 0),
    (0, 1, 1),
    (0, 1, 0),
    (0, 0, 1),
    (0, 0, 0),
)


@dataclass(frozen=True)
class RuleTable:
    """Truth table of an elementary (radius-1, binary) CA rule.

    Parameters
    ----------
    number:
        Wolfram code of the rule, 0..255.
    """

    number: int

    def __post_init__(self) -> None:
        if not 0 <= self.number <= 255:
            raise ValueError(f"rule number must be in [0, 255], got {self.number}")

    def next_state(self, left: int, center: int, right: int) -> int:
        """Next state of a cell with neighbourhood ``(left, center, right)``."""
        for value, name in ((left, "left"), (center, "center"), (right, "right")):
            if value not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1, got {value}")
        index = (left << 2) | (center << 1) | right
        return (self.number >> index) & 1

    def as_table(self) -> list[tuple[int, int, int, int]]:
        """Return rows ``(L, S, R, NS)`` in the order used by Table I of the paper."""
        return [
            (left, center, right, self.next_state(left, center, right))
            for left, center, right in NEIGHBORHOOD_ORDER
        ]

    def as_dict(self) -> dict[tuple[int, int, int], int]:
        """Return the truth table as a ``{(L, S, R): NS}`` mapping."""
        return {
            (left, center, right): self.next_state(left, center, right)
            for left, center, right in NEIGHBORHOOD_ORDER
        }

    def output_column(self) -> np.ndarray:
        """The NS column of :meth:`as_table` as a numpy array."""
        return np.array([row[3] for row in self.as_table()], dtype=np.uint8)

    @cached_property
    def lookup_table(self) -> np.ndarray:
        """Next-state lookup indexed by the neighbourhood value ``(L<<2)|(S<<1)|R``.

        Read by :meth:`apply`, the per-cell truth-table form the tests check
        the automaton's packed engine against; cached because the table never
        changes for a given rule.
        """
        table = np.array([(self.number >> i) & 1 for i in range(8)], dtype=np.uint8)
        table.setflags(write=False)
        return table

    def apply(self, left: np.ndarray, center: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Vectorised rule application on aligned neighbour arrays."""
        left = np.asarray(left, dtype=np.uint8)
        center = np.asarray(center, dtype=np.uint8)
        right = np.asarray(right, dtype=np.uint8)
        index = left * np.uint8(4) + center * np.uint8(2) + right
        return self.lookup_table[index]

    @property
    def is_legal(self) -> bool:
        """A rule is *legal* (in Wolfram's sense) if the null state maps to 0
        and the rule is left-right symmetric."""
        if self.next_state(0, 0, 0) != 0:
            return False
        for left, center, right in NEIGHBORHOOD_ORDER:
            if self.next_state(left, center, right) != self.next_state(right, center, left):
                return False
        return True

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Rule {self.number}"


#: Rule 30 — the chaotic (class III) rule used by the paper's selection CA.
RULE_30 = RuleTable(30)

#: Rule 90 — linear (XOR of neighbours); additive, used as a weaker baseline.
RULE_90 = RuleTable(90)

#: Rule 110 — universal, class IV; included for the rule-comparison benchmark.
RULE_110 = RuleTable(110)

#: Rule 184 — traffic rule, class II/IV; a structured baseline with poor mixing.
RULE_184 = RuleTable(184)

#: Table I of the paper as printed (rows of L, S, R, NS).
PAPER_TABLE_I: tuple[tuple[int, int, int, int], ...] = (
    (1, 1, 1, 0),
    (1, 1, 0, 0),
    (1, 0, 1, 0),
    (1, 0, 0, 1),
    (0, 1, 1, 1),
    (0, 1, 0, 1),
    (0, 0, 1, 1),
    (0, 0, 0, 0),
)
