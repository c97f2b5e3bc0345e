"""One-dimensional cellular automata.

The paper generates its full-frame compressive strategy Φ with a radius-1
elementary cellular automaton running Rule 30 around the pixel array
(Section II-B / III-A, Fig. 3, Table I).  This package implements:

* :mod:`repro.ca.rules` — Wolfram-coded elementary rules as truth tables.
* :mod:`repro.ca.automaton` — an elementary CA engine with ring or fixed
  boundaries: the register packed into one integer and updated a whole
  generation at a time by the rule's algebraic normal form.
* :mod:`repro.ca.rule30` — the gate-level Rule 30 cell of Fig. 3 (``NS =
  L XOR (S OR R)``) and a register built from such cells, used to show the
  gate network matches the Table I truth table bit-for-bit.
* :mod:`repro.ca.analysis` — sequence statistics used to argue class-III
  (aperiodic) behaviour: cycle detection, bit balance, entropy and
  autocorrelation.
* :mod:`repro.ca.selection` — the row/column selection-signal generator that
  surrounds the array in Fig. 2 and the XOR combination producing the
  full-frame selection mask.
"""

from repro.ca.analysis import (
    bit_balance,
    detect_cycle,
    sequence_entropy,
    spatial_entropy,
    temporal_autocorrelation,
)
from repro.ca.automaton import BoundaryCondition, ElementaryCellularAutomaton
from repro.ca.rule30 import Rule30Cell, Rule30Register, rule30_next_state
from repro.ca.rules import RULE_30, RULE_90, RULE_110, RULE_184, RuleTable
from repro.ca.selection import (
    CASelectionGenerator,
    SelectionPattern,
    ca_measurement_matrix,
    selection_masks_from_states,
)

__all__ = [
    "BoundaryCondition",
    "ElementaryCellularAutomaton",
    "RuleTable",
    "RULE_30",
    "RULE_90",
    "RULE_110",
    "RULE_184",
    "Rule30Cell",
    "Rule30Register",
    "rule30_next_state",
    "CASelectionGenerator",
    "SelectionPattern",
    "ca_measurement_matrix",
    "selection_masks_from_states",
    "bit_balance",
    "detect_cycle",
    "sequence_entropy",
    "spatial_entropy",
    "temporal_autocorrelation",
]
