"""Rule registry: one module per architectural contract."""

from __future__ import annotations


from repro._lint.rules.async_hygiene import RULE as ASYNC_HYGIENE
from repro._lint.rules.base import Rule
from repro._lint.rules.dense_phi import RULE as DENSE_PHI
from repro._lint.rules.frozen_wire import RULE as FROZEN_WIRE
from repro._lint.rules.rng_discipline import RULE as RNG_DISCIPLINE
from repro._lint.rules.shared_phi import RULE as SHARED_PHI
from repro._lint.rules.timing import RULE as TIMING_DISCIPLINE
from repro._lint.rules.unused_imports import RULE as UNUSED_IMPORTS

#: Every registered rule, in rule-id order.
RULES: tuple[Rule, ...] = (
    SHARED_PHI,         # REPRO001
    DENSE_PHI,          # REPRO002
    RNG_DISCIPLINE,     # REPRO003
    ASYNC_HYGIENE,      # REPRO004
    FROZEN_WIRE,        # REPRO005
    TIMING_DISCIPLINE,  # REPRO006
    UNUSED_IMPORTS,     # REPRO007
)


def rule_ids() -> tuple[str, ...]:
    """The registered rule ids, in order."""
    return tuple(rule.rule_id for rule in RULES)


__all__ = ["RULES", "Rule", "rule_ids"]
