"""Static enforcement of the architectural contracts (the invariant linter).

The four ROADMAP contracts — shared-Φ, bit-fidelity, streamed ≡ in-process,
recon-equivalence — are pinned by runtime test suites, but a suite only
catches a contract violation *after* someone wires the violating code into a
test's execution path.  This package closes that gap the way hardware
frameworks lint netlists before simulation: an AST pass over the source tree
with one rule module per contract, run as ``python -m repro._lint src tests
examples`` (and as part of tier-1 via ``tests/lint/``).

Rules
-----
========== =====================================================================
REPRO001   shared-Φ: CA measurement matrices (dense or factored) are built
           only by :mod:`repro.ca.selection`; outer-XOR assembly and direct
           CA-state expansion anywhere else is a second Φ code path.
REPRO002   no dense Φ in hot paths: ``.phi`` materialisation of a sensing
           operator is allowed only in the operator modules themselves
           (and in tests/benchmarks).
REPRO003   RNG discipline: library code never touches NumPy's global RNG
           state; generators come from seeded ``default_rng``/``derive_seed``.
REPRO004   async hygiene: no blocking calls (``time.sleep``, sync sockets,
           direct capture/solve work) inside ``async def`` in
           :mod:`repro.stream` without executor dispatch.
REPRO005   frozen wire: the v1/v2 chunk and frame layout constants are
           fingerprinted; editing them without introducing a new version
           byte (and re-pinning the fingerprint) is flagged.
REPRO006   timing discipline: clock reads (``time.time``/``monotonic``/
           ``perf_counter``, ``loop.time``) go through the injected
           :class:`repro.telemetry.Clock`; only ``repro/telemetry/`` may
           read the wall/monotonic clock directly.
REPRO007   no unused module-level imports: ruff's F401 checked offline
           (``__all__``, ``import x as x`` and ``__init__.py`` re-exports
           honoured); it does not replace ruff.
========== =====================================================================

Suppressions
------------
An intentional exception carries an inline comment **with a justification**::

    phi = operator.phi  # repro-lint: allow=REPRO002 -- tiny block, dense is the reference

A suppression without the ``-- justification`` part is itself reported
(rule ``REPRO000``), so exceptions are always documented in place.
"""

from __future__ import annotations

from repro._lint.engine import (
    Finding,
    LintError,
    iter_python_files,
    lint_paths,
    lint_source,
)
from repro._lint.rules import RULES, rule_ids

__all__ = [
    "Finding",
    "LintError",
    "RULES",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "rule_ids",
]
