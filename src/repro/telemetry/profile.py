"""Opt-in solver profiles: per-iteration convergence data, no numpy needed.

``ista``/``fista``/``iht`` and ``batched_proximal_gradient`` accept
``profile=SolverProfile()``; when given, they append one record per
iteration (objective, residual norm, and how many tiles are frozen — always
0 for ``ista``/``fista``, which solve one tile) and stamp where the step
size came from; ``iht`` records no frozen count.  When ``profile`` stays
``None`` (the default) the solvers skip every bookkeeping branch, so the
profiling seam costs nothing and, because a profile only *reads* solver
state, recording one is bit-neutral: same iterates, same RNG stream, same
reconstruction bytes (pinned by the neutrality suite).

This module is pure stdlib on purpose — callers convert array scalars with
``float()``/``int()`` at the boundary — so the telemetry package stays
importable without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SolverProfile"]

#: Allowed values for :attr:`SolverProfile.step_size_provenance`.
_PROVENANCES = ("provided", "estimated")


@dataclass
class SolverProfile:
    """Per-iteration convergence series for one (possibly batched) solve.

    ``objectives[i]`` is the composite objective ``0.5·‖Ax−y‖² + λ‖x‖₁``
    after iteration ``i`` (summed over tiles for batched solves) and
    ``residual_norms[i]`` the matching data-fidelity norm.  For ISTA/FISTA
    solves ``frozen_counts[i]`` counts tiles already converged-and-frozen
    entering iteration ``i`` (0 for a one-tile solve).
    """

    objectives: list[float] = field(default_factory=list)
    residual_norms: list[float] = field(default_factory=list)
    frozen_counts: list[int] = field(default_factory=list)
    step_size: float | None = None
    step_size_provenance: str | None = None
    n_tiles: int | None = None
    n_iterations: int = 0
    converged: bool | None = None

    def record_step_size(self, step: float, *, provenance: str) -> None:
        """Stamp the step size and whether the caller supplied or estimated it."""
        if provenance not in _PROVENANCES:
            raise ValueError(
                f"step-size provenance must be one of {_PROVENANCES}, got {provenance!r}"
            )
        self.step_size = float(step)
        self.step_size_provenance = provenance

    def record_iteration(
        self, objective: float, residual_norm: float, *, frozen: int | None = None
    ) -> None:
        self.objectives.append(float(objective))
        self.residual_norms.append(float(residual_norm))
        if frozen is not None:
            self.frozen_counts.append(int(frozen))
        self.n_iterations += 1

    def finish(self, *, converged: bool) -> None:
        self.converged = bool(converged)

    @property
    def monotone(self) -> bool:
        """``True`` when the objective never increased (ISTA guarantee)."""
        return all(
            b <= a + 1e-12 for a, b in zip(self.objectives, self.objectives[1:])
        )
