"""Solver result record shared by both solving strategies."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .bounds import BoundsVector


@dataclass
class SolveResult:
    """Outcome of a solver run.

    ``lower`` and ``upper`` always bracket the true value of the initial
    state, whether or not the run converged within its budget; ``value``
    is their midpoint.  ``bounds`` and ``state_map`` expose the final
    per-state bounds of the internal working model: ``state_map[s]`` is
    the working-model id of original state ``s``, which both solvers keep,
    so ``state_map`` is the identity.  Both solvers always set ``bounds``,
    oriented like the caller's objective: for safety they bound the safety
    value, so ``bounds.lb[state_map[initial]] == lower``, and
    ``stats["dualized"]`` is True.
    """

    value: float
    lower: float
    upper: float
    precision: float
    mode: str
    objective: str
    iterations: int
    states_explored: int
    converged: bool
    bounds: BoundsVector
    state_map: tuple[int, ...]
    stats: dict = field(default_factory=dict)

    def to_json_dict(self, time_ms: float, seed: Optional[int]) -> dict:
        return {
            "value": self.value,
            "lower": self.lower,
            "upper": self.upper,
            "precision": self.precision,
            "mode": self.mode,
            "objective": self.objective,
            "states_explored": self.states_explored,
            "iterations": self.iterations,
            "time_ms": time_ms,
            "seed": seed,
        }
