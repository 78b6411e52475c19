"""Lower/upper bound vectors and the guarded Bellman update."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .model import MAXIMIZER, GameModel, Player


@dataclass
class BoundsVector:
    """Per-state lower and upper bounds on the game value.

    The solvers only ever tighten these: lb is non-decreasing, ub
    non-increasing, and lb <= ub throughout.
    """

    lb: list[float]
    ub: list[float]

    def gap(self, state: int) -> float:
        return self.ub[state] - self.lb[state]

    def copy(self) -> "BoundsVector":
        return BoundsVector(list(self.lb), list(self.ub))


@dataclass(frozen=True)
class Strategy:
    """Memoryless deterministic choice for one player."""

    player: Player
    choice: tuple[Optional[int], ...]  # None on the other player's states


def state_update(model: GameModel, bounds: BoundsVector, state: int) -> None:
    """Guarded Bellman update of both bounds at one state.

    Each bound moves to the owner's optimal one-step expectation under
    itself, but only if that tightens it, and never past the other bound.
    Sound bounds stay sound.  The clip to the other bound is two
    comparisons that select what ``max(best_u, lb)`` and ``min(best_l,
    ub)`` select: the first argument unless the second is strictly
    beyond it, so a tie (``0.0`` against ``-0.0`` included) keeps the
    one-step optimum.

    Both expectations of an action are summed in one pass over its
    support, from 0, left to right: the same bits as ``sum`` up to
    Python 3.11.  From 3.12 ``sum`` compensates float rounding, so there
    the bits can differ from a ``sum`` of the same products."""
    lb, ub = bounds.lb, bounds.ub
    maximize = model.owners[state] is MAXIMIZER
    best_u = best_l = None
    for dist in model.actions[state]:
        u = l = 0
        for t, p in dist.support:
            u += p * ub[t]
            l += p * lb[t]
        if best_u is None:
            best_u, best_l = u, l
        elif maximize:
            if u > best_u:
                best_u = u
            if l > best_l:
                best_l = l
        else:
            if u < best_u:
                best_u = u
            if l < best_l:
                best_l = l
    if best_u < ub[state]:
        low = lb[state]
        ub[state] = low if low > best_u else best_u
    if best_l > lb[state]:
        high = ub[state]
        lb[state] = high if high < best_l else best_l


def optimal_actions(
    model: GameModel,
    x: Sequence[float],
    state: int,
    tolerance: float = 0.0,
) -> tuple[int, ...]:
    """All actions attaining the Bellman optimum at ``state`` under ``x``
    up to ``tolerance``, in ascending index order.

    A positive tolerance keeps near-ties: while the bounds are still far
    from the value, differences much smaller than the remaining gap are
    numerical noise and must not be allowed to exclude actions."""
    maximize = model.owners[state] is MAXIMIZER
    values = []
    for dist in model.actions[state]:
        v = 0
        for t, p in dist.support:
            v += p * x[t]
        values.append(v)
    best = max(values) if maximize else min(values)
    chosen = []
    for a, v in enumerate(values):
        if abs(v - best) <= tolerance:
            chosen.append(a)
    return tuple(chosen)


def extract_strategy(model: GameModel, bounds: BoundsVector, player: Player) -> Strategy:
    """Witness strategy: argmax on lb for Maximizer, argmin on ub for
    Minimizer; ties broken by lowest action index."""
    reference = bounds.lb if player is MAXIMIZER else bounds.ub
    choice: list[Optional[int]] = []
    for s in model.states():
        if model.owner(s) is player:
            choice.append(optimal_actions(model, reference, s)[0])
        else:
            choice.append(None)
    return Strategy(player, tuple(choice))


def check_epsilon(epsilon: float) -> None:
    """Raise ValueError unless ``epsilon`` is positive and finite."""
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")


def converged(bounds: BoundsVector, state: int, epsilon: float) -> bool:
    """Whether the midpoint of the bounds is an epsilon-precise value;
    an ``epsilon`` that is not positive and finite raises ValueError."""
    check_epsilon(epsilon)
    return bounds.ub[state] - bounds.lb[state] < 2.0 * epsilon


def midpoint(bounds: BoundsVector, state: int) -> float:
    return 0.5 * (bounds.lb[state] + bounds.ub[state])
