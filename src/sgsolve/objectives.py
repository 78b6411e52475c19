"""Objective definitions, the query preparation shared by both solvers,
bound initialization and the reduction of reachability to mean payoff."""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, TypeVar

from . import graph
from .bounds import BoundsVector
from .model import Distribution, GameModel
from .result import SolveResult

Oriented = TypeVar("Oriented", BoundsVector, SolveResult)


class LabelMismatch(Exception):
    pass


class ObjectiveKind(Enum):
    REACHABILITY = "reachability"
    SAFETY = "safety"
    MEAN_PAYOFF = "mean-payoff"


@dataclass(frozen=True)
class Objective:
    """What the players compete over.

    Reachability carries a goal set and an optional avoid set; safety an
    unsafe set (solved internally as reachability of the unsafe set by
    the swapped players, value = 1 - reach value); mean payoff carries
    a range [rmin, rmax] holding every reward of the model, which doubles
    as the a-priori value bounds (``mean_payoff`` takes the model's own
    minimum and maximum reward).
    """

    kind: ObjectiveKind
    goal: frozenset[int] = frozenset()
    avoid: frozenset[int] = frozenset()
    rmin: float = 0.0
    rmax: float = 1.0

    @staticmethod
    def reachability(goal: Iterable[int], avoid: Iterable[int] = ()) -> "Objective":
        goal = frozenset(goal)
        avoid = frozenset(avoid)
        if goal & avoid:
            raise LabelMismatch("goal and avoid sets overlap")
        return Objective(ObjectiveKind.REACHABILITY, goal=goal, avoid=avoid)

    @staticmethod
    def safety(unsafe: Iterable[int]) -> "Objective":
        return Objective(ObjectiveKind.SAFETY, avoid=frozenset(unsafe))

    @staticmethod
    def mean_payoff(model: GameModel) -> "Objective":
        rmin, rmax = model.reward_range()
        return Objective(ObjectiveKind.MEAN_PAYOFF, rmin=rmin, rmax=rmax)

    @property
    def is_mean_payoff(self) -> bool:
        return self.kind is ObjectiveKind.MEAN_PAYOFF

    def value_floor(self) -> float:
        return 0.0 if not self.is_mean_payoff else self.rmin

    def value_ceiling(self) -> float:
        return 1.0 if not self.is_mean_payoff else self.rmax


def _check_labels(model: GameModel, states: frozenset[int]) -> None:
    for s in states:
        if not 0 <= s < model.num_states:
            raise LabelMismatch(f"label refers to unknown state {s}")


@dataclass(frozen=True)
class Query:
    """A game and objective in the form both solvers work on.

    Safety of the unsafe set U is dualized: the players swap owners and
    the objective becomes reachability of U, whose value is 1 minus the
    safety value.  For reachability, goal and avoid states are absorbing.
    """

    model: GameModel
    objective: Objective
    dualized: bool = False

    def orient(self, x: Oriented) -> Oriented:
        """Map bounds or a result between the caller's objective and the
        prepared one; the map is its own inverse.  For a dualized query
        every value v becomes 1 - v, so lower and upper bounds trade
        places; otherwise ``x`` is returned as is."""
        if not self.dualized:
            return x
        if isinstance(x, BoundsVector):
            return BoundsVector([1.0 - u for u in x.ub], [1.0 - l for l in x.lb])
        return replace(
            x,
            value=1.0 - x.value,
            lower=1.0 - x.upper,
            upper=1.0 - x.lower,
            bounds=self.orient(x.bounds),
            stats=dict(x.stats, dualized=True),
        )


def prepare(model: GameModel, objective: Objective) -> Query:
    """Check the objective's state ids against the model and bring the
    query into solver form (see ``Query``).  Raises LabelMismatch on an
    unknown state id, on overlapping goal and avoid sets and on an empty
    goal or unsafe set.  A mean-payoff query keeps the model as it is; its
    range must hold every reward of the model, else the a-priori bounds
    are unsound and ValueError is raised."""
    _check_labels(model, objective.goal)
    _check_labels(model, objective.avoid)
    if objective.goal & objective.avoid:
        raise LabelMismatch("goal and avoid sets overlap")
    if objective.is_mean_payoff:
        lo, hi = model.reward_range()
        if not (objective.rmin <= lo and hi <= objective.rmax):
            raise ValueError(
                f"mean-payoff range [{objective.rmin}, {objective.rmax}] does not "
                f"hold the rewards [{lo}, {hi}]"
            )
        return Query(model, objective)
    owners = model.owners
    dualized = objective.kind is ObjectiveKind.SAFETY
    if dualized:
        if not objective.avoid:
            raise LabelMismatch("safety unsafe set must be non-empty")
        owners = tuple(o.opponent for o in owners)
        objective = Objective.reachability(objective.avoid)
    elif not objective.goal:
        raise LabelMismatch("reachability goal must be non-empty")
    # Swapping action lists for Dirac self-loops keeps a valid model valid.
    absorbing = objective.goal | objective.avoid
    actions = tuple(
        (Distribution.dirac(s),) if s in absorbing else model.actions[s]
        for s in model.states()
    )
    return Query(replace(model, owners=owners, actions=actions), objective, dualized)


def init_bounds(model: GameModel, objective: Objective) -> BoundsVector:
    """Safe initial under- and over-approximation of the value.

    Reachability starts at [0, 1] with goal states pinned to 1 and avoid
    states to 0; the qualitative precomputation then pins the upper bound
    of every state that cannot reach the goal without passing an avoid
    state to 0, and the lower bound of every state from which Maximizer
    reaches it almost surely to 1.  Mean payoff starts at [rmin, rmax].
    """
    n = model.num_states
    if objective.kind is ObjectiveKind.MEAN_PAYOFF:
        return BoundsVector([objective.rmin] * n, [objective.rmax] * n)
    if objective.kind is ObjectiveKind.SAFETY:
        raise LabelMismatch("safety bounds are initialized on the dualized model")
    _check_labels(model, objective.goal)
    _check_labels(model, objective.avoid)
    bounds = BoundsVector([0.0] * n, [1.0] * n)
    for g in objective.goal:
        bounds.lb[g] = 1.0
    for a in objective.avoid:
        bounds.ub[a] = 0.0
    if objective.goal:
        value1, value0 = graph.qualitative_reach(model, objective.goal, objective.avoid)
        for s in value0:
            bounds.ub[s] = 0.0
        for s in value1:
            bounds.lb[s] = 1.0
    return bounds


def reach_as_meanpayoff(
    model: GameModel,
    goal: Iterable[int],
) -> tuple[GameModel, Objective]:
    """Turn a reachability query into an equivalent mean-payoff one.

    Goal states become absorbing with reward 1, as ``prepare`` makes them
    for reachability, and every other state gets reward 0; the mean payoff
    of the result equals the reachability value of the original model.
    Raises LabelMismatch on an empty goal or an unknown state id.
    """
    goal = frozenset(goal)
    absorbed = prepare(model, Objective.reachability(goal)).model
    transformed = replace(
        absorbed, rewards=tuple(1.0 if s in goal else 0.0 for s in model.states())
    )
    return transformed, Objective.mean_payoff(transformed)
