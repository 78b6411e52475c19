"""Immutable sparse representation of turn-based stochastic games.

States are dense integer ids.  Every state is owned by one of the two
players, carries a real-valued reward and a non-empty list of actions,
each of which is a probability distribution over successor states.
Models are immutable after construction; fixing a player's strategy
produces a fresh model over the same state ids.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum

PROBABILITY_SUM_TOLERANCE = 1e-12


class Player(Enum):
    MAXIMIZER = "max"
    MINIMIZER = "min"

    @property
    def opponent(self) -> "Player":
        return MINIMIZER if self is MAXIMIZER else MAXIMIZER


# Module-level aliases: a global name costs a fraction of an enum member
# lookup, which the per-state kernels would otherwise pay on every call.
MAXIMIZER = Player.MAXIMIZER
MINIMIZER = Player.MINIMIZER


class ModelError(Exception):
    """Base class for structural model errors."""


class EmptyActionSet(ModelError):
    def __init__(self, state: int):
        super().__init__(f"state {state} has no actions")
        self.state = state


class DistributionSumError(ModelError):
    def __init__(self, state: int, action: int, total: float):
        super().__init__(
            f"distribution of state {state}, action {action} sums to {total!r}"
        )
        self.state = state
        self.action = action
        self.total = total


class DanglingTarget(ModelError):
    def __init__(self, state: int, action: int, target: int):
        super().__init__(
            f"state {state}, action {action} targets unknown state {target}"
        )
        self.state = state
        self.action = action
        self.target = target


class MissingChoice(ModelError):
    def __init__(self, state: int):
        super().__init__(f"no choice given for fixed-player state {state}")
        self.state = state


@dataclass(frozen=True, slots=True)
class Distribution:
    """Sparse probability distribution over successor states.

    Support entries are (state, probability) pairs with distinct states,
    sorted by state id.  Probabilities are strictly positive and sum to 1
    within PROBABILITY_SUM_TOLERANCE.
    """

    support: tuple[tuple[int, float], ...]

    @staticmethod
    def of(pairs: Iterable[tuple[int, float]] | Mapping[int, float]) -> "Distribution":
        if isinstance(pairs, Mapping):
            items = pairs.items()
        else:
            items = pairs
        merged: dict[int, float] = {}
        for target, prob in items:
            if prob == 0.0:
                continue
            merged[target] = merged.get(target, 0.0) + prob
        return Distribution(tuple(sorted(merged.items())))

    @staticmethod
    def dirac(target: int) -> "Distribution":
        return Distribution(((target, 1.0),))

    def total(self) -> float:
        return sum(p for _, p in self.support)

    def is_self_loop(self, state: int) -> bool:
        return self.support == ((state, 1.0),)


@dataclass(frozen=True)
class GameModel:
    owners: tuple[Player, ...]
    actions: tuple[tuple[Distribution, ...], ...]
    rewards: tuple[float, ...]
    initial: int

    @property
    def num_states(self) -> int:
        return len(self.owners)

    def states(self) -> range:
        return range(self.num_states)

    def owner(self, state: int) -> Player:
        return self.owners[state]

    def num_actions(self, state: int) -> int:
        return len(self.actions[state])

    def distribution(self, state: int, action: int) -> Distribution:
        return self.actions[state][action]

    def is_absorbing(self, state: int) -> bool:
        for d in self.actions[state]:
            if not d.is_self_loop(state):
                return False
        return True

    def reward_range(self) -> tuple[float, float]:
        return min(self.rewards), max(self.rewards)


def build_game(
    owners: Sequence[Player],
    action_lists: Sequence[Sequence[Distribution]],
    rewards: Sequence[float],
    initial: int,
) -> GameModel:
    """Validate the raw ingredients and assemble a GameModel.

    Raises EmptyActionSet, DistributionSumError, DanglingTarget or
    ModelError (for instance on a NaN probability or a non-finite reward)
    on the first violation encountered.
    """
    n = len(owners)
    if not (n >= 1 and len(action_lists) == n and len(rewards) == n):
        raise ModelError("owners, action lists and rewards must have equal length >= 1")
    if not 0 <= initial < n:
        raise ModelError(f"initial state {initial} out of range")
    for state, dists in enumerate(action_lists):
        if not math.isfinite(rewards[state]):
            raise ModelError(f"non-finite reward {rewards[state]!r} at state {state}")
        if len(dists) == 0:
            raise EmptyActionSet(state)
        for action, dist in enumerate(dists):
            total = dist.total()
            if abs(total - 1.0) > PROBABILITY_SUM_TOLERANCE:
                raise DistributionSumError(state, action, total)
            last = -1
            for target, prob in dist.support:
                if not 0 <= target < n:
                    raise DanglingTarget(state, action, target)
                if target <= last:
                    raise ModelError(
                        f"distribution of state {state}, action {action} "
                        "has unsorted or duplicate targets"
                    )
                if not prob > 0.0:
                    raise ModelError(
                        f"non-positive probability at state {state}, action {action}"
                    )
                last = target
    return GameModel(
        owners=tuple(owners),
        actions=tuple(tuple(dists) for dists in action_lists),
        rewards=tuple(float(r) for r in rewards),
        initial=initial,
    )


def induced_mdp(
    model: GameModel,
    fixed: Player,
    strategy: Mapping[int, int],
) -> GameModel:
    """Restrict the fixed player to the given strategy.

    States of the fixed player keep only their chosen action; all other
    states are unchanged.  Ownership is preserved for bookkeeping.
    """
    action_lists: list[Sequence[Distribution]] = []
    for state in model.states():
        if model.owner(state) is fixed:
            if state not in strategy:
                raise MissingChoice(state)
            choice = strategy[state]
            if not 0 <= choice < model.num_actions(state):
                raise MissingChoice(state)
            action_lists.append((model.distribution(state, choice),))
        else:
            action_lists.append(model.actions[state])
    return build_game(model.owners, action_lists, model.rewards, model.initial)
