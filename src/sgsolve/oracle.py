"""Reference solver for small games, by brute force over strategy pairs.

Deliberately independent of the iterative solvers and of ``graph.py``:
every positional strategy pair induces a Markov chain, whose values come
from direct linear algebra in pure Python.  The chain's closed classes
(bottom strongly connected components) are found by a reachability
search of its own; their stationary distributions, and the values of
the transient states, are solved by Gaussian elimination with partial
pivoting.  Agreement between the two kinds of solver is thus meaningful.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

from .model import GameModel, Player
from .objectives import Objective, ObjectiveKind

RESIDUAL_TOLERANCE = 1e-12
DETERMINACY_TOLERANCE = 1e-9
MAX_STRATEGY_PAIRS = 1_000_000

Rows = Sequence[tuple[tuple[int, float], ...]]


class SingularSystem(Exception):
    pass


class TooLarge(Exception):
    pass


def _chain_rows(model: GameModel, choice: Sequence[int]) -> list[tuple[tuple[int, float], ...]]:
    return [model.distribution(s, choice[s]).support for s in model.states()]


def _check_chain(model: GameModel) -> list[tuple[tuple[int, float], ...]]:
    for s in model.states():
        if model.num_actions(s) != 1:
            raise ValueError(f"state {s} has {model.num_actions(s)} actions, chain expected")
    return _chain_rows(model, [0] * model.num_states)


def _solve(a: list[list[float]], b: list[float], tolerance: float, what: str) -> list[float]:
    """Solve the first ``len(a[0])`` equations of ``a x = b`` by Gaussian
    elimination with partial pivoting, then check every equation.  Raises
    SingularSystem on a zero pivot, or when a residual exceeds ``tolerance``."""
    m = len(a[0]) if a else 0
    work = [row[:] + [rhs] for row, rhs in zip(a[:m], b)]
    for k in range(m):
        pivot = max(range(k, m), key=lambda i: abs(work[i][k]))
        if work[pivot][k] == 0.0:
            raise SingularSystem(f"{what} system is singular")
        work[k], work[pivot] = work[pivot], work[k]
        for row in work[k + 1:]:
            factor = row[k] / work[k][k]
            if factor:
                for j in range(k + 1, m + 1):
                    row[j] -= factor * work[k][j]
    x = [0.0] * m
    for k in reversed(range(m)):
        row = work[k]
        x[k] = (row[m] - sum(row[j] * x[j] for j in range(k + 1, m))) / row[k]
    residual = max(
        (abs(sum(p * v for p, v in zip(row, x)) - rhs) for row, rhs in zip(a, b)), default=0.0
    )
    if not residual <= tolerance:
        raise SingularSystem(f"{what} system residual too large")
    return x


def _absorb(rows: Rows, unknown: Sequence[int], values: list[float], what: str) -> None:
    """Fill in ``values`` on the ``unknown`` states, which must leave the
    set almost surely: each is the expectation of its successors' values,
    taken from ``values`` outside the set."""
    pos = {s: i for i, s in enumerate(unknown)}
    a = [[0.0] * len(unknown) for _ in unknown]
    b = [0.0] * len(unknown)
    for i, s in enumerate(unknown):
        a[i][i] = 1.0
        for t, p in rows[s]:
            if t in pos:
                a[i][pos[t]] -= p
            else:
                b[i] += p * values[t]
    for s, v in zip(unknown, _solve(a, b, RESIDUAL_TOLERANCE, what)):
        values[s] = v


def _reach_values(rows: Rows, goal: frozenset[int], avoid: frozenset[int]) -> list[float]:
    """Hitting probabilities of ``goal`` while avoiding ``avoid`` in a
    Markov chain given as per-state sparse successor rows."""
    # Avoid states are absorbing misses; the unknowns are the other states
    # with a path to the goal that does not pass through avoid.
    goal = goal - avoid
    stopped = [() if s in goal or s in avoid else row for s, row in enumerate(rows)]
    unknown = [s for s, seen in enumerate(_reach_sets(stopped)) if s not in goal and seen & goal]
    values = [1.0 if s in goal else 0.0 for s in range(len(rows))]
    _absorb(rows, unknown, values, "reachability")
    return values


def _reach_sets(rows: Rows) -> list[set[int]]:
    """For each state, the set of states it reaches, itself included."""
    reach = []
    for s in range(len(rows)):
        seen = {s}
        stack = [s]
        while stack:
            for t, _ in rows[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        reach.append(seen)
    return reach


def _closed_classes(rows: Rows) -> list[list[int]]:
    """The chain's closed classes (bottom SCCs), each sorted: a state is in
    one iff every state it reaches reaches it back, and its class is then
    the set of states it reaches."""
    reach = _reach_sets(rows)
    return [
        sorted(seen)
        for s, seen in enumerate(reach)
        if s == min(seen) and all(s in reach[t] for t in seen)
    ]


def _stationary(rows: Rows, states: Sequence[int]) -> list[float]:
    """Stationary distribution of a closed class: ``sum(pi) = 1`` and the
    balance equations ``pi P = pi``, of which the last, implied by the
    others, is only checked."""
    pos = {s: i for i, s in enumerate(states)}
    m = len(states)
    balance = [[0.0] * m for _ in states]
    for s in states:
        balance[pos[s]][pos[s]] -= 1.0
        for t, q in rows[s]:
            balance[pos[t]][pos[s]] += q
    return _solve([[1.0] * m] + balance, [1.0] + [0.0] * m, 1e-10, "stationary distribution")


def _meanpayoff_values(rows: Rows, rewards: Sequence[float]) -> list[float]:
    n = len(rows)
    values = [0.0] * n
    recurrent = set()
    for members in _closed_classes(rows):
        pi = _stationary(rows, members)
        gain = sum(p * rewards[s] for p, s in zip(pi, members))
        for s in members:
            values[s] = gain
        recurrent.update(members)
    transient = [s for s in range(n) if s not in recurrent]
    _absorb(rows, transient, values, "mean-payoff")
    return values


def solve_mc_reach(chain: GameModel, goal, avoid=()) -> list[float]:
    """Exact reach probabilities for a one-action-per-state model."""
    rows = _check_chain(chain)
    return _reach_values(rows, frozenset(goal), frozenset(avoid))


def solve_mc_meanpayoff(chain: GameModel) -> list[float]:
    """Exact mean payoff for a one-action-per-state model."""
    rows = _check_chain(chain)
    return _meanpayoff_values(rows, chain.rewards)


def _chain_objective_values(rows: Rows, model: GameModel, objective: Objective) -> list[float]:
    if objective.kind is ObjectiveKind.REACHABILITY:
        return _reach_values(rows, objective.goal, objective.avoid)
    if objective.kind is ObjectiveKind.SAFETY:
        return [1.0 - v for v in _reach_values(rows, objective.avoid, frozenset())]
    return _meanpayoff_values(rows, model.rewards)


def game_value_bruteforce(
    model: GameModel,
    objective: Objective,
    state: Optional[int] = None,
) -> list[float] | float:
    """Exact game values by enumerating all positional strategy pairs.

    Computes sup-inf and inf-sup over the induced chain values and checks
    that they coincide (determinacy) within 1e-9.  Raises TooLarge when
    the number of pairs exceeds 1e6.
    """
    n = model.num_states
    max_states = [s for s in model.states() if model.owner(s) is Player.MAXIMIZER]
    min_states = [s for s in model.states() if model.owner(s) is Player.MINIMIZER]
    total = 1
    for s in model.states():
        total *= model.num_actions(s)
        if total > MAX_STRATEGY_PAIRS:
            raise TooLarge(f"more than {MAX_STRATEGY_PAIRS} strategy pairs")

    max_choices = list(
        itertools.product(*(range(model.num_actions(s)) for s in max_states))
    )
    min_choices = list(
        itertools.product(*(range(model.num_actions(s)) for s in min_states))
    )
    # sup-inf is the best row minimum, inf-sup the least column maximum.
    supinf = [-math.inf] * n
    column_max = [[-math.inf] * n for _ in min_choices]
    choice = [0] * n
    for sigma in max_choices:
        for s, a in zip(max_states, sigma):
            choice[s] = a
        row_min = [math.inf] * n
        for j, tau in enumerate(min_choices):
            for s, a in zip(min_states, tau):
                choice[s] = a
            values = _chain_objective_values(_chain_rows(model, choice), model, objective)
            row_min = list(map(min, row_min, values))
            column_max[j] = list(map(max, column_max[j], values))
        supinf = list(map(max, supinf, row_min))
    infsup = [min(column[s] for column in column_max) for s in range(n)]
    gap = max(abs(x - y) for x, y in zip(supinf, infsup))
    if gap > DETERMINACY_TOLERANCE:
        raise SingularSystem(f"sup-inf and inf-sup disagree beyond tolerance: {gap}")
    if state is not None:
        return supinf[state]
    return supinf
