"""Shared helpers: hand-built models and a random-game generator whose
instances are small enough for the brute-force reference solver."""

from __future__ import annotations

import random

import pytest

from sgsolve import Objective, ecsolve
from sgsolve.model import Distribution, GameModel, Player, build_game

MAX = Player.MAXIMIZER
MIN = Player.MINIMIZER


def dirac(t: int) -> Distribution:
    return Distribution.dirac(t)


def dist(*pairs) -> Distribution:
    return Distribution.of(list(pairs))


def chain_model() -> GameModel:
    """0 -> 1 -> 2(absorbing), single action each."""
    return build_game(
        [MAX, MAX, MAX],
        [(dirac(1),), (dirac(2),), (dirac(2),)],
        [0.0, 0.0, 1.0],
        0,
    )


def loop_exit_model() -> GameModel:
    """Maximizer state 1 with a self-loop (reward 4) and an exit to the
    absorbing reward-5 state 0."""
    return build_game(
        [MAX, MAX],
        [(dirac(0),), (dirac(1), dirac(0))],
        [5.0, 4.0],
        1,
    )


def split_value_mec_model(order_a: int = 0, order_b: int = 0) -> GameModel:
    """One MEC holding both a Maximizer state (reward 10, can loop) and a
    Minimizer state (reward 0, can loop); the values split to 10 and 0."""
    a_acts = [dirac(0), dirac(1)]
    b_acts = [dirac(0), dirac(1)]
    if order_a:
        a_acts.reverse()
    if order_b:
        b_acts.reverse()
    return build_game([MAX, MIN], [tuple(a_acts), tuple(b_acts)], [10.0, 0.0], 0)


def reflecting_walk(n: int = 120) -> GameModel:
    """Fair random walk over states 0..n-1 that reflects at 0 (half stay,
    half up) and is absorbed at the goal n-1; every state reaches the goal
    almost surely.  The initial state is 0."""
    actions = [(dist((0, 0.5), (1, 0.5)),)]
    actions += [(dist((s - 1, 0.5), (s + 1, 0.5)),) for s in range(1, n - 1)]
    actions.append((dirac(n - 1),))
    return build_game([MAX] * n, actions, [0.0] * n, 0)


def relabelled(model: GameModel, labels: dict, seed: int) -> tuple[GameModel, dict]:
    """The same game and labels with the state ids shuffled by a seeded
    permutation."""
    new_id = list(range(model.num_states))
    random.Random(seed).shuffle(new_id)
    old_id = sorted(range(model.num_states), key=new_id.__getitem__)
    actions = [
        [Distribution.of((new_id[t], p) for t, p in d.support) for d in model.actions[old]]
        for old in old_id
    ]
    game = build_game(
        [model.owners[old] for old in old_id],
        actions,
        [model.rewards[old] for old in old_id],
        new_id[model.initial],
    )
    return game, {name: frozenset(new_id[s] for s in states) for name, states in labels.items()}


def all_actions(model: GameModel, states) -> dict[int, range]:
    """The subgame of ``states`` with every action of each."""
    return {s: range(model.num_actions(s)) for s in states}


def random_game(rng: random.Random, max_states: int = 8) -> GameModel:
    """Small game with dyadic probabilities (multiples of 1/16), up to 3
    actions per state and integer rewards in [0, 10]."""
    n = rng.randint(2, max_states)
    owners = [rng.choice([MAX, MIN]) for _ in range(n)]
    rewards = [float(rng.randint(0, 10)) for _ in range(n)]
    actions = []
    for _ in range(n):
        dists = []
        for _ in range(rng.choice([1, 1, 2, 2, 3])):
            k = rng.randint(1, min(3, n))
            targets = rng.sample(range(n), k)
            cuts = sorted(rng.sample(range(1, 16), k - 1))
            weights = []
            prev = 0
            for c in cuts + [16]:
                weights.append((c - prev) / 16)
                prev = c
            dists.append(Distribution.of(list(zip(targets, weights))))
        actions.append(tuple(dists))
    return build_game(owners, actions, rewards, rng.randint(0, n - 1))


def random_objective(rng: random.Random, model: GameModel) -> Objective:
    roll = rng.random()
    if roll < 0.4:
        return Objective.mean_payoff(model)
    k = rng.randint(1, max(1, model.num_states // 2))
    states = frozenset(rng.sample(range(model.num_states), k))
    if roll < 0.8:
        return Objective.reachability(states)
    return Objective.safety(states)


# The stream's generator and the games drawn from it so far, shared by the
# whole session; models and objectives are immutable.
_STREAM_RNG = random.Random(11)
_STREAM: list[tuple[GameModel, Objective]] = []


def stream_game(index: int) -> tuple[GameModel, Objective]:
    """Game ``index`` (counted from 0) of the random-game stream that the
    notes in ROADMAP.md and CHANGES.md cite: ``random.Random(11)`` draws
    ``random_game(rng, max_states=rng.choice([8, 30, 80, 200]))``, then
    ``random_objective``, once per game.  The stream is drawn only as far
    as the largest index asked for so far."""
    while len(_STREAM) <= index:
        model = random_game(_STREAM_RNG, max_states=_STREAM_RNG.choice([8, 30, 80, 200]))
        _STREAM.append((model, random_objective(_STREAM_RNG, model)))
    return _STREAM[index]


def tree_compl_value(n: int) -> float:
    """The value of ``treemulcomplmec`` and ``treemulcomplsec`` of size n,
    from their structure.  The hub of leaf j (rewards r0 = 3j mod 11,
    r1 = 3j + 5 mod 11) picks the two-cycle through r1 or the three-cycle
    through r2 = 7j + 2 and r3 = 7j + 6 (mod 11); the sec leaf's exit is
    worth more than any reward, so its Minimizer stays too, and a leaf is
    worth its better cycle average.  The binary tree above alternates
    max and min layers, max at the root."""
    layer = []
    for j in range(2**n):
        r0, r1 = (3 * j) % 11, (3 * j + 5) % 11
        r2, r3 = (7 * j + 2) % 11, (7 * j + 6) % 11
        layer.append(max((r0 + r1) / 2, (r0 + r2 + r3) / 3))
    level = n - 1
    while len(layer) > 1:
        pick = max if level % 2 == 0 else min
        layer = [pick(a, b) for a, b in zip(layer[::2], layer[1::2])]
        level -= 1
    return layer[0]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def staying_steps(monkeypatch) -> list[int]:
    """A one-element list counting every plain staying-value step, whichever
    tracker runs it."""
    count = [0]
    step = ecsolve._StayingIteration.step

    def counting(self):
        count[0] += 1
        step(self)

    monkeypatch.setattr(ecsolve._StayingIteration, "step", counting)
    return count
