"""Brute-force reference solver: chain values and game values."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgsolve

from conftest import MAX, MIN, chain_model, dirac, dist, random_game, random_objective
from sgsolve.generators import fig1_left, fig1_right
from sgsolve.model import build_game
from sgsolve.objectives import Objective
from sgsolve.oracle import (
    TooLarge,
    game_value_bruteforce,
    solve_mc_meanpayoff,
    solve_mc_reach,
)


def two_cycle_chain():
    return build_game(
        [MAX, MAX],
        [(dirac(1),), (dirac(0),)],
        [2.0, 4.0],
        0,
    )


class TestChainSolvers:
    def test_reach_certain(self):
        assert solve_mc_reach(chain_model(), {2}) == [1.0, 1.0, 1.0]

    def test_reach_with_avoid(self):
        assert solve_mc_reach(chain_model(), {2}, avoid={1}) == [0.0, 0.0, 1.0]

    def test_reach_coin(self):
        m = build_game(
            [MAX, MAX, MAX],
            [(dist((1, 0.5), (2, 0.5)),), (dirac(1),), (dirac(2),)],
            [0, 0, 0],
            0,
        )
        assert solve_mc_reach(m, {2}) == [0.5, 0.0, 1.0]

    def test_reach_rejects_games(self):
        m = fig1_right()[0]
        with pytest.raises(ValueError):
            solve_mc_reach(m, {1})

    def test_meanpayoff_cycle(self):
        values = solve_mc_meanpayoff(two_cycle_chain())
        assert values == pytest.approx([3.0, 3.0])

    def test_meanpayoff_transient_prefix(self):
        m = build_game(
            [MAX, MAX, MAX],
            [(dist((1, 0.5), (2, 0.5)),), (dirac(1),), (dirac(2),)],
            [9.0, 2.0, 4.0],
            0,
        )
        values = solve_mc_meanpayoff(m)
        assert values == pytest.approx([3.0, 2.0, 4.0])


class TestGameBruteForce:
    def test_fig1_right_reach(self):
        model, labels = fig1_right()
        values = game_value_bruteforce(model, Objective.reachability(labels["goal"]))
        # Minimizer escapes to the zero sink before Maximizer reaches goal.
        assert values == pytest.approx([0.0, 1.0, 1.0, 0.0])

    def test_fig1_left_meanpayoff(self):
        model, _ = fig1_left()
        value = game_value_bruteforce(
            model, Objective.mean_payoff(model), state=model.initial
        )
        assert value == pytest.approx(5.0)

    def test_safety_is_one_minus_reach(self, rng):
        for _ in range(20):
            model = random_game(rng, max_states=5)
            unsafe = frozenset({0})
            safe = game_value_bruteforce(model, Objective.safety(unsafe))
            assert all(0.0 <= v <= 1.0 + 1e-12 for v in safe)

    def test_single_state_selection(self):
        model, labels = fig1_right()
        value = game_value_bruteforce(
            model, Objective.reachability(labels["goal"]), state=model.initial
        )
        assert value == pytest.approx(0.0)

    def test_too_large(self):
        n = 21
        owners = [MAX] * n
        actions = [(dirac((s + 1) % n), dirac(s)) for s in range(n)]
        m = build_game(owners, actions, [0.0] * n, 0)
        with pytest.raises(TooLarge):
            game_value_bruteforce(m, Objective.mean_payoff(m))

    def test_values_within_objective_range(self, rng):
        for _ in range(30):
            model = random_game(rng, max_states=6)
            objective = random_objective(rng, model)
            values = game_value_bruteforce(model, objective)
            lo, hi = objective.value_floor(), objective.value_ceiling()
            assert all(lo - 1e-9 <= v <= hi + 1e-9 for v in values)


BLOCKED_IMPORT_SCRIPT = """
import json, sys
sys.modules["numpy"] = None
sys.modules["networkx"] = None
import sgsolve, sgsolve.cli, sgsolve.oracle
from conftest import chain_model
from sgsolve.generators import fig1_right
from sgsolve.objectives import Objective
from sgsolve.oracle import game_value_bruteforce
model, labels = fig1_right()
chain = chain_model()
print(json.dumps([
    game_value_bruteforce(model, Objective.reachability(labels["goal"])),
    game_value_bruteforce(chain, Objective.reachability({2})),
    game_value_bruteforce(chain, Objective.mean_payoff(chain)),
]))
"""


def test_runs_without_numpy_and_networkx():
    paths = [str(Path(sgsolve.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run(
        [sys.executable, "-c", BLOCKED_IMPORT_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    fig1, chain_reach, chain_meanpayoff = json.loads(done.stdout)
    assert fig1 == pytest.approx([0.0, 1.0, 1.0, 0.0])
    assert chain_reach == [1.0, 1.0, 1.0]
    assert chain_meanpayoff == [1.0, 1.0, 1.0]
