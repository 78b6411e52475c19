"""End-to-end acceptance suite.

One test per criterion, each asserting the documented behaviour at the
stated tolerance:

1. oracle equivalence of both solvers on 500 random games,
2. known deflation results on the two reference figures,
3. non-convergence without deflation and fast convergence with it,
4. the simulation jump memory unlocking chained end components,
5. solver throughput on the two large tree families,
6. consistency of the reachability to mean-payoff reduction,
7. runtime invariants, decomposition cross-check and determinism.
"""

import random
import time

import pytest

from conftest import random_game, random_objective
from sgsolve.bounds import BoundsVector
from sgsolve.ce import solve_ce
from sgsolve.ecsolve import deflate
from sgsolve.generators import fig1_left, fig2_chain, generate
from sgsolve.graph import EndComponent, mec_decompose
from sgsolve.objectives import Objective, ObjectiveKind, init_bounds, reach_as_meanpayoff
from sgsolve.oracle import SingularSystem, TooLarge, game_value_bruteforce
from sgsolve.pe import solve_pe

EPSILON = 1e-6


def oracle_instances(rng, count, max_states=8, kinds=None):
    made = 0
    while made < count:
        model = random_game(rng, max_states=max_states)
        objective = random_objective(rng, model)
        if kinds is not None and objective.kind not in kinds:
            continue
        try:
            values = game_value_bruteforce(model, objective)
        except (TooLarge, SingularSystem):
            continue
        made += 1
        yield model, objective, values


def test_criterion_1_oracle_equivalence_500_games():
    start = time.perf_counter()
    rng = random.Random(20260824)
    for model, objective, values in oracle_instances(rng, 500):
        truth = values[model.initial]
        for result in (
            solve_ce(model, objective, EPSILON),
            solve_pe(model, objective, EPSILON, seed=0),
        ):
            assert result.converged
            assert abs(result.value - truth) <= EPSILON
            assert result.lower - 1e-12 <= truth <= result.upper + 1e-12
    assert time.perf_counter() - start < 300.0


def test_criterion_2_figure_regressions():
    # Looping Maximizer state: one deflation drops its upper bound from a
    # loose initial 10 to the exit value 5, exactly.
    model, _ = fig1_left()
    bounds = BoundsVector([4.0, 4.0], [5.0, 10.0])
    loop = EndComponent.of([1], {1: (0,)})
    deflate(model, loop, bounds, Objective.mean_payoff(model), 1e-9, {})
    assert bounds.ub[1] == 5.0

    # Two-gadget chain: deflating the s2 self-loop component yields exactly
    # 2/3; repeatedly deflating the s1 component converges to 4/6.
    model, labels = fig2_chain(1)
    objective = Objective.reachability(labels["goal"])
    bounds = init_bounds(model, objective)
    s2 = EndComponent.of([1], {1: (0,)})
    deflate(model, s2, bounds, objective, 1e-9, {})
    assert bounds.ub[1] == 2.0 / 3.0

    s1 = EndComponent.of([0], {0: (0,)})
    changed = True
    while changed:
        changed, _ = deflate(model, s1, bounds, objective, 1e-9, {})
    assert bounds.ub[0] == pytest.approx(4.0 / 6.0, abs=1e-12)

    # Reach value of the one-gadget chain is 1/2.
    for solve in (solve_ce, solve_pe):
        result = solve(model, objective, EPSILON)
        assert result.converged
        assert result.value == pytest.approx(0.5, abs=EPSILON)


def test_criterion_3_deflation_breaks_the_spurious_fixpoint():
    model, _ = fig1_left()
    objective = Objective.mean_payoff(model)
    loose = BoundsVector([4.0, 4.0], [10.0, 10.0])
    s = model.initial

    stuck = solve_ce(
        model, objective, EPSILON,
        max_sweeps=10_000, enable_deflation=False,
        initial_bounds=loose,
    )
    assert not stuck.converged
    assert stuck.iterations == 10_000
    assert stuck.bounds.ub[stuck.state_map[s]] == 10.0

    fixed = solve_ce(
        model, objective, EPSILON, max_sweeps=100, initial_bounds=loose
    )
    assert fixed.converged
    assert fixed.upper - fixed.lower < 2 * EPSILON
    assert fixed.value == pytest.approx(5.0, abs=EPSILON)


def test_criterion_4_jump_memory_unlocks_chained_components():
    model, labels = fig2_chain(2)
    objective = Objective.reachability(labels["goal"])
    blocked = solve_pe(
        model, objective, EPSILON, max_paths=100_000, use_deflate_memory=False
    )
    assert not blocked.converged
    assert blocked.iterations == 100_000

    for k in range(1, 11):
        model, labels = fig2_chain(k)
        objective = Objective.reachability(labels["goal"])
        start = time.perf_counter()
        result = solve_pe(model, objective, EPSILON, seed=0)
        assert time.perf_counter() - start < 10.0
        assert result.converged
        reference = solve_ce(model, objective, EPSILON)
        assert abs(result.value - reference.value) <= 2 * EPSILON


def test_criterion_5_large_trees_within_a_minute():
    for family in ("treemulmec", "treemulsec"):
        model, _ = generate(family, n=14)
        assert model.num_states >= 2**14
        start = time.perf_counter()
        result = solve_ce(model, Objective.mean_payoff(model), EPSILON)
        assert time.perf_counter() - start < 60.0
        assert result.converged


def test_criterion_6_reduction_consistency():
    rng = random.Random(6)
    cases = []
    for model, objective, _ in oracle_instances(
        rng, 40, kinds={ObjectiveKind.REACHABILITY}
    ):
        if objective.avoid:
            objective = Objective.reachability(objective.goal)
        cases.append((model, objective.goal))
    for k in range(1, 6):
        model, labels = fig2_chain(k)
        cases.append((model, labels["goal"]))

    for model, goal in cases:
        direct = solve_ce(model, Objective.reachability(goal), EPSILON)
        transformed, objective = reach_as_meanpayoff(model, goal)
        reduced = solve_ce(transformed, objective, EPSILON)
        assert direct.converged and reduced.converged
        assert abs(direct.value - reduced.value) <= 2 * EPSILON


def test_criterion_7_invariants():
    rng = random.Random(7)

    # Per-iteration invariants, including the oracle staying bracketed.
    for model, objective, values in oracle_instances(
        rng, 20, max_states=6,
        kinds={ObjectiveKind.REACHABILITY, ObjectiveKind.MEAN_PAYOFF},
    ):
        previous = {}

        def check(sweeps, work, bounds):
            for s in work.states():
                assert bounds.lb[s] <= bounds.ub[s] + 1e-12
                assert bounds.lb[s] - 1e-9 <= values[s] <= bounds.ub[s] + 1e-9
            if previous:
                for s in work.states():
                    assert bounds.lb[s] >= previous["lb"][s] - 1e-12
                    assert bounds.ub[s] <= previous["ub"][s] + 1e-12
            previous["lb"] = list(bounds.lb)
            previous["ub"] = list(bounds.ub)

        result = solve_ce(
            model, objective, EPSILON, enable_collapse=False, instrument=check
        )
        assert result.converged

    # MEC decomposition against exhaustive end-component enumeration.
    from test_graph import brute_force_mecs

    for _ in range(50):
        model = random_game(rng, max_states=7)
        assert list(mec_decompose(model).mecs) == brute_force_mecs(model)

    # Per-seed determinism of the simulation-guided solver.
    for model, objective, _ in oracle_instances(rng, 10):
        runs = [solve_pe(model, objective, EPSILON, seed=42) for _ in range(2)]
        assert runs[0].value == runs[1].value
        assert runs[0].lower == runs[1].lower
        assert runs[0].upper == runs[1].upper
        assert runs[0].iterations == runs[1].iterations
