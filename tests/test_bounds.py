"""Bound vectors, the guarded Bellman update and action selection."""

import functools
import operator

import pytest

from conftest import (
    MAX,
    MIN,
    dirac,
    dist,
    loop_exit_model,
    random_game,
    relabelled,
    split_value_mec_model,
)
from sgsolve.bounds import (
    BoundsVector,
    converged,
    extract_strategy,
    midpoint,
    optimal_actions,
    state_update,
)
from sgsolve.ce import solve_ce
from sgsolve.ecsolve import SecCandidate, best_exit, deflate, inflate, staying_bounds
from sgsolve.generators import generate
from sgsolve.graph import EndComponent
from sgsolve.model import build_game
from sgsolve.objectives import Objective


def test_bounds_vector_basics():
    b = BoundsVector([0.0, 1.0], [2.0, 3.0])
    assert b.gap(0) == 2.0
    c = b.copy()
    c.lb[0] = 5.0
    assert b.lb[0] == 0.0


def test_state_update_maximizer_picks_best():
    m = loop_exit_model()
    bounds = BoundsVector([9.0, 1.0], [9.0, 10.0])
    state_update(m, bounds, 1)
    assert bounds.lb[1] == 9.0


def test_state_update_minimizer_picks_worst():
    m = split_value_mec_model()
    bounds = BoundsVector([0.0, 0.0], [0.0, 10.0])
    state_update(m, bounds, 1)
    assert bounds.ub[1] == 0.0


def test_state_update_never_crosses_the_other_bound():
    m = loop_exit_model()
    bounds = BoundsVector([5.0, 2.0], [5.0, 3.0])
    state_update(m, bounds, 1)
    assert bounds.lb[1] == 3.0
    assert bounds.ub[1] == 3.0


def test_optimal_actions_exact_ties():
    m = split_value_mec_model()
    assert optimal_actions(m, [3.0, 3.0], 0) == (0, 1)
    assert optimal_actions(m, [4.0, 3.0], 0) == (0,)
    assert optimal_actions(m, [4.0, 3.0], 1) == (1,)


def test_optimal_actions_tolerance_keeps_near_ties():
    m = split_value_mec_model()
    assert optimal_actions(m, [4.0, 4.0 - 1e-9], 0) == (0,)
    assert optimal_actions(m, [4.0, 4.0 - 1e-9], 0, tolerance=1e-6) == (0, 1)


def test_extract_strategy():
    m = split_value_mec_model()
    bounds = BoundsVector([10.0, 0.0], [10.0, 0.0])
    sigma = extract_strategy(m, bounds, MAX)
    tau = extract_strategy(m, bounds, MIN)
    # Maximizer stays on its reward-10 state, Minimizer on its reward-0 one.
    assert sigma.choice == (0, None)
    assert tau.choice == (None, 1)


def test_converged_uses_twice_epsilon():
    b = BoundsVector([0.0], [1.9e-6])
    assert converged(b, 0, 1e-6)
    b = BoundsVector([0.0], [2e-6])
    assert not converged(b, 0, 1e-6)


def test_converged_rejects_bad_epsilon():
    b = BoundsVector([0.0], [1.0])
    with pytest.raises(ValueError):
        converged(b, 0, 0.0)
    with pytest.raises(ValueError):
        converged(b, 0, float("nan"))
    with pytest.raises(ValueError):
        converged(b, 0, float("inf"))


def test_midpoint():
    b = BoundsVector([1.0], [3.0])
    assert midpoint(b, 0) == 2.0


def left_fold(dist, x) -> float:
    """The expectation of ``x`` under ``dist``, summed from 0 left to right."""
    return functools.reduce(operator.add, [p * x[t] for t, p in dist.support], 0)


def reference_update(model, bounds, s) -> tuple[float, float]:
    pick = max if model.owners[s] is MAX else min
    best_u = pick(left_fold(d, bounds.ub) for d in model.actions[s])
    best_l = pick(left_fold(d, bounds.lb) for d in model.actions[s])
    ub = max(best_u, bounds.lb[s]) if best_u < bounds.ub[s] else bounds.ub[s]
    lb = min(best_l, ub) if best_l > bounds.lb[s] else bounds.lb[s]
    return lb, ub


def reference_best_exit(model, candidate, bounds, objective):
    maximize = candidate.beneficiary is MAX
    reference = bounds.ub if maximize else bounds.lb
    states = candidate.ec.states
    values = {
        (s, a): left_fold(d, reference)
        for s in sorted(states)
        if model.owners[s] is candidate.beneficiary
        for a, d in enumerate(model.actions[s])
        if any(t not in states for t, _ in d.support)
    }
    if not values:
        return (objective.value_floor() if maximize else objective.value_ceiling()), None
    best = (max if maximize else min)(values.values())
    return best, next(e for e, v in values.items() if v == best)


def sound_bounds(model, objective, rng) -> BoundsVector:
    """CE's final bounds, each widened towards the objective's range at
    random or kept."""
    final = solve_ce(model, objective).bounds
    lo, hi = objective.value_floor(), objective.value_ceiling()
    return BoundsVector(
        [rng.choice([l, rng.uniform(lo, l)]) for l in map(float, final.lb)],
        [rng.choice([u, rng.uniform(u, hi)]) for u in map(float, final.ub)],
    )


def kernel_instances(rng):
    for _ in range(60):
        model = random_game(rng, max_states=rng.choice([8, 30]))
        yield model, Objective.mean_payoff(model)
    model, labels = relabelled(*generate("dicerace", target=8), 5)
    yield model, Objective.reachability(labels["goal"])
    model, _ = relabelled(*generate("treemulsec", n=4), 5)
    yield model, Objective.mean_payoff(model)


def test_kernels_sum_each_support_left_to_right(rng):
    # A test-local left fold pins the summation order bit for bit; ``sum``
    # itself compensates float rounding from Python 3.12.
    for model, objective in kernel_instances(rng):
        bounds = sound_bounds(model, objective, rng)
        for s in model.states():
            updated = bounds.copy()
            state_update(model, updated, s)
            lb, ub = reference_update(model, bounds, s)
            assert (updated.lb[s].hex(), updated.ub[s].hex()) == (lb.hex(), ub.hex())
            for x in (bounds.lb, bounds.ub):
                values = [left_fold(d, x) for d in model.actions[s]]
                best = (max if model.owners[s] is MAX else min)(values)
                for tolerance in (0.0, 1e-9):
                    expected = tuple(a for a, v in enumerate(values) if abs(v - best) <= tolerance)
                    assert optimal_actions(model, x, s, tolerance) == expected
        n = model.num_states
        for states in [frozenset(rng.sample(range(n), rng.randint(1, min(4, n)))) for _ in range(10)]:
            for player in (MAX, MIN):
                candidate = SecCandidate(EndComponent.of(states, {}), player)
                value, exit = best_exit(model, candidate, bounds, objective)
                expected, expected_exit = reference_best_exit(model, candidate, bounds, objective)
                assert (float(value).hex(), exit) == (float(expected).hex(), expected_exit)


def test_a_tie_under_the_left_fold_stays_a_tie():
    # Action 0 is worth 0.5 + 0.75 ulp(0.5) exactly.  Summed left to right
    # each small product rounds away and it ties with action 1's 0.5; summed
    # in any other order (or compensated) it beats it by one ulp.
    tiny = 3 * 2.0**-54
    model = build_game(
        [MAX] * 5,
        [(dist((1, 0.5), (2, 0.25), (3, 0.25)), dirac(4))] + [(dirac(s),) for s in range(1, 5)],
        [0.0] * 5,
        0,
    )
    x = [1.0, 1.0, tiny, tiny, 0.5]
    assert optimal_actions(model, x, 0) == (0, 1)
    candidate = SecCandidate(EndComponent.of([0], {}), MAX)
    bounds = BoundsVector([0.0] * 5, x)
    assert best_exit(model, candidate, bounds, Objective.mean_payoff(model)) == (0.5, (0, 0))
    state_update(model, bounds, 0)
    assert bounds.ub[0] == 0.5


# Bound values for the clip test: dyadic, so that one-step optima tie with
# them exactly, and both zeros, so that a tie shows which argument won.
CLIP_VALUES = [-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0]


def crossing_bounds(n, rng) -> BoundsVector:
    """Independent draws from ``CLIP_VALUES``, ordered per state; a
    one-step optimum often lands on or past the other bound."""
    pairs = [sorted([rng.choice(CLIP_VALUES), rng.choice(CLIP_VALUES)]) for _ in range(n)]
    return BoundsVector([lo for lo, _ in pairs], [hi for _, hi in pairs])


def signed_tie(a: float, b: float) -> bool:
    return a == b == 0.0 and str(a) != str(b)


def test_clips_select_as_max_and_min_do(rng):
    # Which clips fired, and how: past the other bound, on an exact tie,
    # and on a tie of 0.0 with -0.0, where the two arguments differ in bits.
    fired = dict.fromkeys(
        ["ub past", "ub tie", "ub zeros", "lb past", "lb tie", "lb zeros",
         "deflate zeros", "inflate zeros"], 0
    )
    for _ in range(150):
        model = random_game(rng, max_states=rng.choice([4, 8]))
        n = model.num_states
        for _ in range(10):
            bounds = crossing_bounds(n, rng)
            for s in model.states():
                updated = bounds.copy()
                state_update(model, updated, s)
                lb, ub = reference_update(model, bounds, s)
                assert (updated.lb[s].hex(), updated.ub[s].hex()) == (lb.hex(), ub.hex())
                pick = max if model.owners[s] is MAX else min
                best_u = pick(left_fold(d, bounds.ub) for d in model.actions[s])
                best_l = pick(left_fold(d, bounds.lb) for d in model.actions[s])
                if best_u < bounds.ub[s]:
                    low = bounds.lb[s]
                    fired["ub past"] += low > best_u
                    fired["ub tie"] += low == best_u
                    fired["ub zeros"] += signed_tie(best_u, low)
                if best_l > bounds.lb[s]:
                    fired["lb past"] += ub < best_l
                    fired["lb tie"] += ub == best_l
                    fired["lb zeros"] += signed_tie(best_l, ub)
            goal = frozenset(rng.sample(range(n), rng.randint(1, n)))
            objective = Objective.reachability(goal)
            states = frozenset(rng.sample(range(n), rng.randint(1, n)))
            for player, operate in ((MAX, deflate), (MIN, inflate)):
                candidate = SecCandidate(EndComponent.of(states, {}), player)
                low, high = staying_bounds(model, candidate, objective, 1e-6)
                exit_value, _ = best_exit(model, candidate, bounds, objective)
                updated = bounds.copy()
                operate(model, candidate, updated, objective, 1e-6)
                for t in model.states():
                    lb, ub = bounds.lb[t], bounds.ub[t]
                    if t not in states:
                        expected = (lb, ub)
                    elif player is MAX:
                        ceiling = max(high, exit_value)
                        new = max(min(ub, ceiling), lb)
                        expected = (lb, new if new < ub else ub)
                        fired["deflate zeros"] += new < ub and signed_tie(min(ub, ceiling), lb)
                    else:
                        floor = min(low, exit_value)
                        new = min(max(lb, floor), ub)
                        expected = (new if new > lb else lb, ub)
                        fired["inflate zeros"] += new > lb and signed_tie(max(lb, floor), ub)
                    got = (updated.lb[t], updated.ub[t])
                    assert [v.hex() for v in got] == [v.hex() for v in expected]
    assert all(fired.values()), fired
