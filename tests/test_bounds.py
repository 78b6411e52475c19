"""Bound vectors, the guarded Bellman update and action selection."""

import pytest

from conftest import MAX, MIN, loop_exit_model, split_value_mec_model
from sgsolve.bounds import (
    BoundsVector,
    converged,
    extract_strategy,
    midpoint,
    optimal_actions,
    state_update,
)


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
