"""Complete-exploration solver."""

import pytest

from conftest import (
    MAX,
    MIN,
    chain_model,
    dirac,
    dist,
    random_game,
    random_objective,
    reflecting_walk,
    relabelled,
    split_value_mec_model,
    tree_compl_value,
)
from sgsolve import ecsolve, graph
from sgsolve.bounds import BoundsVector, state_update
from sgsolve.ce import solve_ce
from sgsolve.ecsolve import MecTracker
from sgsolve.generators import fig1_left, fig1_right, fig2_chain, generate
from sgsolve.graph import EndComponent, qualitative_reach
from sgsolve.model import build_game
from sgsolve.objectives import LabelMismatch, Objective, ObjectiveKind
from sgsolve.oracle import SingularSystem, TooLarge, game_value_bruteforce
from sgsolve.pe import solve_pe


def oracle_instances(rng, count, max_states=6):
    made = 0
    while made < count:
        model = random_game(rng, max_states=max_states)
        objective = random_objective(rng, model)
        try:
            values = game_value_bruteforce(model, objective)
        except (TooLarge, SingularSystem):
            continue
        made += 1
        yield model, objective, values


def test_fig1_left_meanpayoff():
    model, _ = fig1_left()
    result = solve_ce(model, Objective.mean_payoff(model))
    assert result.converged
    assert result.value == pytest.approx(5.0, abs=1e-6)
    assert result.lower <= 5.0 <= result.upper


def test_fig1_right_reachability():
    model, labels = fig1_right()
    result = solve_ce(model, Objective.reachability(labels["goal"]))
    assert result.converged
    assert result.value == pytest.approx(0.0, abs=1e-6)


def test_fig2_chain_values():
    for k in (1, 2, 4):
        model, labels = fig2_chain(k)
        result = solve_ce(model, Objective.reachability(labels["goal"]))
        assert result.converged
        assert result.value == pytest.approx(2.0**-k, abs=1e-6)


def test_split_value_mec():
    for order_a in (0, 1):
        for order_b in (0, 1):
            model = split_value_mec_model(order_a, order_b)
            result = solve_ce(model, Objective.mean_payoff(model))
            assert result.converged
            assert result.value == pytest.approx(10.0, abs=1e-6)


def test_safety_duality(rng):
    for model, objective, values in oracle_instances(rng, 15):
        if not objective.kind.value == "safety":
            objective = Objective.safety({0})
            values = game_value_bruteforce(model, objective)
        result = solve_ce(model, objective)
        assert result.converged
        assert result.objective == "safety"
        assert abs(result.value - values[model.initial]) <= 1e-6
        assert result.lower - 1e-12 <= values[model.initial] <= result.upper + 1e-12


def test_agrees_with_oracle(rng):
    for model, objective, values in oracle_instances(rng, 60):
        result = solve_ce(model, objective)
        assert result.converged
        assert abs(result.value - values[model.initial]) <= 1e-6


def test_budget_exhaustion_keeps_sound_bounds():
    model, labels = fig2_chain(3)
    result = solve_ce(model, Objective.reachability(labels["goal"]), max_sweeps=1)
    assert not result.converged
    assert result.iterations == 1
    true_value = 2.0**-3
    assert result.lower - 1e-12 <= true_value <= result.upper + 1e-12
    assert result.lower <= result.value <= result.upper


def test_initial_bounds_override():
    model, _ = fig1_left()
    start = BoundsVector([4.0, 4.0], [10.0, 10.0])
    result = solve_ce(model, Objective.mean_payoff(model), initial_bounds=start)
    assert result.converged
    assert result.value == pytest.approx(5.0, abs=1e-6)


@pytest.mark.parametrize(
    "start",
    [
        BoundsVector([6.0, 6.0], [4.0, 4.0]),
        BoundsVector([4.0], [10.0]),
        BoundsVector([4.0, 4.0], [10.0]),
        BoundsVector([4.0, float("nan")], [10.0, 10.0]),
        BoundsVector([4.0, 4.0], [float("nan"), 10.0]),
    ],
)
def test_unusable_initial_bounds_rejected(start):
    model, _ = fig1_left()
    with pytest.raises(ValueError, match="initial bounds"):
        solve_ce(model, Objective.mean_payoff(model), initial_bounds=start, max_sweeps=10)


def test_instrument_sees_monotone_bounds():
    model, _ = generate("treemulsec", n=3)
    previous = {}

    def check(sweeps, work, bounds):
        for s in work.states():
            assert bounds.lb[s] <= bounds.ub[s] + 1e-12
        if previous:
            for s in work.states():
                assert bounds.lb[s] >= previous["lb"][s] - 1e-12
                assert bounds.ub[s] <= previous["ub"][s] + 1e-12
        previous["lb"] = list(bounds.lb)
        previous["ub"] = list(bounds.ub)

    result = solve_ce(model, Objective.mean_payoff(model), instrument=check)
    assert result.converged


def test_empty_goal_rejected():
    model, _ = fig1_left()
    with pytest.raises(LabelMismatch):
        solve_ce(model, Objective.reachability(set()))


@pytest.mark.parametrize(
    "objective", [Objective.reachability({99}), Objective.safety({99})]
)
def test_unknown_state_rejected(objective):
    model, _ = fig1_left()
    with pytest.raises(LabelMismatch):
        solve_ce(model, objective)


def test_safety_bounds_in_safety_orientation(rng):
    for model, _, _ in oracle_instances(rng, 5):
        result = solve_ce(model, Objective.safety({0}))
        start = result.state_map[model.initial]
        assert result.bounds.lb[start] == result.lower
        assert result.bounds.ub[start] == result.upper
        assert result.stats["dualized"] is True


def test_safety_initial_bounds_are_safety_bounds(rng):
    # Every state of the chain surely reaches the unsafe state 2.
    model = chain_model()
    objective = Objective.safety({2})
    result = solve_ce(model, objective, initial_bounds=BoundsVector([0.0] * 3, [0.0] * 3))
    assert result.lower <= game_value_bruteforce(model, objective, model.initial) <= result.upper
    for model, _, _ in oracle_instances(rng, 5):
        objective = Objective.safety({0})
        values = game_value_bruteforce(model, objective)
        result = solve_ce(model, objective, initial_bounds=BoundsVector(values, values))
        assert result.lower - 1e-12 <= values[model.initial] <= result.upper + 1e-12


def test_bad_epsilon_rejected():
    model, _ = fig1_left()
    with pytest.raises(ValueError):
        solve_ce(model, Objective.mean_payoff(model), epsilon=0.0)
    with pytest.raises(ValueError):
        solve_ce(model, Objective.mean_payoff(model), epsilon=float("nan"), max_sweeps=10)


@pytest.mark.parametrize("epsilon", [float("inf"), -float("inf")])
def test_infinite_epsilon_rejected(epsilon):
    model, labels = fig2_chain(2)
    with pytest.raises(ValueError, match="positive and finite"):
        solve_ce(model, Objective.reachability(labels["goal"]), epsilon=epsilon)


def test_sweep_budget_below_one_rejected():
    model, labels = fig2_chain(2)
    for budget in (0, -5):
        with pytest.raises(ValueError):
            solve_ce(model, Objective.reachability(labels["goal"]), max_sweeps=budget)


def test_state_map_is_identity():
    model, labels = fig2_chain(2)
    result = solve_ce(model, Objective.reachability(labels["goal"]))
    assert result.state_map is not None
    assert len(result.state_map) == model.num_states
    (goal,) = labels["goal"]
    assert result.bounds.lb[result.state_map[goal]] == 1.0
    # The value-1 and value-0 regions stay in the working model as
    # absorbing states.
    model, labels = generate("dicerace", target=10)
    n = model.num_states
    for objective in (
        Objective.reachability(labels["goal"]),
        Objective.safety(labels["goal"]),
        Objective.mean_payoff(model),
    ):
        result = solve_ce(model, objective)
        assert result.converged
        assert result.state_map == tuple(range(n))
        assert result.stats["working_states"] == n


def value_one_exit_game():
    """Minimizer state 0 moves to 1 or 2.  Maximizer state 1 moves back to
    0 or hits goal 3 or sink 4 with probability 1/2 each; Maximizer state 2
    moves back to 0 or to the goal.  State 2 has value 1 and lies in the
    end component {0, 1, 2} of the game; the value of 0 is 1/2."""
    return build_game(
        [MIN, MAX, MAX, MAX, MAX],
        [
            (dirac(1), dirac(2)),
            (dirac(0), dist((3, 0.5), (4, 0.5))),
            (dirac(0), dirac(3)),
            (dirac(3),),
            (dirac(4),),
        ],
        [0.0] * 5,
        0,
    )


def test_value_one_state_leaves_no_end_component_to_span():
    # Made absorbing, the value-1 state 2 ends the end component at {0, 1},
    # in which staying is worth 0 to Maximizer.
    model = value_one_exit_game()
    objective = Objective.reachability({3})
    assert game_value_bruteforce(model, objective, model.initial) == 0.5
    working = []
    result = solve_ce(model, objective, instrument=lambda _, work, __: working.append(work))
    assert working and all(work.is_absorbing(2) for work in working)
    assert result.converged
    assert result.lower == result.upper == result.value == 0.5
    assert result.stats["working_states"] == model.num_states


def cycle_exit_game(owner):
    """States 0 and 1 of ``owner`` form a reward-3 cycle; 0 may instead
    move to the absorbing reward-5 state 2."""
    return build_game(
        [owner, owner, MAX],
        [(dirac(1), dirac(2)), (dirac(0),), (dirac(2),)],
        [3.0, 3.0, 5.0],
        0,
    )


def goal_free_cycle_game():
    """Maximizer cycle 0 <-> 1 whose exit from 1 hits goal 2 or sink 3 with
    probability 1/2 each."""
    return build_game(
        [MAX, MAX, MAX, MAX],
        [(dirac(1),), (dirac(0), dist((2, 0.5), (3, 0.5))), (dirac(2),), (dirac(3),)],
        [0.0] * 4,
        0,
    )


@pytest.mark.parametrize(
    "model, objective, value",
    [
        (cycle_exit_game(MAX), Objective.mean_payoff(cycle_exit_game(MAX)), 5.0),
        (cycle_exit_game(MIN), Objective.mean_payoff(cycle_exit_game(MIN)), 3.0),
        (goal_free_cycle_game(), Objective.reachability({2}), 0.5),
    ],
    ids=["max-cycle", "min-cycle", "max-reach-cycle"],
)
def test_single_controller_cycle_is_deflated_not_merged(model, objective, value):
    # Cycles in which only one player chooses are end components like any
    # other: CE keeps every state and leaves them to deflate/inflate.
    exact = game_value_bruteforce(model, objective, model.initial)
    assert exact == pytest.approx(value, abs=1e-12)
    ce = solve_ce(model, objective)
    for result in (ce, solve_pe(model, objective)):
        assert result.converged
        assert abs(result.value - exact) <= 1e-6
        assert result.lower - 1e-12 <= exact <= result.upper + 1e-12
    assert ce.stats["working_states"] == model.num_states


@pytest.mark.parametrize(
    "rmin, rmax",
    [(0.0, 1.0), (4.0, 10.0), (float("nan"), 10.0), (0.0, float("nan"))],
)
def test_unsound_mean_payoff_range_rejected(rmin, rmax):
    # The rewards are 3 and 5, and the value is 5.
    model = cycle_exit_game(MAX)
    objective = Objective(ObjectiveKind.MEAN_PAYOFF, rmin=rmin, rmax=rmax)
    with pytest.raises(ValueError, match="mean-payoff range"):
        solve_ce(model, objective, max_sweeps=10)


def test_looser_mean_payoff_range_is_accepted():
    model = cycle_exit_game(MAX)
    objective = Objective(ObjectiveKind.MEAN_PAYOFF, rmin=-1.0, rmax=10.0)
    result = solve_ce(model, objective)
    assert result.converged
    assert result.lower - 1e-12 <= 5.0 <= result.upper + 1e-12


def counted_updates(monkeypatch) -> list[int]:
    """Route CE's Bellman updates through a counter; returns the count cell."""
    calls = [0]

    def counted(model, bounds, state):
        calls[0] += 1
        state_update(model, bounds, state)

    monkeypatch.setattr("sgsolve.ce.state_update", counted)
    return calls


def gamblers_ruin(enter):
    """State 0 enters a fair gambler's-ruin walk over the 30 states 2..31 at
    its middle state 17 with probability ``enter`` and drops to the losing
    end 1 otherwise; the walk ends in 1 (lose) and 32 (goal)."""
    actions = [(dist((17, enter), (1, 1.0 - enter)),), (dirac(1),)]
    actions += [(dist((s - 1, 0.5), (s + 1, 0.5)),) for s in range(2, 32)]
    actions.append((dirac(32),))
    return build_game([MAX] * 33, actions, [0.0] * 33, 0), Objective.reachability({32})


@pytest.mark.parametrize("enter, sweep_updates", [(0.01, 26_443), (0.5, 38_191)])
def test_slow_mixing_component_costs_no_more_than_sweeps(monkeypatch, enter, sweep_updates):
    # The walk halves no gap per round, so it gets one round per pass, as
    # under id-order sweeps (whose update counts are ``sweep_updates``);
    # iterating it until all its gaps are within epsilon takes 71,256.
    calls = counted_updates(monkeypatch)
    model, objective = gamblers_ruin(enter)
    result = solve_ce(model, objective)
    assert result.converged
    exact = enter * 16 / 31
    assert result.lower - 1e-12 <= exact <= result.upper + 1e-12
    assert calls[0] <= 1.1 * sweep_updates


@pytest.mark.parametrize(
    "family, params, label",
    [("dicerace", {"target": 20}, "goal"), ("treemulsec", {"n": 6}, None)],
)
def test_updates_do_not_depend_on_numbering(monkeypatch, family, params, label):
    calls = counted_updates(monkeypatch)
    generated = generate(family, **params)
    counts, results = [], []
    for seed in (None, 1, 2):
        model, labels = generated if seed is None else relabelled(*generated, seed)
        if label is None:
            objective = Objective.mean_payoff(model)
        else:
            objective = Objective.reachability(labels[label])
        calls[0] = 0
        results.append(solve_ce(model, objective))
        counts.append(calls[0])
    assert all(result.converged for result in results)
    assert max(result.lower for result in results) <= min(result.upper for result in results)
    for count in counts[1:]:
        assert abs(count - counts[0]) <= 0.1 * counts[0]


def test_reflecting_walk_is_solved_by_the_qualitative_pass():
    # Without the value-1 set, interval iteration on this walk takes
    # 81,602 rounds, about 18 s, to close the gap.
    model = reflecting_walk(120)
    result = solve_ce(model, Objective.reachability({119}))
    assert result.lower == result.upper == 1.0
    assert result.iterations == 1


def counting_trackers(monkeypatch) -> list[MecTracker]:
    """Route CE's trackers through a subclass that lists every one made."""
    made = []

    class CountingTracker(MecTracker):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("sgsolve.ce.MecTracker", CountingTracker)
    return made


def test_trackers_only_for_components_that_start_open(monkeypatch):
    made = counting_trackers(monkeypatch)
    model = reflecting_walk(120)
    objective = Objective.reachability({119})
    # The qualitative pass pins every state to 1: no component is open.
    solve_ce(model, objective)
    assert made == []
    # Bounds that leave every state open need every absorbing state's
    # tracker; its inflation is what closes the state.
    result = solve_ce(
        model, objective, initial_bounds=BoundsVector([0.0] * 120, [1.0] * 120)
    )
    assert len(made) == 120
    assert result.lower == result.upper == 1.0
    assert result.iterations == 1


def test_budget_counts_rounds_of_the_slowest_component():
    # From state 0, half of the mass enters the component {1, 2}, whose gaps
    # halve every round and which exits to the reward-2 sink 5; the other
    # half enters the fig1_left loop 3, whose upper bound nothing but
    # deflation lowers from 10 to its exit value 5 (state 4).
    model = build_game(
        [MAX, MAX, MIN, MAX, MAX, MAX],
        [
            (dist((1, 0.5), (3, 0.5)),),
            (dist((2, 0.5), (5, 0.5)),),
            (dist((1, 0.5), (5, 0.5)),),
            (dirac(3), dirac(4)),
            (dirac(4),),
            (dirac(5),),
        ],
        [0.0, 0.0, 0.0, 4.0, 5.0, 2.0],
        0,
    )
    objective = Objective.mean_payoff(model)
    exact = game_value_bruteforce(model, objective, model.initial)
    assert exact == pytest.approx(3.5, abs=1e-12)
    loose = BoundsVector([0.0] * 6, [10.0] * 6)
    result = solve_ce(
        model, objective, max_sweeps=50, enable_deflation=False, initial_bounds=loose
    )
    assert result.converged is False
    assert result.iterations == 50
    assert result.lower - 1e-12 <= exact <= result.upper + 1e-12
    # Without end-component handling the absorbing states are not pinned.
    assert [(result.bounds.lb[s], result.bounds.ub[s]) for s in (4, 5)] == [(0.0, 10.0)] * 2


@pytest.mark.parametrize("open_start", [False, True], ids=["default", "open-initial-bounds"])
def test_absorbing_states_start_pinned_under_mean_payoff(monkeypatch, open_start):
    # Each treemulsec leaf has two absorbing exits next to its cycle: only
    # the cycles need a tracker.
    made = counting_trackers(monkeypatch)
    model, _ = generate("treemulsec", n=3)
    objective = Objective.mean_payoff(model)
    absorbing = [s for s in model.states() if model.is_absorbing(s)]
    assert len(absorbing) == 16
    initial_bounds = None
    if open_start:
        rmin, rmax = model.reward_range()
        initial_bounds = BoundsVector([rmin] * model.num_states, [rmax] * model.num_states)
    seen = []

    def first_pass(iterations, work, bounds):
        if not seen:
            seen.append([(bounds.lb[s], bounds.ub[s]) for s in absorbing])

    result = solve_ce(model, objective, initial_bounds=initial_bounds, instrument=first_pass)
    assert seen[0] == [(model.rewards[s], model.rewards[s]) for s in absorbing]
    assert len(made) == 8
    assert not any(tracker.mec.states & set(absorbing) for tracker in made)
    assert result.converged
    assert result.lower - 1e-12 <= 6.5 <= result.upper + 1e-12


def test_solve_stops_at_the_component_of_the_initial_state():
    # 0 -> absorbing 1 (reward 2) converges in the component of 0, which the
    # pass visits before the unreachable pair {2, 3}: the solve stops there.
    # A check of the initial state only at the end of each pass would go
    # on to process the pair's end component.
    model = build_game(
        [MAX, MAX, MAX, MIN],
        [
            (dirac(1),),
            (dirac(1),),
            (dirac(3), dist((2, 0.5), (1, 0.5))),
            (dirac(2), dist((3, 0.9), (1, 0.1))),
        ],
        [0.0, 2.0, 7.0, 1.0],
        0,
    )
    calls = []
    result = solve_ce(
        model, Objective.mean_payoff(model), instrument=lambda *args: calls.append(args[0])
    )
    assert (result.lower, result.upper) == (2.0, 2.0)
    assert result.converged
    assert result.iterations == 1
    assert calls == [1]
    assert [(result.bounds.lb[s], result.bounds.ub[s]) for s in (2, 3)] == [(0.0, 7.0)] * 2
    assert result.stats["end_components"] == 1
    assert result.stats["staying_steps"] == 0


@pytest.mark.parametrize(
    "family, n",
    [("treebigmec", 5), ("treemulcomplmec", 6), ("treemulcomplsec", 6)],
)
def test_end_components_with_final_exits_settle_in_one_round(family, n):
    # A staying precision halved from (rmax - rmin)/8 per call took 21 rounds.
    model, _ = generate(family, n=n)
    result = solve_ce(model, Objective.mean_payoff(model))
    assert result.converged
    assert result.iterations == 1


def test_trackers_start_at_the_tight_staying_precision(monkeypatch):
    # Only deflation lowers the loop's upper bound to its exit value 5;
    # the loop's tracker starts its staying iteration at epsilon/4, not at
    # (rmax - rmin)/8.  The precision is read at the first staying_bounds
    # call of each end component, which the whole-MEC step makes.  Every
    # later call, in CE and in PE, runs at epsilon/4 too: the precision is
    # fixed for the tracker's whole life.
    firsts: dict[EndComponent, float] = {}
    precisions: list[float] = []
    staying_bounds = ecsolve.staying_bounds

    def recording(model, candidate, objective, precision, cache=None):
        firsts.setdefault(candidate.ec, precision)
        precisions.append(precision)
        return staying_bounds(model, candidate, objective, precision, cache)

    monkeypatch.setattr(ecsolve, "staying_bounds", recording)
    model, _ = fig1_left()
    loose = BoundsVector([4.0, 4.0], [10.0, 10.0])
    epsilon = 1e-6
    result = solve_ce(model, Objective.mean_payoff(model), epsilon, initial_bounds=loose)
    assert list(firsts.values()) == [epsilon / 4]
    assert result.lower - 1e-12 <= 5.0 <= result.upper + 1e-12
    games = [split_value_mec_model(), generate("treebigmec", n=4)[0]]
    for model in games:
        for solve in (solve_ce, solve_pe):
            solve(model, Objective.mean_payoff(model), epsilon)
    assert len(precisions) > 100
    assert set(precisions) == {epsilon / 4}


def counted_calls(monkeypatch) -> list[str]:
    """List every ``MecTracker.refresh_candidates`` and ``sec_candidates``
    call, each still made."""
    calls = []
    refresh = MecTracker.refresh_candidates
    sec_candidates = ecsolve.sec_candidates

    def counted_refresh(self, model, bounds):
        calls.append("refresh_candidates")
        return refresh(self, model, bounds)

    def counted_search(*args):
        calls.append("sec_candidates")
        return sec_candidates(*args)

    monkeypatch.setattr(MecTracker, "refresh_candidates", counted_refresh)
    monkeypatch.setattr(ecsolve, "sec_candidates", counted_search)
    return calls


@pytest.mark.parametrize(
    "family, n, lower, upper",
    [
        ("treemulsec", 11, "0x1.a000000000000p+2", "0x1.a000000000000p+2"),
        ("treebigmec", 9, "0x1.866665cbf0988p+2", "0x1.866666bee0130p+2"),
    ],
)
def test_uniform_end_components_settle_without_candidate_search(
    monkeypatch, family, n, lower, upper
):
    # Every end component has final exits and a uniform value, so the
    # whole-MEC step of its first process call settles it.  The interval is the one
    # the candidate search gave, bit for bit, and so are the round and the steps.
    calls = counted_calls(monkeypatch)
    model, _ = generate(family, n=n)
    result = solve_ce(model, Objective.mean_payoff(model))
    assert calls == []
    assert (result.lower.hex(), result.upper.hex()) == (lower, upper)
    assert result.stats["settled_whole"] == result.stats["end_components"] > 0
    assert result.iterations == 1
    assert result.stats["staying_steps"] == {"treemulsec": 4096, "treebigmec": 65}[family]


def test_mecs_are_confirmed_from_the_components_of_the_solve(monkeypatch):
    # Every MEC of treemulsec is a whole SCC (a two-cycle), so the one
    # Tarjan pass over the game is the only one.
    model, _ = relabelled(*generate("treemulsec", n=4), 3)
    calls = []
    real = graph.scc_decompose

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(graph, "scc_decompose", counted)
    monkeypatch.setattr("sgsolve.ce.scc_decompose", counted)
    result = solve_ce(model, Objective.mean_payoff(model))
    assert result.converged
    assert result.stats["end_components"] == 16
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["reach", "mean-payoff"])
def test_components_where_nothing_stays_are_not_searched(monkeypatch, kind):
    # Every SCC of dicerace but its absorbing sinks, which start closed, is
    # left by each of its actions with positive probability, so none holds
    # an end component.
    model, labels = relabelled(*generate("dicerace", target=8), 5)
    calls = []
    real = graph.mec_decompose

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr("sgsolve.ce.mec_decompose", counted)
    objective = (
        Objective.reachability(labels["goal"]) if kind == "reach" else Objective.mean_payoff(model)
    )
    assert solve_ce(model, objective).converged
    assert calls == []


def updated_states(monkeypatch) -> list[int]:
    """List every state that CE's ``state_update`` is called on."""
    states = []

    def recorded(model, bounds, state):
        states.append(state)
        state_update(model, bounds, state)

    monkeypatch.setattr("sgsolve.ce.state_update", recorded)
    return states


def test_states_that_start_closed_are_never_updated(monkeypatch):
    updated = updated_states(monkeypatch)
    model, _ = relabelled(*generate("treemulsec", n=4), 3)
    absorbing = {s for s in model.states() if model.is_absorbing(s)}
    assert len(absorbing) == 32
    assert solve_ce(model, Objective.mean_payoff(model)).converged
    assert updated and not absorbing & set(updated)

    updated.clear()
    model, labels = relabelled(*generate("dicerace", target=8), 3)
    value1, value0 = qualitative_reach(model, labels["goal"])
    assert len(value1) > 1 and len(value0) > 1
    assert solve_ce(model, Objective.reachability(labels["goal"])).converged
    assert updated and not (value1 | value0) & set(updated)


def test_near_one_self_loop_is_an_end_component():
    # Its probability is within the model's tolerance of 1, so the state is
    # no Dirac self-loop and not pinned, yet its action stays inside it: a
    # one-state MEC, whose tracker settles it.  Plain updates barely move it.
    loop = dist((1, 1 - 5e-13))
    assert not loop.is_self_loop(1)
    model = build_game([MAX, MAX, MAX], [(dist((1, 0.5), (2, 0.5)),), (loop,), (dirac(2),)],
                       [0.0, 3.0, 1.0], 0)
    result = solve_ce(model, Objective.mean_payoff(model), max_sweeps=100)
    assert result.converged
    assert result.stats["end_components"] == result.stats["settled_whole"] == 1
    assert result.lower - 1e-12 <= 2.0 <= result.upper + 1e-12


def test_components_that_start_within_epsilon_get_no_tracker(monkeypatch):
    # State 0 is a one-state MEC (stay for 4 or move to the absorbing 5);
    # bounds that start within epsilon of its value 5 resolve it unvisited.
    made = counting_trackers(monkeypatch)
    model = build_game([MAX, MAX], [(dirac(0), dirac(1)), (dirac(1),)], [4.0, 5.0], 0)
    epsilon = 1e-6
    start = BoundsVector([5.0 - epsilon / 4] * 2, [5.0 + epsilon / 4] * 2)
    result = solve_ce(model, Objective.mean_payoff(model), epsilon=epsilon, initial_bounds=start)
    assert result.converged and result.iterations == 1
    assert made == [] and result.stats["end_components"] == 0
    assert (result.lower, result.upper) == (5.0 - epsilon / 4, 5.0 + epsilon / 4)


@pytest.mark.parametrize("order_a, order_b", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_split_value_end_component_falls_back_to_candidate_search(
    monkeypatch, order_a, order_b
):
    # The whole MEC's staying bracket stalls at [0, 10], so the whole-MEC
    # step settles nothing; the candidate search then splits the values.
    calls = counted_calls(monkeypatch)
    model = split_value_mec_model(order_a, order_b)
    objective = Objective.mean_payoff(model)
    values = game_value_bruteforce(model, objective)
    assert values == pytest.approx([10.0, 0.0], abs=1e-12)
    result = solve_ce(model, objective)
    assert "refresh_candidates" in calls
    assert result.stats["end_components"] == 1
    assert result.stats["settled_whole"] == 0
    assert result.converged
    for s in model.states():
        assert result.bounds.lb[s] - 1e-12 <= values[s] <= result.bounds.ub[s] + 1e-12


def test_dicerace_builds_no_tracker():
    # Its only end components are the absorbing goal and lose states,
    # which start closed under either objective.
    model, labels = generate("dicerace", target=6)
    for objective in (Objective.reachability(labels["goal"]), Objective.mean_payoff(model)):
        result = solve_ce(model, objective)
        assert result.converged
        assert result.stats["end_components"] == result.stats["settled_whole"] == 0


@pytest.mark.parametrize("family", ["treemulcomplmec", "treemulcomplsec"])
@pytest.mark.parametrize("n", [6, 10])
def test_tree_compl_families_bracket_their_closed_form(family, n):
    value = tree_compl_value(n)
    assert value == 4.5
    model, _ = generate(family, n=n)
    result = solve_ce(model, Objective.mean_payoff(model))
    assert result.converged
    assert result.lower <= value <= result.upper
    assert result.upper - result.lower < 2e-6


@pytest.mark.parametrize(
    "family, n, value",
    [("treemulcomplmec", 2, 6.0), ("treemulcomplmec", 3, 6.5), ("treemulcomplsec", 2, 6.0)],
)
def test_tree_compl_closed_form_agrees_with_oracle(family, n, value):
    assert tree_compl_value(n) == value
    model, _ = generate(family, n=n)
    objective = Objective.mean_payoff(model)
    assert game_value_bruteforce(model, objective, model.initial) == pytest.approx(
        value, abs=1e-9
    )
    result = solve_ce(model, objective)
    assert result.lower - 1e-12 <= value <= result.upper + 1e-12


@pytest.mark.parametrize(
    "family, params",
    [("treebigmec", {"n": 5}), ("treemulcomplsec", {"n": 4}), ("treemulsec", {"n": 3})],
)
def test_stats_count_every_staying_step(staying_steps, family, params):
    model, _ = generate(family, **params)
    result = solve_ce(model, Objective.mean_payoff(model))
    assert result.stats["staying_steps"] == staying_steps[0] > 0


def test_extrapolated_staying_iteration_settles_one_big_component():
    """treebigmec n=9 (one end component of 1,023 states) took 896 plain
    staying steps; extrapolated, it takes at most 300, and the interval
    stays narrower than twice epsilon around the value 6.1."""
    model, _ = generate("treebigmec", n=9)
    result = solve_ce(model, Objective.mean_payoff(model))
    assert result.converged
    assert result.lower <= 6.1 <= result.upper
    assert result.stats["staying_steps"] <= 300
