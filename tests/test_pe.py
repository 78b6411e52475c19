"""Partial-exploration solver."""

import networkx as nx
import pytest

from conftest import (
    MAX,
    MIN,
    all_actions,
    dirac,
    random_game,
    random_objective,
    relabelled,
    stream_game,
    tree_compl_value,
)
from sgsolve import pe
from sgsolve.bounds import state_update
from sgsolve.ce import solve_ce
from sgsolve.ecsolve import MecTracker, _StayingIteration
from sgsolve.generators import fig1_left, fig1_right, fig2_chain, generate
from sgsolve.graph import mec_decompose, scc_decompose
from sgsolve.model import build_game
from sgsolve.objectives import LabelMismatch, Objective, ObjectiveKind, prepare
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
    result = solve_pe(model, Objective.mean_payoff(model))
    assert result.converged
    assert result.value == pytest.approx(5.0, abs=1e-6)


def test_fig1_right_reachability():
    model, labels = fig1_right()
    result = solve_pe(model, Objective.reachability(labels["goal"]))
    assert result.converged
    assert result.value == pytest.approx(0.0, abs=1e-6)


def test_fig2_chain_values():
    for k in (1, 2, 3):
        model, labels = fig2_chain(k)
        result = solve_pe(model, Objective.reachability(labels["goal"]))
        assert result.converged
        assert result.value == pytest.approx(2.0**-k, abs=1e-6)


def test_agrees_with_oracle(rng):
    for model, objective, values in oracle_instances(rng, 50):
        result = solve_pe(model, objective, seed=7)
        assert result.converged
        assert abs(result.value - values[model.initial]) <= 1e-6
        assert result.lower - 1e-12 <= values[model.initial] <= result.upper + 1e-12


def test_safety(rng):
    for model, _, _ in oracle_instances(rng, 10):
        objective = Objective.safety({0})
        values = game_value_bruteforce(model, objective)
        result = solve_pe(model, objective)
        assert result.converged
        assert result.objective == "safety"
        assert abs(result.value - values[model.initial]) <= 1e-6


def test_deterministic_per_seed(rng):
    for model, objective, _ in oracle_instances(rng, 10):
        first = solve_pe(model, objective, seed=3)
        second = solve_pe(model, objective, seed=3)
        assert first.value == second.value
        assert first.lower == second.lower
        assert first.upper == second.upper
        assert first.iterations == second.iterations
        assert first.states_explored == second.states_explored


def test_different_seeds_agree_on_value(rng):
    model, objective, values = next(iter(oracle_instances(rng, 1)))
    for seed in range(5):
        result = solve_pe(model, objective, seed=seed)
        assert result.converged
        assert abs(result.value - values[model.initial]) <= 1e-6


def test_partial_exploration_skips_unvisited_states():
    from conftest import MAX, dirac
    from sgsolve.model import build_game

    # States 2 and 3 are unreachable from the initial state and must never
    # be expanded.
    model = build_game(
        [MAX, MAX, MAX, MAX],
        [(dirac(1),), (dirac(1),), (dirac(3),), (dirac(2),)],
        [0.0, 0.0, 0.0, 0.0],
        0,
    )
    result = solve_pe(model, Objective.reachability({1}), seed=1)
    assert result.converged
    assert result.value == pytest.approx(1.0, abs=1e-6)
    assert result.states_explored == 2


def test_path_budget_exhaustion_keeps_sound_bounds():
    model, labels = fig2_chain(2)
    result = solve_pe(
        model, Objective.reachability(labels["goal"]), max_paths=3
    )
    assert not result.converged
    assert result.iterations == 3
    assert result.lower - 1e-12 <= 0.25 <= result.upper + 1e-12


def test_memory_disabled_loops_on_end_components():
    model, labels = fig2_chain(2)
    result = solve_pe(
        model,
        Objective.reachability(labels["goal"]),
        max_paths=2_000,
        use_deflate_memory=False,
    )
    assert not result.converged


@pytest.fixture
def checked_path_lengths(monkeypatch):
    """Checks that no sampled path has more than ``2 * (REVISIT_BUDGET +
    1)`` pairs per explored state; collects the largest ratio seen."""
    real = pe.sample_path
    ratios = [0.0]

    def sample(model, part, memory, rng, epsilon):
        path, looped = real(model, part, memory, rng, epsilon)
        assert len(path) <= 2 * (pe.REVISIT_BUDGET + 1) * len(part.explored)
        ratios[0] = max(ratios[0], len(path) / len(part.explored))
        return path, looped

    monkeypatch.setattr(pe, "sample_path", sample)
    return ratios


class TestPathLength:
    """The revisit budget alone bounds a path's length."""

    @pytest.mark.parametrize("use_memory", [True, False])
    def test_on_random_games(self, checked_path_lengths, rng, use_memory):
        for _ in range(150):
            model = random_game(rng, max_states=8)
            objective = random_objective(rng, model)
            solve_pe(
                model, objective, seed=rng.randrange(1000), max_paths=300,
                use_deflate_memory=use_memory,
            )
        assert checked_path_lengths[0] > 1.0

    @pytest.mark.parametrize("use_memory", [True, False])
    def test_on_fig2chain(self, checked_path_lengths, use_memory):
        model, labels = generate("fig2chain", k=10)
        solve_pe(
            model, Objective.reachability(labels["goal"]), seed=0, max_paths=2_000,
            use_deflate_memory=use_memory,
        )
        assert checked_path_lengths[0] > 0.0


def test_agrees_with_complete_solver():
    for name, params in [("fig2chain", {"k": 4}), ("dicerace", {"target": 2})]:
        model, labels = generate(name, **params)
        objective = Objective.reachability(labels["goal"])
        ce = solve_ce(model, objective)
        pe = solve_pe(model, objective, seed=0)
        assert ce.converged and pe.converged
        assert abs(ce.value - pe.value) <= 2e-6


def test_empty_goal_rejected():
    model, _ = fig1_left()
    with pytest.raises(LabelMismatch):
        solve_pe(model, Objective.reachability(set()))


@pytest.mark.parametrize(
    "objective", [Objective.reachability({99}), Objective.safety({99})]
)
def test_unknown_state_rejected(objective):
    model, _ = fig1_left()
    with pytest.raises(LabelMismatch):
        solve_pe(model, objective)


def test_safety_bounds_in_safety_orientation(rng):
    for model, _, _ in oracle_instances(rng, 5):
        result = solve_pe(model, Objective.safety({0}))
        start = result.state_map[model.initial]
        assert result.bounds.lb[start] == result.lower
        assert result.bounds.ub[start] == result.upper
        assert result.stats["dualized"] is True


def test_bad_epsilon_rejected():
    model, _ = fig1_left()
    with pytest.raises(ValueError):
        solve_pe(model, Objective.mean_payoff(model), epsilon=-1.0)
    with pytest.raises(ValueError):
        solve_pe(model, Objective.mean_payoff(model), epsilon=float("nan"), max_paths=10)


@pytest.mark.parametrize("epsilon", [float("inf"), -float("inf")])
def test_infinite_epsilon_rejected(epsilon):
    model, labels = fig2_chain(2)
    with pytest.raises(ValueError, match="positive and finite"):
        solve_pe(model, Objective.reachability(labels["goal"]), epsilon=epsilon)


@pytest.fixture
def staying_work(monkeypatch):
    """Records, for every staying iteration a solve compiles, the tracker
    whose ``process`` call compiled it, its end component, the iteration
    and the trackers whose calls stepped it; also the trackers that the
    last component refresh returned."""
    record = {"compiled": [], "stepped": {}, "last": []}
    current = [None]
    real_process = MecTracker.process
    real_refresh = pe._refresh_components
    compile_ = _StayingIteration.compile
    step = _StayingIteration.step

    def process(tracker, model, bounds):
        current[0] = tracker
        try:
            return real_process(tracker, model, bounds)
        finally:
            current[0] = None

    def refresh(*args):
        record["last"] = real_refresh(*args)
        return record["last"]

    def compiling(model, ec):
        iteration = compile_(model, ec)
        record["compiled"].append((current[0], ec, iteration))
        record["stepped"][id(iteration)] = set()
        return iteration

    def stepping(iteration):
        record["stepped"][id(iteration)].add(current[0])
        step(iteration)

    monkeypatch.setattr(MecTracker, "process", process)
    monkeypatch.setattr(pe, "_refresh_components", refresh)
    monkeypatch.setattr(_StayingIteration, "compile", staticmethod(compiling))
    monkeypatch.setattr(_StayingIteration, "step", stepping)
    return record


@pytest.mark.parametrize(
    "family, params", [("treebigmec", {"n": 5}), ("treemulcomplsec", {"n": 3})]
)
def test_stats_count_the_staying_steps_of_dropped_trackers(
    staying_work, staying_steps, family, params
):
    """Trackers are replaced as their components grow; ``staying_steps``
    still counts every plain staying-value step of the solve, those of the
    iterations that dropped trackers compiled included."""
    model, _ = generate(family, **params)
    result = solve_pe(model, Objective.mean_payoff(model))
    dropped = [
        iteration.steps
        for tracker, _, iteration in staying_work["compiled"]
        if tracker not in staying_work["last"]
    ]
    assert sum(dropped) > 0
    assert result.stats["staying_steps"] == staying_steps[0]


def test_grown_mec_resumes_the_iterations_of_the_old_one(staying_work):
    """The solve's one staying cache compiles each end component once, and
    the tracker of a grown MEC steps an iteration that the tracker of the
    MEC it grew from compiled."""
    model, _ = generate("treebigmec", n=5)
    assert solve_pe(model, Objective.mean_payoff(model)).converged
    compiled = staying_work["compiled"]
    ecs = [ec for _, ec, _ in compiled]
    assert len(set(ecs)) == len(ecs)
    resumed = [
        (owner, stepper)
        for owner, _, iteration in compiled
        for stepper in staying_work["stepped"][id(iteration)]
        if stepper is not owner
    ]
    assert resumed
    assert all(owner.mec.states < stepper.mec.states for owner, stepper in resumed)


@pytest.mark.parametrize(
    "family, params", [("treemulsec", {"n": 3}), ("fig2chain", {"k": 4})]
)
def test_instrument_sees_every_path_and_tightening_bounds(family, params):
    model, labels = generate(family, **params)
    if "goal" in labels:
        objective = Objective.reachability(labels["goal"])
    else:
        objective = Objective.mean_payoff(model)
    calls = []

    def record(paths, work, part):
        calls.append((paths, work, part.bounds.copy()))

    result = solve_pe(model, objective, instrument=record)
    assert result.converged
    assert [paths for paths, _, _ in calls] == list(range(1, result.iterations + 1))
    for (_, _, before), (_, _, after) in zip(calls, calls[1:]):
        assert all(map(float.__le__, before.lb, after.lb))
        assert all(map(float.__ge__, before.ub, after.ub))
    _, work, last = calls[-1]
    assert (last.lb[work.initial], last.ub[work.initial]) == (result.lower, result.upper)


@pytest.mark.parametrize(
    "family, params, reference",
    [
        ("treemulsec", {"n": 2}, None),
        # Too large for the oracle; minimax over the leaf values of the
        # treemulsec docstring (root Maximizer) gives 6.5.
        ("treemulsec", {"n": 3}, 6.5),
        ("fig2chain", {"k": 3}, None),
    ],
)
def test_settled_components_are_not_processed(monkeypatch, family, params, reference):
    model, labels = generate(family, **params)
    if "goal" in labels:
        objective = Objective.reachability(labels["goal"])
    else:
        objective = Objective.mean_payoff(model)
    epsilon = 1e-6
    real = MecTracker.process
    settled = []

    def process(tracker, model, bounds):
        settled.append(
            all(bounds.ub[s] - bounds.lb[s] <= epsilon for s in tracker.mec.states)
        )
        return real(tracker, model, bounds)

    monkeypatch.setattr(MecTracker, "process", process)
    result = solve_pe(model, objective, epsilon, seed=1)
    assert settled and not any(settled)
    assert result.converged
    if reference is None:
        reference = game_value_bruteforce(model, objective, model.initial)
    assert result.lower - 1e-12 <= reference <= result.upper + 1e-12


def test_stream_game_46_takes_few_staying_steps():
    # Mean payoff, 19 states, MECs of 14 and 1 states.  A staying precision
    # halved on every quiet call ran it for over 200,000 staying steps in
    # each solver; at epsilon/4 throughout, both need a few hundred.
    model, objective = stream_game(46)
    ce = solve_ce(model, objective)
    partial = solve_pe(model, objective, seed=46)
    for result in (ce, partial):
        assert result.converged
        assert result.stats["staying_steps"] <= 5_000
    assert ce.lower <= partial.upper and partial.lower <= ce.upper


# (game, solver): float.hex of lower and upper, iterations and staying steps,
# pinned with the extrapolation's spread guard in place and staying
# iterations that stop once the best exit beats them.  #3, #39 and #79 split
# and extrapolate; #7 is PE absorbing on reachability; #24 and #94 are
# safety; #115 reaches CE's candidate search.  Float sums are left folds, so
# every supported Python gives these bits.
STREAM_PINS = {
    (3, "ce"): ("0x1.7cfa50ee9bfa0p+2", "0x1.7cfa51556adfep+2", 1, 507),
    (3, "pe"): ("0x1.7cfa50ee9bfa0p+2", "0x1.7cfa51556adfep+2", 4, 566),
    (39, "ce"): ("0x1.359f1c3f44df9p+2", "0x1.359f23cb3bed3p+2", 126, 261),
    (39, "pe"): ("0x1.359f1adffb7fcp+2", "0x1.359f2298375a3p+2", 123, 197),
    (79, "ce"): ("0x1.9a1fef292964cp+1", "0x1.9a1fef303e200p+1", 2, 428),
    (79, "pe"): ("0x1.9a1fef1ded000p+1", "0x1.9a1fef29c1e00p+1", 95, 373),
    (7, "ce"): ("0x1.889199f0a63b0p-1", "0x1.8891dbe61eb8cp-1", 280, 0),
    (7, "pe"): ("0x1.88919efc18ab5p-1", "0x1.8891d8cc7f646p-1", 79, 0),
    (24, "ce"): ("0x0.0p+0", "0x0.0p+0", 1, 0),
    (24, "pe"): ("0x0.0p+0", "0x1.71485be000000p-20", 18, 0),
    (94, "ce"): ("0x0.0p+0", "0x0.0p+0", 1, 0),
    (94, "pe"): ("0x0.0p+0", "0x1.6a57cb4c80000p-20", 38, 0),
    (115, "ce"): ("0x1.fffffffffffffp-1", "0x1.0000205ac9578p+0", 224, 63),
    (115, "pe"): ("0x1.fffffffffffffp-1", "0x1.00001d5bf75eep+0", 206, 127),
}


@pytest.mark.parametrize("index, mode", sorted(STREAM_PINS))
def test_stream_games_bit_for_bit(index, mode):
    # A change that claims identical results on the stream keeps these.
    model, objective = stream_game(index)
    if mode == "ce":
        result = solve_ce(model, objective)
    else:
        result = solve_pe(model, objective, seed=index, max_paths=200_000)
    assert result.converged
    got = (
        result.lower.hex(), result.upper.hex(), result.iterations, result.stats["staying_steps"]
    )
    assert got == STREAM_PINS[index, mode]


@pytest.mark.parametrize("rmin, rmax", [(0.0, 1.0), (float("nan"), 10.0)])
def test_unsound_mean_payoff_range_rejected(rmin, rmax):
    # The rewards are 4 and 5 (``fig1_left``), and the value is 5.
    model, _ = fig1_left()
    objective = Objective(ObjectiveKind.MEAN_PAYOFF, rmin=rmin, rmax=rmax)
    with pytest.raises(ValueError, match="mean-payoff range"):
        solve_pe(model, objective, max_paths=10)


def test_looser_mean_payoff_range_is_accepted():
    model, _ = fig1_left()
    objective = Objective(ObjectiveKind.MEAN_PAYOFF, rmin=-1.0, rmax=10.0)
    result = solve_pe(model, objective)
    assert result.converged
    assert result.lower - 1e-12 <= 5.0 <= result.upper + 1e-12


def test_path_budget_below_one_rejected():
    model, labels = fig2_chain(2)
    for budget in (0, -5):
        with pytest.raises(ValueError):
            solve_pe(model, Objective.reachability(labels["goal"]), max_paths=budget)


def objective_for(model, labels):
    if "goal" in labels:
        return Objective.reachability(labels["goal"])
    return Objective.mean_payoff(model)


@pytest.fixture
def checked_refreshes(monkeypatch):
    """Checks every component refresh against a decomposition of the whole
    explored region, and collects the number of MECs after each."""
    real = pe._refresh_components
    seen = []

    def refresh(model, part, *args):
        trackers = real(model, part, *args)
        expected = mec_decompose(model, all_actions(model, part.explored)).mecs
        assert [t.mec for t in trackers] == list(expected)
        seen.append(len(trackers))
        return trackers

    monkeypatch.setattr(pe, "_refresh_components", refresh)
    return seen


class TestIncrementalComponents:
    def test_matches_full_decomposition_on_random_games(self, checked_refreshes, rng):
        with_mecs = 0
        for _ in range(200):
            model = random_game(rng, max_states=8)
            objective = random_objective(rng, model)
            checked_refreshes.clear()
            result = solve_pe(model, objective, seed=rng.randrange(1000), max_paths=300)
            assert result.stats["refreshes"] == len(checked_refreshes)
            with_mecs += any(checked_refreshes)
        assert with_mecs >= 50

    @pytest.mark.parametrize(
        "family, params",
        [("treemulsec", {"n": 4}), ("fig2chain", {"k": 5}), ("treebigmec", {"n": 3})],
    )
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_full_decomposition_on_relabelled_families(
        self, checked_refreshes, family, params, seed
    ):
        model, labels = relabelled(*generate(family, **params), seed)
        result = solve_pe(model, objective_for(model, labels), seed=seed)
        assert result.converged
        assert result.stats["refreshes"] == len(checked_refreshes)
        assert any(checked_refreshes)

    def test_changed_region_is_the_way_between_added_states(self, rng):
        """The region holds the explored states on a way from an added state
        to an added state; it is a union of the explored region's SCCs that
        covers every SCC holding an added state."""
        between = 0
        for _ in range(300):
            model = random_game(rng, max_states=12)
            explored = rng.sample(range(model.num_states), rng.randint(1, model.num_states))
            part = pe.PartialState(model, Objective.mean_payoff(model))
            for s in explored:
                part.expand(s)
            added = part.added = rng.sample(explored, rng.randint(1, len(explored)))
            graph = nx.DiGraph()
            graph.add_nodes_from(explored)
            graph.add_edges_from(
                (s, t)
                for s in explored
                for dist in model.actions[s]
                for t, _ in dist.support
                if t in part.explored
            )
            forward = set(added).union(*(nx.descendants(graph, a) for a in added))
            backward = set(added).union(*(nx.ancestors(graph, a) for a in added))
            region = pe._changed_region(model, part)
            assert region == forward & backward
            holding = set()
            for component in scc_decompose(model, all_actions(model, explored)):
                inside = region.issuperset(component)
                assert inside or region.isdisjoint(component)
                if not set(component).isdisjoint(added):
                    assert inside
                    holding.update(component)
            between += region != holding
        assert between > 0

    def test_each_state_is_decomposed_about_once(self):
        model, _ = generate("treemulsec", n=7)
        result = solve_pe(model, Objective.mean_payoff(model), seed=7)
        assert result.converged
        assert result.stats["refreshes"] > 0
        assert result.stats["decomposed_states"] <= 2 * result.states_explored


@pytest.fixture
def checked_memory(monkeypatch):
    """Checks the jump memory after every component refresh.  A MEC whose
    last ``process`` call returned exits holds at each of its states the
    exits of the candidates with that state, in the order returned; the
    entries at the states of a MEC that the refresh skipped or left
    settled are untouched.  Counts the processed and the skipped calls."""
    real_process = MecTracker.process
    real_refresh = pe._refresh_components
    last = {}
    this_refresh = {}
    counts = {"processed": 0, "skipped": 0}

    def process(tracker, model, bounds):
        exits = real_process(tracker, model, bounds)
        this_refresh[tracker] = exits
        if exits is None:
            counts["skipped"] += 1
        else:
            counts["processed"] += 1
            last[tracker] = exits
        return exits

    def refresh(model, part, objective, trackers, memory, *args):
        before = {s: list(entries) for s, entries in memory.items()}
        this_refresh.clear()
        fresh = real_refresh(model, part, objective, trackers, memory, *args)
        for tracker in fresh:
            if this_refresh.get(tracker) is None:
                for s in tracker.mec.states:
                    assert memory.get(s) == before.get(s)
            if tracker in last:
                for s in tracker.mec.states:
                    want = [exit for states, exit in last[tracker] if s in states]
                    assert memory.get(s, []) == want
        return fresh

    monkeypatch.setattr(MecTracker, "process", process)
    monkeypatch.setattr(pe, "_refresh_components", refresh)
    return counts


class TestJumpMemory:
    def test_holds_last_exits_on_random_games(self, checked_memory, rng):
        for _ in range(200):
            model = random_game(rng, max_states=8)
            objective = random_objective(rng, model)
            solve_pe(model, objective, seed=rng.randrange(1000), max_paths=300)
        assert checked_memory["processed"] > 0
        assert checked_memory["skipped"] > 0

    def test_holds_last_exits_on_fig2chain(self, checked_memory):
        model, labels = generate("fig2chain", k=5)
        result = solve_pe(model, Objective.reachability(labels["goal"]), seed=1)
        assert result.converged
        assert checked_memory["processed"] > 0


# Random games, then relabelled family games under reach, safety and mean
# payoff.
SWEEP_FAMILIES = [
    ("treemulsec", {"n": 4}, "mean-payoff"),
    ("treebigmec", {"n": 3}, "mean-payoff"),
    ("fig2chain", {"k": 5}, "reach"),
    ("fig2chain", {"k": 5}, "safety"),
    ("dicerace", {"target": 8}, "reach"),
    ("dicerace", {"target": 8}, "safety"),
    ("dicerace", {"target": 8}, "mean-payoff"),
]


def sweep_instances(rng, count=100):
    """(model, objective, seed, path budget) of ``count`` random games,
    then of the relabelled family games."""
    for _ in range(count):
        model = random_game(rng, max_states=8)
        yield model, random_objective(rng, model), rng.randrange(1000), 300
    for family, params, query in SWEEP_FAMILIES:
        model, labels = relabelled(*generate(family, **params), 5)
        if query == "reach":
            objective = Objective.reachability(labels["goal"])
        elif query == "safety":
            objective = Objective.safety(labels["goal"])
        else:
            objective = Objective.mean_payoff(model)
        yield model, objective, 5, pe.DEFAULT_MAX_PATHS


def full_sweeps(model, part):
    """Reference for ``pe._sweep``: two updates of every explored state,
    in descending id order, dirty or not."""
    order = sorted(part.explored, reverse=True)
    for _ in range(2):
        for s in order:
            state_update(model, part.bounds, s)
    part.sweep_updates += 2 * len(order)


def fingerprint(result):
    return (
        [x.hex() for x in result.bounds.lb],
        [x.hex() for x in result.bounds.ub],
        result.iterations,
        result.states_explored,
    )


class TestChangeDrivenSweeps:
    def test_clean_states_are_fixed_points(self, monkeypatch, rng):
        """After every refresh, an update of an explored state outside the
        dirty set moves no bound."""
        real = pe._refresh_components
        checked = []

        def refresh(model, part, *args):
            trackers = real(model, part, *args)
            probe = part.bounds.copy()
            clean = part.explored - part.dirty
            for s in clean:
                state_update(model, probe, s)
                assert (probe.lb[s], probe.ub[s]) == (part.bounds.lb[s], part.bounds.ub[s])
            checked.append(len(clean))
            return trackers

        monkeypatch.setattr(pe, "_refresh_components", refresh)
        for model, objective, seed, budget in sweep_instances(rng):
            solve_pe(model, objective, seed=seed, max_paths=budget)
        assert sum(checked) > 0

    def test_bit_identical_to_full_sweeps(self, monkeypatch, rng):
        for model, objective, seed, budget in sweep_instances(rng):
            result = solve_pe(model, objective, seed=seed, max_paths=budget)
            with monkeypatch.context() as patch:
                patch.setattr(pe, "_sweep", full_sweeps)
                reference = solve_pe(model, objective, seed=seed, max_paths=budget)
            assert fingerprint(result) == fingerprint(reference)
            assert result.stats["sweep_updates"] <= reference.stats["sweep_updates"]

    def test_sweep_updates_fall_tenfold(self, monkeypatch):
        model, _ = generate("treemulsec", n=7)
        objective = Objective.mean_payoff(model)
        result = solve_pe(model, objective, seed=7)
        monkeypatch.setattr(pe, "_sweep", full_sweeps)
        reference = solve_pe(model, objective, seed=7)
        assert fingerprint(result) == fingerprint(reference)
        assert 0 < 10 * result.stats["sweep_updates"] < reference.stats["sweep_updates"]

    def test_settled_trackers_are_not_checked_again(self, monkeypatch, rng):
        # A tracker found settled remembers it: asked again, it answers
        # without reading the bounds, and it is not processed again.
        real_settled, real_process = MecTracker.settled, MecTracker.process
        settled = set()

        def check(tracker, bounds):
            if tracker in settled:
                assert real_settled(tracker, None)
                return True
            if real_settled(tracker, bounds):
                settled.add(tracker)
                return True
            return False

        def process(tracker, model, bounds):
            assert tracker not in settled
            return real_process(tracker, model, bounds)

        monkeypatch.setattr(MecTracker, "settled", check)
        monkeypatch.setattr(MecTracker, "process", process)
        for model, objective, seed, budget in sweep_instances(rng):
            solve_pe(model, objective, seed=seed, max_paths=budget)
        assert settled


def absorbing_game():
    """Maximizer state 0 moves to the absorbing states 1 (reward 2) or 2
    (reward 7), or to the Minimizer state 3 (reward 5), which can move
    back to 0 or stay."""
    return build_game(
        [MAX, MAX, MAX, MIN],
        [(dirac(1), dirac(2), dirac(3)), (dirac(1),), (dirac(2),), (dirac(0), dirac(3))],
        [4.0, 2.0, 7.0, 5.0],
        0,
    )


@pytest.mark.parametrize(
    "objective, expected",
    [
        # State: the interval after ``expand``, in the caller's orientation.
        (Objective(ObjectiveKind.MEAN_PAYOFF, rmin=0.0, rmax=10.0),
         {0: (0.0, 10.0), 1: (2.0, 2.0), 2: (7.0, 7.0), 3: (0.0, 10.0)}),
        (Objective.reachability({1}),
         {0: (0.0, 1.0), 1: (1.0, 1.0), 2: (0.0, 0.0), 3: (0.0, 1.0)}),
        # ``prepare`` makes the avoid state 3 absorbing.
        (Objective.reachability({1}, avoid={3}),
         {0: (0.0, 1.0), 1: (1.0, 1.0), 2: (0.0, 0.0), 3: (0.0, 0.0)}),
        # Through the dual: reachability of the unsafe states 1 and 3.
        (Objective.safety({1, 3}),
         {0: (0.0, 1.0), 1: (0.0, 0.0), 2: (1.0, 1.0), 3: (0.0, 0.0)}),
    ],
)
def test_expand_pins_absorbing_states_to_their_value(objective, expected):
    query = prepare(absorbing_game(), objective)
    part = pe.PartialState(query.model, query.objective)
    for s in expected:
        part.expand(s)
    bounds = query.orient(part.bounds)
    assert {s: (bounds.lb[s], bounds.ub[s]) for s in expected} == expected


def test_fig2chain_14_takes_few_paths():
    # Each jump through a recorded exit used to land back on the state it
    # left; 1,622 paths converged.
    model, labels = fig2_chain(14)
    result = solve_pe(model, Objective.reachability(labels["goal"]), seed=0)
    assert result.converged
    assert result.iterations <= 200
    assert abs(result.value - 2.0**-14) <= 2e-6
    assert result.lower - 1e-12 <= 2.0**-14 <= result.upper + 1e-12


def test_treemulsec_7_takes_few_paths():
    # Absorbing leaves sat at their a-priori bounds until a refresh; 688
    # paths converged.
    model, _ = generate("treemulsec", n=7)
    result = solve_pe(model, Objective.mean_payoff(model), seed=7)
    assert result.converged
    assert result.iterations <= 250
    assert (result.lower, result.upper) == (6.5, 6.5)


def test_stream_game_18_reaches_the_state_behind_its_big_component():
    # The last reachable state sits behind a 181-state MEC.  Exits chosen
    # by their outside successors alone never reached it; the exit weight
    # reads the whole support.
    model, objective = stream_game(18)
    ce = solve_ce(model, objective)
    partial = solve_pe(model, objective, seed=18, max_paths=1_000)
    assert ce.converged and partial.converged
    assert ce.lower <= partial.upper and partial.lower <= ce.upper


@pytest.mark.parametrize("family", ["treemulcomplmec", "treemulcomplsec"])
def test_tree_compl_families_bracket_their_closed_form(family):
    value = tree_compl_value(6)
    assert value == 4.5
    model, _ = generate(family, n=6)
    result = solve_pe(model, Objective.mean_payoff(model), seed=0)
    assert result.converged
    assert result.lower <= value <= result.upper
    assert result.upper - result.lower < 2e-6


@pytest.fixture
def checked_jumps(monkeypatch):
    """Checks that no jump through a recorded exit lands on a state whose
    memory holds that exit, unless every successor of the exit does;
    counts the jumps."""
    real = pe._sample_successor
    jumps = [0]

    def sample(dist, part, rng, memory, exit):
        t = real(dist, part, rng, memory, exit)
        if exit is not None:
            jumps[0] += 1
            inside = [u for u, _ in dist.support if exit in memory.get(u, ())]
            assert t not in inside or len(inside) == len(dist.support)
        return t

    monkeypatch.setattr(pe, "_sample_successor", sample)
    return jumps


class TestJumpsLeaveTheRegion:
    def test_on_random_games(self, checked_jumps, rng):
        for _ in range(200):
            model = random_game(rng, max_states=8)
            objective = random_objective(rng, model)
            solve_pe(model, objective, seed=rng.randrange(1000), max_paths=300)
        assert checked_jumps[0] > 0

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_on_fig2chain(self, checked_jumps, seed):
        model, labels = generate("fig2chain", k=10)
        result = solve_pe(model, Objective.reachability(labels["goal"]), seed=seed)
        assert result.converged
        assert checked_jumps[0] > 0
