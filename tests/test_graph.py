"""Graph analysis: SCCs, maximal end components, attractors and the
qualitative reachability sets."""

import itertools
import random

import networkx as nx
import pytest

from conftest import (
    MAX,
    MIN,
    dirac,
    dist,
    random_game,
    reflecting_walk,
    relabelled,
    split_value_mec_model,
)
from sgsolve.graph import (
    EndComponent,
    attractor,
    mec_decompose,
    qualitative_reach,
    scc_decompose,
)
from sgsolve.generators import generate
from sgsolve.model import build_game
from sgsolve.objectives import Objective
from sgsolve.oracle import SingularSystem, TooLarge, game_value_bruteforce


def cycle_model():
    """0 -> 1 -> 0 plus an exit from 1 to absorbing 2."""
    return build_game(
        [MAX, MIN, MAX],
        [(dirac(1),), (dirac(0), dirac(2)), (dirac(2),)],
        [0.0, 0.0, 0.0],
        0,
    )


class TestScc:
    def test_reverse_topological_order(self):
        m = cycle_model()
        sccs = scc_decompose(m)
        assert sccs == [[2], [0, 1]]

    def test_restriction(self):
        m = cycle_model()
        assert scc_decompose(m, restrict_to={0, 1}) == [[0, 1]]
        assert scc_decompose(m, restrict_to={0}) == [[0]]

    def test_allowed_actions(self):
        m = cycle_model()
        # Cutting the back edge 1 -> 0 splits the cycle.
        sccs = scc_decompose(m, allowed_actions=lambda s: [1] if s == 1 else [0])
        assert [0] in sccs and [1] in sccs

    def test_matches_networkx_on_random_models(self, rng):
        for _ in range(150):
            m = random_game(rng, max_states=rng.choice([8, 30]))
            subset = rng.sample(range(m.num_states), rng.randint(1, m.num_states))
            allowed = {
                s: sorted(rng.sample(range(m.num_actions(s)), rng.randint(1, m.num_actions(s))))
                for s in m.states()
            }
            for restrict, acts in ((None, None), (subset, None), (None, allowed)):
                vertices = set(m.states()) if restrict is None else set(restrict)
                graph = nx.DiGraph()
                graph.add_nodes_from(vertices)
                for s in vertices:
                    for a in range(m.num_actions(s)) if acts is None else acts[s]:
                        graph.add_edges_from(
                            (s, t) for t, _ in m.distribution(s, a).support if t in vertices
                        )
                sccs = scc_decompose(
                    m, restrict_to=restrict,
                    allowed_actions=None if acts is None else acts.__getitem__,
                )
                assert len(sccs) == len({frozenset(c) for c in sccs})
                assert {frozenset(c) for c in sccs} == {
                    frozenset(c) for c in nx.strongly_connected_components(graph)
                }
                assert all(c == sorted(c) for c in sccs)
                # Reverse topological order: every edge leads to the same or
                # an earlier component.
                position = {s: i for i, c in enumerate(sccs) for s in c}
                assert all(position[t] <= position[s] for s, t in graph.edges)


def brute_force_mecs(model):
    """Reference MEC enumeration: check every state subset for closedness
    and strong connectivity, then keep the inclusion-maximal ones."""
    ecs = []
    for size in range(1, model.num_states + 1):
        for subset in itertools.combinations(model.states(), size):
            states = frozenset(subset)
            actions = {}
            for s in subset:
                kept = tuple(
                    a
                    for a in range(model.num_actions(s))
                    if all(t in states for t, _ in model.distribution(s, a).support)
                )
                if kept:
                    actions[s] = kept
            if set(actions) != states:
                continue
            graph = nx.DiGraph()
            graph.add_nodes_from(subset)
            for s, kept in actions.items():
                for a in kept:
                    for t, _ in model.distribution(s, a).support:
                        graph.add_edge(s, t)
            if len(subset) == 1:
                if not graph.has_edge(subset[0], subset[0]):
                    continue
            elif not nx.is_strongly_connected(graph):
                continue
            ecs.append(EndComponent.of(states, actions))
    maximal = [
        ec
        for ec in ecs
        if not any(other is not ec and ec.states < other.states for other in ecs)
    ]
    maximal.sort(key=lambda ec: min(ec.states))
    return maximal


class TestMecDecompose:
    def test_simple_cycle(self):
        m = cycle_model()
        decomposition = mec_decompose(m)
        assert len(decomposition.mecs) == 2
        states = {mec.states for mec in decomposition.mecs}
        assert states == {frozenset({0, 1}), frozenset({2})}

    def test_action_pruning(self):
        m = cycle_model()
        (mec,) = [
            ec for ec in mec_decompose(m).mecs if ec.states == frozenset({0, 1})
        ]
        # The exit action of state 1 is not part of the component.
        assert mec.action_map() == {0: (0,), 1: (0,)}

    def test_split_value_mec_is_one_component(self):
        decomposition = mec_decompose(split_value_mec_model())
        assert len(decomposition.mecs) == 1
        assert decomposition.mecs[0].states == frozenset({0, 1})

    def test_singleton_without_self_loop_excluded(self):
        m = build_game([MAX, MAX], [(dirac(1),), (dirac(1),)], [0, 0], 0)
        decomposition = mec_decompose(m)
        assert [mec.states for mec in decomposition.mecs] == [frozenset({1})]

    def test_matches_brute_force_on_random_models(self, rng):
        for _ in range(150):
            model = random_game(rng, max_states=7)
            got = list(mec_decompose(model).mecs)
            expected = brute_force_mecs(model)
            assert got == expected

    def test_restriction_prunes_leaving_actions(self):
        m = cycle_model()
        decomposition = mec_decompose(m, restrict_to={0, 1})
        assert [mec.states for mec in decomposition.mecs] == [frozenset({0, 1})]

    def test_search_per_scc_finds_every_mec(self, rng):
        # A MEC lies inside one SCC, so the MECs of the SCCs, in order of
        # their smallest state, are those of the whole game.
        games = [random_game(rng, max_states=8) for _ in range(200)]
        for family, params in (
            ("treemulsec", {"n": 4}),
            ("treebigmec", {"n": 3}),
            ("dicerace", {"target": 8}),
        ):
            for seed in (1, 2):
                games.append(relabelled(*generate(family, **params), seed)[0])
        for model in games:
            per_scc = [
                mec
                for component in scc_decompose(model)
                for mec in mec_decompose(model, restrict_to=component).mecs
            ]
            per_scc.sort(key=lambda ec: min(ec.states))
            assert tuple(per_scc) == mec_decompose(model).mecs


def plain_mecs(model, restrict_to):
    """Reference MEC refinement that runs Tarjan's algorithm on every
    candidate, also on one already known to be strongly connected."""
    mecs = []
    worklist = [{s: tuple(range(model.num_actions(s))) for s in sorted(restrict_to)}]
    while worklist:
        candidate = worklist.pop()
        pruned = {}
        for s, acts in candidate.items():
            kept = tuple(
                a for a in acts
                if all(t in candidate for t, _ in model.distribution(s, a).support)
            )
            if kept:
                pruned[s] = kept
        if not pruned:
            continue
        components = scc_decompose(model, pruned, pruned.__getitem__)
        if pruned == candidate and len(components) == 1:
            mecs.append(EndComponent.of(pruned, pruned))
            continue
        worklist.extend({s: pruned[s] for s in comp} for comp in components)
    return sorted(mecs, key=lambda ec: min(ec.states))


def pruned_edge_game():
    """Maximizer states 0, 1, 2 and the absorbing 3: 0 moves to 1; 1 moves
    to 2 or 3 with probability 1/2 each, or to 0; 2 moves to 0."""
    return build_game(
        [MAX, MAX, MAX, MAX],
        [(dirac(1),), (dist((2, 0.5), (3, 0.5)), dirac(0)), (dirac(0),), (dirac(3),)],
        [0.0] * 4,
        0,
    )


class TestKnownScc:
    def test_pruning_an_inner_edge_forces_a_search(self):
        # Pruning keeps an action at every state of the SCC {0, 1, 2} but
        # drops its only edge 1 -> 2, so 2 is in no MEC.
        model = pruned_edge_game()
        assert scc_decompose(model) == [[3], [0, 1, 2]]
        (mec,) = mec_decompose(model, [0, 1, 2], strongly_connected=True).mecs
        assert mec == EndComponent.of([0, 1], {0: (0,), 1: (1,)})
        assert [ec.states for ec in mec_decompose(model).mecs] == [{0, 1}, {3}]

    def test_equals_a_search_at_every_level(self, rng):
        games = [random_game(rng, max_states=8) for _ in range(200)]
        for family, params in (
            ("treemulsec", {"n": 4}),
            ("treebigmec", {"n": 3}),
            ("dicerace", {"target": 8}),
            ("fig2chain", {"k": 3}),
        ):
            games.append(relabelled(*generate(family, **params), 5)[0])
        for model in games:
            assert list(mec_decompose(model).mecs) == plain_mecs(model, model.states())
            for component in scc_decompose(model):
                known = mec_decompose(model, component, strongly_connected=True)
                assert list(known.mecs) == plain_mecs(model, component)


class TestAttractor:
    def test_sure_mode(self):
        m = cycle_model()
        # From 1 the exit is only one of two actions, so "sure" fails.
        assert attractor(m, {2}) == frozenset({2})

    def test_player_mode(self):
        m = cycle_model()
        # Minimizer exits at 1, and 0 has no alternative to entering 1.
        assert attractor(m, {2}, MIN) == frozenset({0, 1, 2})
        assert attractor(m, {2}, MAX) == frozenset({2})

    def test_probabilistic_branching_is_universal(self):
        m = build_game(
            [MAX, MAX, MAX],
            [(dist((1, 0.5), (2, 0.5)),), (dirac(1),), (dirac(2),)],
            [0, 0, 0],
            0,
        )
        assert attractor(m, {2}, MAX) == frozenset({2})

    @pytest.mark.parametrize("target", [{-1}, {3}, {0, 7}])
    def test_unknown_state_rejected(self, target):
        with pytest.raises(ValueError, match="unknown state id"):
            attractor(cycle_model(), target, MAX)


def reference_qualitative_reach(model, goal, unsafe=()):
    """The whole-game fixpoint that the per-component one replaced, kept as
    the reference: value 1 is a nested fixpoint over all states at once,
    value 0 the complement of positive reach, each set grown by sweeping
    every state until nothing joins."""
    unsafe = set(unsafe)
    goal = set(goal) - unsafe

    def grow(seed, joins):
        inside = set(seed)
        changed = True
        while changed:
            changed = False
            for s in model.states():
                if s not in inside and joins(s, inside):
                    inside.add(s)
                    changed = True
        return inside

    def chooses(s, good):
        quantifier = any if model.owner(s) is MAX else all
        return quantifier(good(d.support) for d in model.actions[s])

    def progress(s, inner):
        return s in outer and chooses(
            s,
            lambda sup: all(t in outer for t, _ in sup) and any(t in inner for t, _ in sup),
        )

    def positive(s, inside):
        return s not in unsafe and chooses(s, lambda sup: any(t in inside for t, _ in sup))

    outer = set(model.states()) - unsafe
    while (inner := grow(goal & outer, progress)) != outer:
        outer = inner
    return frozenset(outer), frozenset(model.states()) - frozenset(grow(goal, positive))


class TestQualitativeReach:
    @pytest.mark.parametrize(
        "goal, unsafe", [({-1}, set()), ({7}, set()), ({2}, {-2}), ({2}, {9})]
    )
    def test_unknown_state_rejected(self, goal, unsafe):
        with pytest.raises(ValueError, match="unknown state id"):
            qualitative_reach(cycle_model(), goal, unsafe)

    def test_cycle_exit(self):
        m = cycle_model()
        value1, value0 = qualitative_reach(m, {2})
        # Minimizer owns state 1 and can stay in the cycle forever.
        assert value1 == frozenset({2})
        assert value0 == frozenset({0, 1})

    def test_unreachable_goal(self):
        m = cycle_model()
        value1, value0 = qualitative_reach(m, {0}, unsafe={1})
        assert 2 in value0

    def test_almost_sure_through_randomness(self):
        m = build_game(
            [MAX, MAX, MAX],
            [(dist((0, 0.5), (1, 0.5)),), (dirac(1),), (dirac(2),)],
            [0, 0, 0],
            0,
        )
        value1, _ = qualitative_reach(m, {1})
        assert 0 in value1

    def test_matches_oracle_values_on_random_games(self, rng):
        checked = 0
        while checked < 150:
            model = random_game(rng)
            picked = rng.sample(range(model.num_states), rng.randint(1, model.num_states))
            cut = rng.randint(1, len(picked))
            goal, avoid = frozenset(picked[:cut]), frozenset(picked[cut:])
            try:
                values = game_value_bruteforce(model, Objective.reachability(goal, avoid))
            except (TooLarge, SingularSystem):
                continue
            checked += 1
            value1, value0 = qualitative_reach(model, goal, avoid)
            assert value1 == {s for s, v in enumerate(values) if v >= 1 - 1e-9}
            assert value0 == {s for s, v in enumerate(values) if v <= 1e-9}

    def test_matches_whole_game_reference_on_random_games(self, rng):
        for _ in range(2000):
            model = random_game(rng, max_states=12)
            states = list(model.states())
            goal = set(rng.sample(states, rng.randint(1, model.num_states)))
            unsafe = set(rng.sample(states, rng.randint(0, model.num_states // 2)))
            got = qualitative_reach(model, goal, unsafe)
            assert got == reference_qualitative_reach(model, goal, unsafe)

    def test_matches_whole_game_reference_on_dicerace_and_walk(self):
        model, labels = generate("dicerace", target=10)
        for unsafe in ((), labels["lose"]):
            got = qualitative_reach(model, labels["goal"], unsafe)
            assert got == reference_qualitative_reach(model, labels["goal"], unsafe)
        walk = reflecting_walk(120)
        value1, value0 = qualitative_reach(walk, {119})
        assert (value1, value0) == reference_qualitative_reach(walk, {119})
        assert value1 == frozenset(walk.states())
