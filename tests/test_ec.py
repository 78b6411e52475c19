"""End-component handling: candidate search, staying values, deflate,
inflate and candidate splitting."""

import math

import pytest

from conftest import (
    MAX,
    MIN,
    dirac,
    random_game,
    random_objective,
    split_value_mec_model,
    stream_game,
)
from sgsolve import ecsolve
from sgsolve.bounds import BoundsVector, optimal_actions, state_update
from sgsolve.ce import solve_ce
from sgsolve.ecsolve import (
    MecTracker,
    _StayingIteration,
    best_exit,
    deflate,
    inflate,
    sec_candidates,
    split_candidates,
    staying_bounds,
)
from sgsolve.generators import fig1_left, fig1_right, generate
from sgsolve.graph import EndComponent, mec_decompose
from sgsolve.model import Distribution, build_game
from sgsolve.objectives import Objective, ObjectiveKind, prepare
from sgsolve.oracle import SingularSystem, TooLarge, game_value_bruteforce
from sgsolve.pe import solve_pe


def reach_obj(goal):
    return Objective.reachability(goal)


def ub_optimal(model, mec, bounds):
    """Every upper-bound optimal action per state: the opponent
    restriction of deflation."""
    return {s: optimal_actions(model, bounds.ub, s) for s in mec.states}


class TestSecCandidates:
    def game_mec(self, model):
        return next(
            mec for mec in mec_decompose(model).mecs if len(mec.states) > 1
        )

    def test_opponent_exit_dissolves_candidate(self):
        model, labels = fig1_right()
        mec = self.game_mec(model)  # the s/p cycle
        # Upper bound favours Minimizer's exit to the zero sink: no region
        # remains where Maximizer could be trapped.
        bounds = BoundsVector([0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 1.0, 1.0])
        assert sec_candidates(model, mec, MAX, ub_optimal(model, mec, bounds)) == []

    def test_indifferent_opponent_keeps_full_mec(self):
        model, labels = fig1_right()
        mec = self.game_mec(model)
        # Both Minimizer actions look equally good: the whole MEC remains.
        bounds = BoundsVector([0.0] * 4, [1.0] * 4)
        candidates = sec_candidates(model, mec, MAX, ub_optimal(model, mec, bounds))
        assert candidates == [mec]

    def test_explicit_opponent_actions(self):
        model, labels = fig1_right()
        mec = self.game_mec(model)
        p = model.initial
        candidates = sec_candidates(model, mec, MAX, {p: (1,)})
        assert [c.states for c in candidates] == [mec.states]


class TestStayingBounds:
    def test_reachability_is_exact(self):
        ec = EndComponent.of([1], {1: (0,)})
        assert staying_bounds(None, ec, reach_obj({1}), 1e-9, {}) == (1.0, 1.0)
        assert staying_bounds(None, ec, reach_obj({5}), 1e-9, {}) == (0.0, 0.0)

    def test_single_self_loop(self):
        model, _ = fig1_left()
        ec = EndComponent.of([0], {0: (0,)})
        lo, hi = staying_bounds(model, ec, Objective.mean_payoff(model), 1e-9, {})
        assert lo == hi == 5.0

    def test_two_cycle_average(self):
        model = build_game(
            [MAX, MAX], [(dirac(1),), (dirac(0),)], [2.0, 4.0], 0
        )
        ec = EndComponent.of([0, 1], {0: (0,), 1: (0,)})
        lo, hi = staying_bounds(model, ec, Objective.mean_payoff(model), 1e-9, {})
        assert lo == pytest.approx(3.0, abs=1e-9)
        assert hi == pytest.approx(3.0, abs=1e-9)

    def test_cache_resumes_iteration(self):
        model = build_game(
            [MAX, MAX], [(dirac(1),), (dirac(0),)], [2.0, 4.0], 0
        )
        ec = EndComponent.of([0, 1], {0: (0,), 1: (0,)})
        objective = Objective.mean_payoff(model)
        cache = {}
        staying_bounds(model, ec, objective, 1.0, cache)
        assert ec in cache
        lo, hi = staying_bounds(model, ec, objective, 1e-12, cache)
        assert hi - lo <= 1e-12

    def test_beneficiaries_share_one_iteration(self):
        model = build_game(
            [MAX, MIN], [(dirac(1),), (dirac(0),)], [2.0, 4.0], 0
        )
        ec = EndComponent.of([0, 1], {0: (0,), 1: (0,)})
        objective = Objective.mean_payoff(model)
        cache = {}
        bounds = BoundsVector([0.0, 0.0], [4.0, 4.0])
        deflate(model, ec, bounds, objective, 1e-9, cache)
        iteration = cache[ec]
        deflated = (iteration.lo, iteration.hi)
        inflate(model, ec, bounds, objective, 1e-9, cache)
        inflated = (iteration.lo, iteration.hi)
        assert list(cache) == [ec]
        assert cache[ec] is iteration
        assert inflated == deflated

    def test_split_value_bracket_stalls(self):
        model = split_value_mec_model()
        (mec,) = mec_decompose(model).mecs
        lo, hi = staying_bounds(model, mec, Objective.mean_payoff(model), 1e-9, {})
        # The restricted system has per-state values 10 and 0; the bracket
        # can never close below their spread.
        assert hi - lo >= 10.0 - 1e-6


def reference_staying(model, ec, precision, state):
    """The dict-based staying iteration that the compiled one replaced,
    kept as the reference: ``state`` holds ``x``, ``lo``, ``hi`` and
    ``diffs`` keyed by state and is resumed across calls.  Each action is
    summed from 0, left to right, so the bits do not depend on whether
    ``sum`` compensates rounding (it does from Python 3.12)."""
    amap = ec.action_map()
    members = sorted(ec.states)
    budget = max(64, 4 * len(members))
    steps = 0
    while state["hi"] - state["lo"] > precision and steps < budget:
        steps += 1
        x = state["x"]
        new = {}
        diffs = {}
        lo_step = math.inf
        hi_step = -math.inf
        for s in members:
            maximize = model.owner(s) is MAX
            best = None
            for a in amap[s]:
                value = 0
                for t, p in model.distribution(s, a).support:
                    value += p * x[t]
                if best is None or (value > best if maximize else value < best):
                    best = value
            updated = model.rewards[s] + 0.5 * x[s] + 0.5 * best
            diff = updated - x[s]
            diffs[s] = diff
            if diff < lo_step:
                lo_step = diff
            if diff > hi_step:
                hi_step = diff
            new[s] = updated
        state["lo"] = max(state["lo"], lo_step)
        state["hi"] = min(state["hi"], hi_step)
        state["diffs"] = diffs
        shift = new[members[0]]
        state["x"] = {s: v - shift for s, v in new.items()}
    return state["lo"], state["hi"]


def bits(values):
    """Floats as hex strings, so that equality also tells -0.0 from 0.0."""
    return [float(v).hex() for v in values]


def plain_staying(iteration, precision):
    """``staying_bounds``'s loop over an iteration, with plain steps only."""
    budget = max(64, 4 * len(iteration.members))
    steps = 0
    while iteration.hi - iteration.lo > precision and steps < budget:
        steps += 1
        iteration.step()
    return iteration.lo, iteration.hi


def internal_game(model, ec):
    """The game restricted to the internal actions of ``ec``, its members
    numbered in ascending order."""
    members = sorted(ec.states)
    index = {s: i for i, s in enumerate(members)}
    amap = ec.action_map()
    actions = [
        tuple(
            Distribution.of((index[t], p) for t, p in model.distribution(s, a).support)
            for a in amap[s]
        )
        for s in members
    ]
    return build_game(
        [model.owner(s) for s in members], actions, [model.rewards[s] for s in members], 0
    )


class TestCompiledStayingIteration:
    def test_matches_dict_reference_on_random_ecs(self, rng):
        """Bit-identical brackets, differences and iterates of plain steps
        on random mean-payoff end components, over tightening precisions
        that each resume the iteration."""
        checked = 0
        while checked < 200:
            model = random_game(rng, max_states=8)
            for mec in mec_decompose(model).mecs:
                checked += 1
                iteration = _StayingIteration.compile(model, mec)
                reference = {
                    "x": {s: 0.0 for s in mec.states},
                    "lo": -math.inf,
                    "hi": math.inf,
                }
                for precision in (1.0, 1e-4, 1e-9, 1e-15):
                    got = plain_staying(iteration, precision)
                    want = reference_staying(model, mec, precision, reference)
                    assert bits(got) == bits(want)
                    assert iteration.members == sorted(mec.states)
                    assert bits(iteration.diffs) == bits(
                        reference["diffs"][s] for s in iteration.members
                    )
                    assert bits(iteration.x) == bits(
                        reference["x"][s] for s in iteration.members
                    )

    @pytest.mark.parametrize("owner", [MAX, MIN])
    @pytest.mark.parametrize("loop_first", [False, True])
    def test_signed_zero_actions_select_as_max_and_min_do(self, owner, loop_first):
        """Member 1 (reward -0.0, iterate -0.0) has two internal actions
        whose only products are 0.0 (to member 0) and -0.0 (its self-loop),
        and its new iterate carries the sign of the value it selects.
        Summed from 0, both actions are worth 0.0, so in either order it
        gets what ``max``/``min`` of the left folds give, and what the
        reference gives."""
        acts = [dirac(0), dirac(1)]
        if loop_first:
            acts.reverse()
        model = build_game([MAX, owner], [(dirac(1),), tuple(acts)], [0.0, -0.0], 0)
        (mec,) = mec_decompose(model).mecs
        iteration = _StayingIteration.compile(model, mec)
        iteration.x = [0.0, -0.0]
        iteration.step()
        pick = max if owner is MAX else min
        folds = [0 + d.support[0][1] * [0.0, -0.0][d.support[0][0]] for d in acts]
        assert bits(folds) == bits([0.0, 0.0])
        best = -0.0 + 0.5 * -0.0 + 0.5 * pick(folds)
        assert bits(iteration.x) == bits([0.0, best]) == bits([0.0, 0.0])
        fresh = _StayingIteration.compile(model, mec)
        fresh.x = [0.0, -0.0]
        reference = {"x": {0: 0.0, 1: -0.0}, "lo": -math.inf, "hi": math.inf}
        want = reference_staying(model, mec, 1e-9, reference)
        assert bits(plain_staying(fresh, 1e-9)) == bits(want)
        assert bits(fresh.x) == bits(reference["x"][s] for s in fresh.members)


class TestStayingBracket:
    def test_one_step_from_any_iterate_brackets_every_staying_value(self, rng):
        """From a random finite iterate, the least and the greatest
        difference of one plain step bracket the staying value of every
        member, on end components with and without a uniform value."""
        uniform = split = 0
        while uniform < 60 or split < 30:
            model = random_game(rng, max_states=7)
            for mec in mec_decompose(model).mecs:
                game = internal_game(model, mec)
                try:
                    values = game_value_bruteforce(game, Objective.mean_payoff(game))
                except (TooLarge, SingularSystem):
                    continue
                if max(values) - min(values) > 1e-9:
                    split += 1
                else:
                    uniform += 1
                iteration = _StayingIteration.compile(model, mec)
                iteration.x = [rng.uniform(-1e3, 1e3) for _ in iteration.members]
                iteration.step()
                low, high = min(iteration.diffs), max(iteration.diffs)
                assert (iteration.lo, iteration.hi) == (low, high)
                for value in values:
                    assert low - 1e-9 <= value <= high + 1e-9

    def test_extrapolation_halves_the_steps_on_one_big_component(self):
        """treebigmec n=7 is one end component of 255 states whose plain
        staying iteration contracts slowly.  Extrapolated, the bracket of
        ``staying_bounds`` closes to 2.5e-7 in at most half the plain
        steps, and it brackets the plain long-run value."""
        model, _ = generate("treebigmec", n=7)
        (mec,) = mec_decompose(model).mecs
        objective = Objective.mean_payoff(model)
        precision = 2.5e-7
        cache = {}
        for _ in range(10):
            lo, hi = staying_bounds(model, mec, objective, precision, cache)
        assert hi - lo <= precision
        plain = _StayingIteration.compile(model, mec)
        for _ in range(10):
            plain_staying(plain, precision)
        assert plain.hi - plain.lo <= precision
        assert 2 * cache[mec].steps <= plain.steps
        for _ in range(10):
            settled = plain_staying(plain, 1e-12)
        assert lo <= settled[0] <= settled[1] <= hi

    def test_no_extrapolant_blows_up_the_iterate(self, monkeypatch):
        """A step rounds ``T(x) - x`` by about one ulp of ``x``, so an
        extrapolant far larger than the iterate it replaces breaks the
        bracket.  Unguarded, CE on stream game #3 accepted one 2.1e4 times
        wider than the iterate; every accepted one widens it at most
        ``SPREAD_GROWTH``-fold."""
        real = ecsolve._extrapolate
        accepted = []

        def spying(xs):
            extrapolant = real(xs)
            if extrapolant is not None:
                accepted.append((spread(extrapolant), spread(xs[-1])))
            return extrapolant

        monkeypatch.setattr(ecsolve, "_extrapolate", spying)
        model, objective = stream_game(3)
        assert solve_ce(model, objective).converged
        assert accepted
        assert all(new <= ecsolve.SPREAD_GROWTH * old for new, old in accepted)


def spread(x):
    return max(x) - min(x)


class TestSplitCandidates:
    def test_split_value_mec_splits_into_singletons(self, monkeypatch):
        """The stalled bracket is not extrapolated, so the split reads the
        differences of the plain sequence."""

        def no_extrapolation(xs):
            raise AssertionError("a stalled bracket was extrapolated")

        monkeypatch.setattr(ecsolve, "_extrapolate", no_extrapolation)
        model = split_value_mec_model()
        (mec,) = mec_decompose(model).mecs
        cache = {}
        staying_bounds(model, mec, Objective.mean_payoff(model), 1e-9, cache)
        subs = split_candidates(model, mec, MAX, cache[mec])
        assert {sub.states for sub in subs} == {
            frozenset({0}),
            frozenset({1}),
        }

    def test_uniform_candidate_does_not_split(self):
        model = build_game(
            [MAX, MAX], [(dirac(1),), (dirac(0),)], [2.0, 4.0], 0
        )
        ec = EndComponent.of([0, 1], {0: (0,), 1: (0,)})
        cache = {}
        staying_bounds(model, ec, Objective.mean_payoff(model), 1e-9, cache)
        assert split_candidates(model, ec, MAX, cache[ec]) == []


class TestBestExit:
    def test_maximizer_exit_on_upper_bound(self):
        model, _ = fig1_left()
        loop = EndComponent.of([1], {1: (0,)})
        bounds = BoundsVector([4.0, 4.0], [5.0, 10.0])
        value, exit = best_exit(model, loop, MAX, bounds, Objective.mean_payoff(model))
        assert value == 5.0
        assert exit == (1, 1)

    def test_no_exit_returns_degenerate_bound(self):
        model, _ = fig1_left()
        sink = EndComponent.of([0], {0: (0,)})
        objective = Objective.mean_payoff(model)
        value, exit = best_exit(model, sink, MAX, BoundsVector([4, 4], [5, 5]), objective)
        assert value == objective.value_floor()
        assert exit is None


class TestDeflateInflate:
    def test_deflate_fig1_left(self):
        model, _ = fig1_left()
        loop = EndComponent.of([1], {1: (0,)})
        bounds = BoundsVector([4.0, 4.0], [5.0, 10.0])
        changed, exit = deflate(model, loop, bounds, Objective.mean_payoff(model), 1e-9, {})
        assert changed
        assert bounds.ub[1] == 5.0
        assert exit == (1, 1)

    def test_deflate_never_crosses_lower_bound(self):
        model, _ = fig1_left()
        loop = EndComponent.of([1], {1: (0,)})
        bounds = BoundsVector([4.5, 4.5], [5.0, 10.0])
        deflate(model, loop, bounds, Objective.mean_payoff(model), 1e-9, {})
        assert bounds.ub[1] >= bounds.lb[1]

    def test_inflate_dual(self):
        model = build_game(
            [MAX, MIN],
            [(dirac(0),), (dirac(1), dirac(0))],
            [5.0, 6.0],
            1,
        )
        loop = EndComponent.of([1], {1: (0,)})
        bounds = BoundsVector([5.0, 4.0], [6.0, 6.0])
        changed, exit = inflate(model, loop, bounds, Objective.mean_payoff(model), 1e-9, {})
        assert changed
        # Minimizer prefers the reward-5 exit over staying at 6.
        assert bounds.lb[1] == 5.0
        assert exit == (1, 1)

    def test_soundness_on_random_games(self, rng):
        """Deflating any candidate never pushes the upper bound below the
        true value (dually for inflate)."""
        checked = 0
        while checked < 40:
            model = random_game(rng, max_states=6)
            objective = Objective.mean_payoff(model)
            try:
                values = game_value_bruteforce(model, objective)
            except (TooLarge, SingularSystem):
                continue
            checked += 1
            bounds = BoundsVector(
                [objective.rmin] * model.num_states,
                [objective.rmax] * model.num_states,
            )
            for mec in mec_decompose(model).mecs:
                tracker = MecTracker(mec, objective, 1e-6, {})
                for _ in range(5):
                    tracker.process(model, bounds)
            for s in model.states():
                assert bounds.lb[s] <= values[s] + 1e-9
                assert bounds.ub[s] >= values[s] - 1e-9


    def test_whole_mec_keeps_the_value_on_random_games(self, rng):
        """De-/inflating a whole MEC, with no opponent restriction, keeps
        the value inside the bounds from any sound start (the value with
        non-negative slack), at any staying precision."""
        kinds = set()
        checked = 0
        while checked < 60:
            model = random_game(rng, max_states=6)
            asked = random_objective(rng, model)
            query = prepare(model, asked)
            work, objective = query.model, query.objective
            try:
                values = game_value_bruteforce(work, objective)
            except (TooLarge, SingularSystem):
                continue
            checked += 1
            kinds.add(asked.kind)
            width = objective.value_ceiling() - objective.value_floor()
            for mec in mec_decompose(work).mecs:
                bounds = BoundsVector(
                    [v - rng.choice([0.0, rng.uniform(0.0, width)]) for v in values],
                    [v + rng.choice([0.0, rng.uniform(0.0, width)]) for v in values],
                )
                precision = rng.choice([1e-9, 1e-3, width / 8.0])
                deflate(work, mec, bounds, objective, precision, {})
                inflate(work, mec, bounds, objective, precision, {})
                for s in work.states():
                    assert bounds.lb[s] - 1e-9 <= values[s] <= bounds.ub[s] + 1e-9
        assert kinds == {ObjectiveKind.REACHABILITY, ObjectiveKind.SAFETY, ObjectiveKind.MEAN_PAYOFF}


class TestMecTracker:
    def test_process_converges_split_value_mec(self):
        model = split_value_mec_model()
        (mec,) = mec_decompose(model).mecs
        objective = Objective.mean_payoff(model)
        tracker = MecTracker(mec, objective, 1e-6, {})
        bounds = BoundsVector([0.0, 0.0], [10.0, 10.0])
        for _ in range(60):
            tracker.process(model, bounds)
            if max(bounds.gap(s) for s in mec.states) < 1e-9:
                break
        assert bounds.lb[0] == pytest.approx(10.0, abs=1e-6)
        assert bounds.ub[1] == pytest.approx(0.0, abs=1e-6)

    def test_candidates(self):
        model = split_value_mec_model()
        (mec,) = mec_decompose(model).mecs
        objective = Objective.mean_payoff(model)
        tracker = MecTracker(mec, objective, 1e-6, {})
        assert tracker.candidates is None
        bounds = BoundsVector([0.0, 0.0], [10.0, 10.0])
        tracker.process(model, bounds)
        assert any(tracker.candidates.values())

    def test_keeps_every_iteration_it_compiled(self, monkeypatch):
        """The candidates of the split-value MEC change as its bounds
        close; an end component that stops being a candidate keeps its
        staying iteration in the cache."""
        compiled = []
        compile_ = _StayingIteration.compile

        def recording(model, ec):
            compiled.append(compile_(model, ec))
            return compiled[-1]

        monkeypatch.setattr(_StayingIteration, "compile", staticmethod(recording))
        model = split_value_mec_model()
        (mec,) = mec_decompose(model).mecs
        tracker = MecTracker(mec, Objective.mean_payoff(model), 1e-6, {})
        bounds = BoundsVector([0.0, 0.0], [10.0, 10.0])
        for _ in range(60):
            tracker.process(model, bounds)
        assert bounds == BoundsVector([10.0, 0.0], [10.0, 0.0])
        cached = list(tracker.staying_cache.values())
        assert len(compiled) > 1
        assert all(any(it is c for c in cached) for it in compiled)
        assert sum(it.steps for it in compiled) > 0

    def test_settled(self):
        model = split_value_mec_model()
        (mec,) = mec_decompose(model).mecs
        objective = Objective.mean_payoff(model)
        tracker = MecTracker(mec, objective, 1e-6, {})
        assert tracker.settled(BoundsVector([10.0, 0.0], [10.0, 1e-6]))
        tracker = MecTracker(mec, objective, 1e-6, {})
        assert not tracker.settled(BoundsVector([10.0, 0.0], [10.0, 2e-6]))
        # Gaps never widen, so a True answer is remembered.
        assert tracker.settled(BoundsVector([10.0, 0.0], [10.0, 1e-6]))
        assert tracker.settled(BoundsVector([0.0, 0.0], [10.0, 10.0]))


def opponent_restrictions(model, signature, beneficiary):
    """The four opponent restrictions of ``refresh_candidates``, each
    reduced to the opponent's states that the search reads."""
    on_lb = {s: acts for s, acts, _ in signature}
    on_ub = {s: acts for s, _, acts in signature}
    opponent = [s for s, _, _ in signature if model.owner(s) is beneficiary.opponent]
    return [
        {s: restriction[s] for s in opponent}
        for restriction in (
            on_ub,
            on_lb,
            {s: acts[:1] for s, acts in on_ub.items()},
            {s: acts[:1] for s, acts in on_lb.items()},
        )
    ]


class TestRefreshCandidates:
    def searches(self, monkeypatch, model, rounds):
        """Drive CE-like sweeps and check every re-derivation against a
        search under all four restrictions.  Returns the number of searches
        made and the number the four restrictions would have made."""
        real = ecsolve.sec_candidates
        calls = []

        def counting(model, game_mec, beneficiary, opponent_optimal):
            calls.append(beneficiary)
            return real(model, game_mec, beneficiary, opponent_optimal)

        monkeypatch.setattr(ecsolve, "sec_candidates", counting)
        objective = Objective.mean_payoff(model)
        n = model.num_states
        bounds = BoundsVector(
            [objective.value_floor()] * n, [objective.value_ceiling()] * n
        )
        trackers = [MecTracker(mec, objective, 1e-6, {}) for mec in mec_decompose(model).mecs]
        made = all_four = 0
        for _ in range(rounds):
            for s in model.states():
                state_update(model, bounds, s)
            for tracker in trackers:
                calls.clear()
                tracker.refresh_candidates(model, bounds)
                if calls:
                    made += len(calls)
                    all_four += 8
                    for beneficiary in (MAX, MIN):
                        restrictions = opponent_restrictions(
                            model, tracker._signature, beneficiary
                        )
                        distinct = {tuple(r.items()) for r in restrictions}
                        assert calls.count(beneficiary) == len(distinct)
                        found = {}
                        for restriction in restrictions:
                            for c in real(model, tracker.mec, beneficiary, restriction):
                                found.setdefault(c)
                        assert tracker.candidates[beneficiary] == list(found)
                tracker.process(model, bounds)
        return made, all_four

    def test_one_search_per_distinct_restriction_treebigmec(self, monkeypatch):
        model, _ = generate("treebigmec", n=3)
        made, all_four = self.searches(monkeypatch, model, rounds=10)
        assert 0 < made < all_four

    def test_one_search_per_distinct_restriction_random_games(self, monkeypatch, rng):
        made = all_four = 0
        for _ in range(60):
            model = random_game(rng, max_states=8)
            m, a = self.searches(monkeypatch, model, rounds=4)
            made += m
            all_four += a
        assert 0 < made < all_four


def fingerprint(result):
    return (
        bits([result.lower, result.upper]),
        result.iterations,
        result.states_explored,
        bits(result.bounds.lb),
        bits(result.bounds.ub),
    )


class TestProcessSkip:
    """A skipped ``process`` call must be one that would have changed
    nothing: solves with the skip and without it agree bit for bit."""

    def count_skips(self, monkeypatch):
        real = MecTracker._nothing_to_do
        calls = []

        def counting(tracker, bounds):
            calls.append(real(tracker, bounds))
            return calls[-1]

        monkeypatch.setattr(MecTracker, "_nothing_to_do", counting)
        return calls

    def solves(self, cases):
        return [
            (
                fingerprint(solve_ce(model, objective, max_sweeps=1_000)),
                fingerprint(solve_pe(model, objective, seed=seed, max_paths=1_000)),
            )
            for model, objective, seed in cases
        ]

    def assert_exact(self, monkeypatch, cases):
        skips = self.count_skips(monkeypatch)
        with_skip = self.solves(cases)
        monkeypatch.setattr(MecTracker, "_nothing_to_do", lambda tracker, bounds: False)
        assert self.solves(cases) == with_skip
        return sum(skips)

    def test_exact_on_random_games(self, monkeypatch, rng):
        cases = []
        for _ in range(200):
            model = random_game(rng, max_states=8)
            cases.append((model, random_objective(rng, model), rng.randrange(1000)))
        assert self.assert_exact(monkeypatch, cases) > 0

    def test_exact_on_families(self, monkeypatch):
        cases = []
        for family, params in (("treemulsec", {"n": 5}), ("fig2chain", {"k": 6})):
            model, labels = generate(family, **params)
            if "goal" in labels:
                objective = Objective.reachability(labels["goal"])
            else:
                objective = Objective.mean_payoff(model)
            cases.append((model, objective, 1))
        assert self.assert_exact(monkeypatch, cases) > 0

    def test_skipped_call_returns_no_exits(self):
        # The exits of the quiet call before a skip are the caller's
        # already; a skip hands back None instead of repeating them.
        # The loop's bounds are open, so the whole-MEC step does not settle
        # it, and no de-/inflation moves them.
        model, _ = fig1_left()
        loop = mec_decompose(model).mecs[1]
        tracker = MecTracker(loop, Objective.mean_payoff(model), 1e-6, {})
        bounds = BoundsVector([5.0, 4.5], [5.0, 5.0])
        ((states, exit),) = tracker.process(model, bounds)
        assert states == loop.states
        assert exit == (1, 1)
        assert tracker.process(model, bounds) is None
        assert bounds == BoundsVector([5.0, 4.5], [5.0, 5.0])

    def test_a_call_that_splits_licenses_no_skip(self, monkeypatch):
        """The bracket a candidate was split on can narrow later in the
        same call, when another candidate over the same end component runs
        more staying steps.  The next call then splits nothing, so it must
        run rather than repeat the exits of the split."""
        real_inflate = ecsolve.inflate

        def narrowing_inflate(model, ec, bounds, objective, precision, cache):
            for iteration in cache.values():
                iteration.lo = iteration.hi
            return real_inflate(model, ec, bounds, objective, precision, cache)

        monkeypatch.setattr(ecsolve, "inflate", narrowing_inflate)

        def two_calls():
            model = split_value_mec_model()
            (mec,) = mec_decompose(model).mecs
            tracker = MecTracker(mec, Objective.mean_payoff(model), 1e-6, {})
            bounds = BoundsVector([5.0, 5.0], [5.0, 5.0])
            # With candidates already searched, ``process`` skips the
            # whole-MEC step, which would settle these closed bounds.
            tracker.refresh_candidates(model, bounds)
            calls = [tracker.process(model, bounds) for _ in range(2)]
            assert bounds == BoundsVector([5.0, 5.0], [5.0, 5.0])
            return calls

        first, second = two_calls()
        assert len(second) < len(first)
        monkeypatch.setattr(MecTracker, "_nothing_to_do", lambda tracker, bounds: False)
        assert two_calls() == [first, second]

    def test_quiet_calls_leave_every_bracket_within_precision(self, monkeypatch, rng):
        """``_nothing_to_do`` compares bounds only: it relies on a quiet
        call leaving every candidate's staying bracket within the
        tracker's precision or beaten by the candidate's best exit, which
        the same bounds leave as it is, since brackets never widen."""
        real = MecTracker.process
        quiet = []

        def process(tracker, model, bounds):
            exits = real(tracker, model, bounds)
            if exits is not None and tracker._quiet is not None:
                brackets = [
                    (beneficiary, c, iteration)
                    for beneficiary, cands in tracker.candidates.items()
                    for c in cands
                    if (iteration := tracker.staying_cache.get(c)) is not None
                ]
                for beneficiary, c, iteration in brackets:
                    exit_value, _ = best_exit(model, c, beneficiary, bounds, tracker.objective)
                    assert (
                        iteration.hi - iteration.lo <= tracker.precision
                        or (iteration.hi <= exit_value if beneficiary is MAX
                            else iteration.lo >= exit_value)
                    )
                quiet.append(bool(brackets))
            return exits

        monkeypatch.setattr(MecTracker, "process", process)
        # Closed bounds that no de-/inflation moves: the whole-MEC candidate
        # stalls and splits while no bound changes.  Searching candidates
        # first skips the whole-MEC step, which would settle the tracker.
        for order in (0, 1):
            model = split_value_mec_model(order, order)
            (mec,) = mec_decompose(model).mecs
            tracker = MecTracker(mec, Objective.mean_payoff(model), 1e-6, {})
            bounds = BoundsVector([5.0, 5.0], [5.0, 5.0])
            tracker.refresh_candidates(model, bounds)
            for _ in range(3):
                tracker.process(model, bounds)
            assert bounds == BoundsVector([5.0, 5.0], [5.0, 5.0])
        cases = [
            (model, Objective.mean_payoff(model), seed)
            for model in (split_value_mec_model(), split_value_mec_model(1, 1))
            for seed in (0, 1)
        ]
        for _ in range(150):
            model = random_game(rng, max_states=8)
            cases.append((model, random_objective(rng, model), rng.randrange(1000)))
        self.solves(cases)
        # Quiet calls with a staying iteration among their candidates.
        assert sum(quiet) > 0

    def test_fires_on_most_pe_calls(self, monkeypatch):
        model, _ = generate("treemulsec", n=5)
        skips = self.count_skips(monkeypatch)
        result = solve_pe(model, Objective.mean_payoff(model), seed=1)
        assert result.converged
        assert sum(skips) >= 0.8 * len(skips)
