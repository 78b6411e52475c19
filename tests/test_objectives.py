"""Objective construction, query preparation, bound initialization and
the reachability to mean-payoff reduction."""

import pytest

from conftest import MAX, MIN, chain_model, dirac, dist, loop_exit_model, random_game
from sgsolve.bounds import BoundsVector
from sgsolve.graph import mec_decompose
from sgsolve.model import Distribution, build_game
from sgsolve.objectives import (
    LabelMismatch,
    Objective,
    ObjectiveKind,
    init_bounds,
    prepare,
    reach_as_meanpayoff,
)


class TestConstructors:
    def test_reachability(self):
        obj = Objective.reachability({1, 2}, avoid={0})
        assert obj.kind is ObjectiveKind.REACHABILITY
        assert obj.goal == frozenset({1, 2})
        assert obj.avoid == frozenset({0})
        assert obj.value_floor() == 0.0
        assert obj.value_ceiling() == 1.0

    def test_goal_avoid_overlap_rejected(self):
        with pytest.raises(LabelMismatch):
            Objective.reachability({1}, avoid={1})

    def test_safety(self):
        obj = Objective.safety({3})
        assert obj.kind is ObjectiveKind.SAFETY
        assert obj.avoid == frozenset({3})

    def test_mean_payoff_takes_reward_range(self):
        obj = Objective.mean_payoff(loop_exit_model())
        assert obj.is_mean_payoff
        assert obj.rmin == 4.0
        assert obj.rmax == 5.0
        assert obj.value_floor() == 4.0
        assert obj.value_ceiling() == 5.0


class TestInitBounds:
    def test_mean_payoff_uniform(self):
        m = loop_exit_model()
        bounds = init_bounds(m, Objective.mean_payoff(m))
        assert bounds.lb == [4.0, 4.0]
        assert bounds.ub == [5.0, 5.0]

    def test_reachability_pins_goal_and_avoid(self):
        # A fair coin from state 0 to the goal 1 or the avoid state 2:
        # state 0 reaches the goal, but not almost surely, so the
        # qualitative pass pins nothing beyond the goal and avoid states.
        m = build_game(
            [MAX, MAX, MAX],
            [(dist((1, 0.5), (2, 0.5)),), (dirac(1),), (dirac(2),)],
            [0.0, 0.0, 0.0],
            0,
        )
        bounds = init_bounds(m, Objective.reachability({1}, avoid={2}))
        assert bounds.lb == [0.0, 1.0, 0.0]
        assert bounds.ub == [1.0, 1.0, 0.0]

    def test_qualitative_pins_value_one_region(self):
        m = chain_model()
        bounds = init_bounds(m, Objective.reachability({2}))
        # Every state surely reaches the goal.
        assert bounds.lb == [1.0, 1.0, 1.0]

    def test_qualitative_pins_value_zero_region(self):
        m = chain_model()
        bounds = init_bounds(m, Objective.reachability({0}))
        assert bounds.ub[1] == 0.0
        assert bounds.ub[2] == 0.0

    def test_unknown_label_state_rejected(self):
        m = chain_model()
        with pytest.raises(LabelMismatch):
            init_bounds(m, Objective.reachability({17}))

    def test_avoid_state_blocks_qualitative_reach(self):
        # 0 -> 1 (avoid) -> 2 (goal): the only path to the goal passes
        # through the avoid state, so state 0 has value 0, not 1.
        m = chain_model()
        bounds = init_bounds(m, Objective.reachability({2}, avoid={1}))
        assert bounds.lb[0] == 0.0
        assert bounds.ub[0] == 0.0

    def test_safety_bounds_need_dualization(self):
        m = chain_model()
        with pytest.raises(LabelMismatch):
            init_bounds(m, Objective.safety({0}))


class TestPrepare:
    def test_mean_payoff_keeps_the_model(self):
        m = loop_exit_model()
        objective = Objective.mean_payoff(m)
        query = prepare(m, objective)
        assert query.model is m
        assert query.objective is objective
        assert not query.dualized

    def test_reachability_makes_goal_and_avoid_absorbing(self):
        m = chain_model()
        query = prepare(m, Objective.reachability({1}, avoid={0}))
        assert query.model.is_absorbing(0) and query.model.is_absorbing(1)
        assert query.model.owners == m.owners
        assert not query.dualized

    def test_safety_is_dualized(self):
        m = loop_exit_model()
        query = prepare(m, Objective.safety({0}))
        assert query.dualized
        assert query.objective == Objective.reachability({0})
        assert query.model.owners == (MIN, MIN)
        assert query.model.is_absorbing(0)
        assert query.model.actions[1] == m.actions[1]

    @pytest.mark.parametrize(
        "objective",
        [
            Objective.reachability({99}),
            Objective.reachability({2}, avoid={-1}),
            Objective.safety({3}),
            Objective.reachability(set()),
            Objective.safety(set()),
            Objective(ObjectiveKind.REACHABILITY, goal=frozenset({2}), avoid=frozenset({2})),
        ],
    )
    def test_bad_labels_rejected(self, objective):
        with pytest.raises(LabelMismatch):
            prepare(chain_model(), objective)

    @pytest.mark.parametrize(
        "rmin, rmax",
        [(0.0, 1.0), (4.5, 10.0), (0.0, 4.5), (float("nan"), 10.0), (0.0, float("nan"))],
    )
    def test_unsound_mean_payoff_range_rejected(self, rmin, rmax):
        # ``loop_exit_model`` has the rewards 4 and 5.
        objective = Objective(ObjectiveKind.MEAN_PAYOFF, rmin=rmin, rmax=rmax)
        with pytest.raises(ValueError, match="mean-payoff range"):
            prepare(loop_exit_model(), objective)

    def test_looser_mean_payoff_range_is_accepted(self):
        objective = Objective(ObjectiveKind.MEAN_PAYOFF, rmin=-1.0, rmax=10.0)
        assert prepare(loop_exit_model(), objective).objective is objective

    def test_orient_flips_bounds_of_a_dual_query(self):
        query = prepare(chain_model(), Objective.safety({2}))
        flipped = query.orient(BoundsVector([0.0, 0.25], [0.5, 1.0]))
        assert flipped.lb == [0.5, 0.0]
        assert flipped.ub == [1.0, 0.75]

    def test_orient_is_identity_otherwise(self):
        query = prepare(chain_model(), Objective.reachability({2}))
        bounds = BoundsVector([0.0], [1.0])
        assert query.orient(bounds) is bounds


class TestReachAsMeanPayoff:
    def test_goal_states_become_absorbing_reward_one(self):
        m = chain_model()
        transformed, obj = reach_as_meanpayoff(m, {2})
        assert obj.is_mean_payoff
        assert obj.rmin == 0.0 and obj.rmax == 1.0
        assert transformed.is_absorbing(2)
        assert transformed.rewards == (0.0, 0.0, 1.0)

    def test_non_goal_structure_preserved(self):
        m = loop_exit_model()
        transformed, _ = reach_as_meanpayoff(m, {0})
        assert transformed.actions[1] == m.actions[1]
        assert transformed.rewards[1] == 0.0

    def test_goal_loses_other_actions(self):
        m = loop_exit_model()
        transformed, _ = reach_as_meanpayoff(m, {1})
        assert transformed.num_actions(1) == 1
        assert transformed.is_absorbing(1)
        # The goal self-loop is a maximal end component of its own.
        assert any(
            mec.states == frozenset({1})
            for mec in mec_decompose(transformed).mecs
        )

    def test_matches_a_rebuilt_model_on_random_games(self, rng):
        def rebuilt(model, goal):
            action_lists = []
            rewards = []
            for s in model.states():
                if s in goal:
                    action_lists.append((Distribution.dirac(s),))
                    rewards.append(1.0)
                else:
                    action_lists.append(model.actions[s])
                    rewards.append(0.0)
            return build_game(model.owners, action_lists, rewards, model.initial)

        for _ in range(200):
            model = random_game(rng, max_states=8)
            goal = rng.sample(range(model.num_states), rng.randint(1, model.num_states))
            transformed, objective = reach_as_meanpayoff(model, goal)
            expected = rebuilt(model, frozenset(goal))
            assert transformed == expected
            assert objective == Objective.mean_payoff(expected)

    def test_empty_goal_rejected(self):
        with pytest.raises(LabelMismatch):
            reach_as_meanpayoff(chain_model(), set())

    def test_unknown_goal_state_rejected(self):
        with pytest.raises(LabelMismatch):
            reach_as_meanpayoff(chain_model(), {9})
