"""Model construction, validation and strategy fixing."""

from types import MappingProxyType

import pytest

from conftest import MAX, MIN, chain_model, dirac, dist, loop_exit_model
from sgsolve.model import (
    DanglingTarget,
    Distribution,
    DistributionSumError,
    EmptyActionSet,
    MissingChoice,
    ModelError,
    Player,
    build_game,
    induced_mdp,
)


class TestDistribution:
    def test_of_merges_duplicate_targets(self):
        d = Distribution.of([(1, 0.25), (0, 0.5), (1, 0.25)])
        assert d.support == ((0, 0.5), (1, 0.5))

    def test_of_drops_zero_probability(self):
        d = Distribution.of([(0, 1.0), (3, 0.0)])
        assert d.support == ((0, 1.0),)

    def test_of_accepts_mappings_and_iterables_alike(self):
        pairs = [(2, 0.25), (0, 0.75)]
        want = Distribution(((0, 0.75), (2, 0.25)))
        assert Distribution.of(dict(pairs)) == want
        assert Distribution.of(MappingProxyType(dict(pairs))) == want
        assert Distribution.of(pairs) == want
        assert Distribution.of(pair for pair in pairs) == want

    def test_dirac(self):
        d = Distribution.dirac(7)
        assert d.support == ((7, 1.0),)
        assert d.is_self_loop(7)
        assert not d.is_self_loop(6)

    def test_total(self):
        d = dist((0, 0.25), (2, 0.75))
        assert d.total() == 1.0


class TestBuildGame:
    def test_basic_accessors(self):
        m = chain_model()
        assert m.num_states == 3
        assert list(m.states()) == [0, 1, 2]
        assert m.owner(0) is Player.MAXIMIZER
        assert m.num_actions(0) == 1
        assert m.is_absorbing(2)
        assert not m.is_absorbing(0)
        assert m.reward_range() == (0.0, 1.0)

    def test_empty_action_set(self):
        with pytest.raises(EmptyActionSet):
            build_game([MAX, MAX], [(dirac(0),), ()], [0.0, 0.0], 0)

    def test_distribution_sum_error(self):
        bad = Distribution(((0, 0.5),))
        with pytest.raises(DistributionSumError):
            build_game([MAX], [(bad,)], [0.0], 0)

    def test_dangling_target(self):
        with pytest.raises(DanglingTarget):
            build_game([MAX], [(dirac(3),)], [0.0], 0)

    def test_initial_out_of_range(self):
        with pytest.raises(ModelError):
            build_game([MAX], [(dirac(0),)], [0.0], 5)

    def test_length_mismatch(self):
        with pytest.raises(ModelError):
            build_game([MAX, MIN], [(dirac(0),)], [0.0], 0)

    def test_unsorted_support_rejected(self):
        bad = Distribution(((1, 0.5), (0, 0.5)))
        with pytest.raises(ModelError):
            build_game([MAX, MAX], [(bad,), (dirac(1),)], [0.0, 0.0], 0)

    def test_nonpositive_probability_rejected(self):
        bad = Distribution(((0, 1.5), (1, -0.5)))
        with pytest.raises(ModelError):
            build_game([MAX, MAX], [(bad,), (dirac(1),)], [0.0, 0.0], 0)

    def test_nan_probability_rejected(self):
        # Every comparison with NaN is false, so neither a `<= 0` test nor
        # the sum check would catch it.
        bad = Distribution(((0, float("nan")), (1, 1.0)))
        with pytest.raises(ModelError):
            build_game([MAX, MAX], [(bad,), (dirac(1),)], [0.0, 0.0], 0)

    @pytest.mark.parametrize("reward", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_reward_rejected(self, reward):
        with pytest.raises(ModelError, match="non-finite reward"):
            build_game([MAX, MAX], [(dirac(1),), (dirac(1),)], [0.0, reward], 0)


class TestInducedMdp:
    def test_fixed_player_keeps_single_action(self):
        m = loop_exit_model()
        fixed = induced_mdp(m, MAX, {0: 0, 1: 1})
        assert fixed.num_actions(1) == 1
        assert fixed.distribution(1, 0).support == ((0, 1.0),)

    def test_missing_choice(self):
        m = loop_exit_model()
        with pytest.raises(MissingChoice):
            induced_mdp(m, MAX, {0: 0})

    def test_out_of_range_choice(self):
        m = loop_exit_model()
        with pytest.raises(MissingChoice):
            induced_mdp(m, MAX, {0: 0, 1: 5})

    def test_other_player_untouched(self):
        m = loop_exit_model()
        fixed = induced_mdp(m, MIN, {})
        assert fixed.actions == m.actions


def test_player_opponent():
    assert MAX.opponent is MIN
    assert MIN.opponent is MAX
