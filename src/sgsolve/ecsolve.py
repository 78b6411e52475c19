"""SEC-candidate search, staying-value approximation, deflate and inflate.

The upper bound of a region where Maximizer currently wants to remain is
lowered to the better of its staying value and its best exit (deflate);
dually, the lower bound of a region where Minimizer wants to remain is
raised (inflate).  Candidates are found per game MEC by fixing the
opposing player to its currently optimal choices and searching for end
components in the induced restriction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .bounds import BoundsVector, optimal_actions
from .graph import EndComponent, mec_decompose
from .model import GameModel, Player
from .objectives import Objective, ObjectiveKind


@dataclass(frozen=True)
class SecCandidate:
    """An end component of the induced MDP in which the beneficiary may
    want to remain, given current bounds."""

    ec: EndComponent
    beneficiary: Player

    def key(self) -> tuple:
        return (self.beneficiary, self.ec.key())


@dataclass
class DeflateRecord:
    """Exit used when a candidate was last de-/inflated; lets simulations
    escape regions whose bounds already account for the best exit."""

    candidate_key: tuple
    states: frozenset[int]
    exit: tuple[int, int]  # (state, action)


def sec_candidates(
    model: GameModel,
    game_mec: EndComponent,
    bounds: BoundsVector,
    beneficiary: Player,
    opponent_optimal: Optional[dict[int, tuple[int, ...]]] = None,
) -> list[SecCandidate]:
    """Candidates for the beneficiary inside one game MEC.

    The opponent is fixed to all of its currently optimal actions: the
    upper-bound optimal ones when deflating for Maximizer, the
    lower-bound optimal ones when inflating for Minimizer.  Keeping every
    optimal action (rather than one) means ties cannot hide a region
    where the players may remain.  ``opponent_optimal`` can supply those
    sets if the caller has them already.
    """
    opponent = beneficiary.opponent
    reference = bounds.ub if beneficiary is Player.MAXIMIZER else bounds.lb
    states = game_mec.states

    optimal: dict[int, tuple[int, ...]] = {}
    for s in states:
        if model.owner(s) is opponent:
            if opponent_optimal is not None:
                optimal[s] = opponent_optimal[s]
            else:
                optimal[s] = optimal_actions(model, reference, s)

    # When the opponent's optimal actions cover all of its internal MEC
    # actions, the restriction leaves the MEC intact.
    internal = game_mec.action_map()
    if all(
        set(internal[s]) <= set(optimal[s])
        for s in states
        if model.owner(s) is opponent
    ):
        return [SecCandidate(game_mec, beneficiary)]

    def allowed(state: int):
        if model.owner(state) is opponent:
            return optimal[state]
        return range(model.num_actions(state))

    decomposition = mec_decompose(model, restrict_to=states, allowed_actions=allowed)
    return [SecCandidate(ec, beneficiary) for ec in decomposition.mecs]


@dataclass
class _StayingIteration:
    x: dict[int, float]
    lo: float = -math.inf
    hi: float = math.inf
    diffs: Optional[dict[int, float]] = None


def staying_bounds(
    model: GameModel,
    candidate: SecCandidate,
    objective: Objective,
    precision: float,
    cache: Optional[dict] = None,
) -> tuple[float, float]:
    """Converging bracket on the value obtained by remaining in the
    candidate forever.

    For reachability this is exact: 1 if the candidate contains a goal
    state, else 0.  For mean payoff, value iteration on the game
    restricted to the candidate's internal actions (each state optimizing
    for its owner), made aperiodic by blending every step with a half
    self-loop; the running min/max of the iteration differences bracket
    the per-state staying values.  Iterates are cached and reused across
    calls.

    When the restricted game does not have a uniform value, the bracket
    stalls at the spread of the per-state values and never closes; each
    call therefore runs a bounded number of steps and returns the
    still-valid loose bracket.  Refinement then happens by splitting the
    candidate along the per-state gain estimates (``split_candidates``),
    not by iterating further here.
    """
    if objective.kind is not ObjectiveKind.MEAN_PAYOFF:
        if candidate.ec.states & objective.goal:
            return (1.0, 1.0)
        return (0.0, 0.0)

    key = candidate.key()
    state = cache.get(key) if cache is not None else None
    if state is None:
        state = _StayingIteration({s: 0.0 for s in sorted(candidate.ec.states)})
        if cache is not None:
            cache[key] = state

    amap = candidate.ec.action_map()
    members = sorted(candidate.ec.states)
    budget = max(64, 4 * len(members))
    steps = 0
    while state.hi - state.lo > precision and steps < budget:
        steps += 1
        x = state.x
        new: dict[int, float] = {}
        diffs: dict[int, float] = {}
        lo_step = math.inf
        hi_step = -math.inf
        for s in members:
            maximize = model.owner(s) is Player.MAXIMIZER
            best = None
            for a in amap[s]:
                value = sum(p * x[t] for t, p in model.distribution(s, a).support)
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
        state.lo = max(state.lo, lo_step)
        state.hi = min(state.hi, hi_step)
        state.diffs = diffs
        # Relative normalization keeps the iterates bounded.
        shift = new[members[0]]
        state.x = {s: v - shift for s, v in new.items()}
    return state.lo, state.hi


def split_candidates(
    model: GameModel,
    candidate: SecCandidate,
    iteration: _StayingIteration,
) -> list[SecCandidate]:
    """Partition a candidate whose staying bracket stalled.

    A stalled bracket means the restricted game does not have a uniform
    value; the per-state iteration differences approach the per-state
    gains, so grouping states by them separates the value classes.  The
    end components inside each group (opponent still restricted to the
    candidate's retained actions) are smaller candidates that can be
    de-/inflated on their own.
    """
    diffs = iteration.diffs
    if not diffs:
        return []
    members = sorted(candidate.ec.states, key=lambda s: (diffs[s], s))
    threshold = max((iteration.hi - iteration.lo) / (2.0 * len(members)), 1e-12)
    groups: list[list[int]] = [[members[0]]]
    for prev, s in zip(members, members[1:]):
        if diffs[s] - diffs[prev] > threshold:
            groups.append([])
        groups[-1].append(s)
    if len(groups) == 1:
        return []
    amap = candidate.ec.action_map()
    opponent = candidate.beneficiary.opponent

    def allowed(state: int):
        if model.owner(state) is opponent:
            return amap[state]
        return range(model.num_actions(state))

    subs: list[SecCandidate] = []
    for group in groups:
        decomposition = mec_decompose(
            model, restrict_to=frozenset(group), allowed_actions=allowed
        )
        subs.extend(SecCandidate(ec, candidate.beneficiary) for ec in decomposition.mecs)
    return subs


def best_exit(
    model: GameModel,
    candidate: SecCandidate,
    bounds: BoundsVector,
    objective: Objective,
) -> tuple[float, list[tuple[int, int]]]:
    """Best one-step expectation over the beneficiary's actions leaving
    the candidate, together with all optimizing exits.

    With no exits, the beneficiary is forced to stay and the degenerate
    worst bound is returned (value floor for Maximizer, ceiling for
    Minimizer).
    """
    maximize = candidate.beneficiary is Player.MAXIMIZER
    reference = bounds.ub if maximize else bounds.lb
    states = candidate.ec.states
    best: Optional[float] = None
    exits: list[tuple[int, int]] = []
    for s in sorted(states):
        if model.owner(s) is not candidate.beneficiary:
            continue
        for a in range(model.num_actions(s)):
            dist = model.distribution(s, a)
            if all(t in states for t, _ in dist.support):
                continue
            value = sum(p * reference[t] for t, p in dist.support)
            if best is None or (value > best if maximize else value < best):
                best = value
                exits = [(s, a)]
            elif value == best:
                exits.append((s, a))
    if best is None:
        worst = objective.value_floor() if maximize else objective.value_ceiling()
        return worst, []
    return best, exits


def deflate(
    model: GameModel,
    candidate: SecCandidate,
    bounds: BoundsVector,
    objective: Objective,
    precision: float,
    cache: Optional[dict] = None,
) -> tuple[bool, list[tuple[int, int]]]:
    """Lower the upper bound of a Maximizer-beneficiary candidate to the
    better of staying and the best exit.  Never increases any upper bound
    and never drops it below the lower bound."""
    if candidate.beneficiary is not Player.MAXIMIZER:
        raise ValueError("deflate applies to Maximizer-beneficiary candidates")
    _, stay_high = staying_bounds(model, candidate, objective, precision, cache)
    exit_value, exits = best_exit(model, candidate, bounds, objective)
    ceiling = max(stay_high, exit_value)
    changed = False
    for s in candidate.ec.states:
        new = max(min(bounds.ub[s], ceiling), bounds.lb[s])
        if new < bounds.ub[s]:
            bounds.ub[s] = new
            changed = True
    return changed, exits


def inflate(
    model: GameModel,
    candidate: SecCandidate,
    bounds: BoundsVector,
    objective: Objective,
    precision: float,
    cache: Optional[dict] = None,
) -> tuple[bool, list[tuple[int, int]]]:
    """Dual of deflate: raise the lower bound of a Minimizer-beneficiary
    candidate to the better (for Minimizer) of staying and leaving."""
    if candidate.beneficiary is not Player.MINIMIZER:
        raise ValueError("inflate applies to Minimizer-beneficiary candidates")
    stay_low, _ = staying_bounds(model, candidate, objective, precision, cache)
    exit_value, exits = best_exit(model, candidate, bounds, objective)
    floor = min(stay_low, exit_value)
    changed = False
    for s in candidate.ec.states:
        new = min(max(bounds.lb[s], floor), bounds.ub[s])
        if new > bounds.lb[s]:
            bounds.lb[s] = new
            changed = True
    return changed, exits


class MecTracker:
    """Per-game-MEC bookkeeping: recommender signatures, cached candidate
    sets, cached staying-value iterations and the refinement precision.

    Processing re-derives the candidate sets only when the recommender
    signature (the optimal actions inside the MEC) has changed.  When a
    tracker is re-processed and its candidates are unchanged, the staying
    precision is halved so the bracket keeps tightening.
    """

    def __init__(self, mec: EndComponent, objective: Objective):
        self.mec = mec
        self.objective = objective
        width = objective.value_ceiling() - objective.value_floor()
        self.precision = max(width / 8.0, 1e-15)
        self.staying_cache: dict = {}
        self.candidates: Optional[dict[Player, list[SecCandidate]]] = None
        self._signature: Optional[tuple] = None

    def _recommender_signature(self, model: GameModel, bounds: BoundsVector) -> tuple:
        """Per-state optimal action sets under each bound.  Candidates are
        derived from both: fixing the opponent on either bound gives a
        sound one-sided approximation, and the two recommenders become
        reliable at different stages of convergence."""
        parts = []
        for s in sorted(self.mec.states):
            tolerance = max(bounds.gap(s) / 8.0, 1e-12)
            parts.append(
                (
                    s,
                    optimal_actions(model, bounds.lb, s, tolerance),
                    optimal_actions(model, bounds.ub, s, tolerance),
                )
            )
        return tuple(parts)

    def refresh_candidates(self, model: GameModel, bounds: BoundsVector) -> None:
        signature = self._recommender_signature(model, bounds)
        if self.candidates is not None and signature == self._signature:
            self.precision = max(self.precision / 2.0, 1e-15)
            return
        optimal_lb = {s: on_lb for s, on_lb, _ in signature}
        optimal_ub = {s: on_ub for s, _, on_ub in signature}
        # Each of the four opponent restrictions yields candidates that the
        # other three miss, on random oracle games and on treebigmec alike:
        # all upper-bound optimal actions, the reference of deflation; all
        # lower-bound optimal actions, the reference of inflation, which also
        # becomes reliable at a different stage of convergence; and a single
        # optimal action under either bound, which makes the restricted
        # system an MDP whose staying-value iteration converges where the
        # tie-keeping restriction (still a game) may oscillate.
        single_lb = {s: acts[:1] for s, acts in optimal_lb.items()}
        single_ub = {s: acts[:1] for s, acts in optimal_ub.items()}
        new = {}
        for beneficiary in (Player.MAXIMIZER, Player.MINIMIZER):
            found: dict[tuple, SecCandidate] = {}
            for optimal in (optimal_ub, optimal_lb, single_ub, single_lb):
                for c in sec_candidates(
                    model, self.mec, bounds, beneficiary, opponent_optimal=optimal
                ):
                    found[c.key()] = c
            new[beneficiary] = list(found.values())
        if self.candidates is not None:
            old_keys = {
                c.key() for cands in self.candidates.values() for c in cands
            }
            new_keys = {c.key() for cands in new.values() for c in cands}
            if old_keys == new_keys:
                self.precision = max(self.precision / 2.0, 1e-15)
            else:
                self.staying_cache = {
                    k: v for k, v in self.staying_cache.items() if k in new_keys
                }
        self.candidates = new
        self._signature = signature

    def process(self, model: GameModel, bounds: BoundsVector) -> list[DeflateRecord]:
        """Refresh candidates if needed, then de-/inflate all of them.
        Returns the exits used, for the simulation jump memory."""
        self.refresh_candidates(model, bounds)
        assert self.candidates is not None
        records: list[DeflateRecord] = []
        for beneficiary, operate in (
            (Player.MAXIMIZER, deflate),
            (Player.MINIMIZER, inflate),
        ):
            worklist = list(self.candidates[beneficiary])
            seen = {c.key() for c in worklist}
            while worklist:
                candidate = worklist.pop()
                _, exits = operate(
                    model, candidate, bounds, self.objective, self.precision,
                    self.staying_cache,
                )
                if exits:
                    records.append(
                        DeflateRecord(candidate.key(), candidate.ec.states, exits[0])
                    )
                iteration = self.staying_cache.get(candidate.key())
                if iteration is not None and iteration.hi - iteration.lo > self.precision:
                    for sub in split_candidates(model, candidate, iteration):
                        if sub.key() not in seen:
                            seen.add(sub.key())
                            worklist.append(sub)
        return records

    def candidate_keys(self) -> set:
        if self.candidates is None:
            return set()
        return {c.key() for cands in self.candidates.values() for c in cands}

    def absorb(self, other: "MecTracker") -> None:
        """Carry over cached information from a tracker whose MEC was
        subsumed by this one (partial-exploration growth)."""
        self.staying_cache.update(other.staying_cache)
        self.precision = min(self.precision, other.precision)
