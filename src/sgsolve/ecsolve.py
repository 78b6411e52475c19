"""SEC-candidate search, staying-value approximation, deflate and inflate.

The upper bound of a region where Maximizer currently wants to remain is
lowered to the better of its staying value and its best exit (deflate);
dually, the lower bound of a region where Minimizer wants to remain is
raised (inflate).  Candidates are found per game MEC by fixing the
opposing player to its currently optimal choices and searching for end
components in the induced restriction.  A candidate is an ``EndComponent``;
the list of ``MecTracker.candidates`` it sits in names its beneficiary.

That restriction serves convergence, not soundness: de-/inflating any
end component T of the game, the whole MEC included, keeps every bound
sound (with every goal state absorbing, as the solvers make it).  Let
S* be the states of T where the value v* is largest, and suppose v*
exceeded both T's best Maximizer exit and the upper end of T's staying
bracket.  An exit is worth at most its upper bound, so every optimal
Maximizer action at S* is internal to T, and it has all its successors
in S*, since no state of T is worth more than v*.  Every internal
Minimizer action at S* is worth at least v* and at most v*, so it too
stays in S*.  A play from S* in which Maximizer follows an optimal
strategy and Minimizer plays only internal actions thus never leaves
S*; each of its recurrent classes lies in S*, where the staying value of
the game restricted to S* caps its gain.  That staying value is at most
T's staying bound, because at S* Minimizer keeps all its internal
actions of T and Maximizer has fewer.  So Maximizer's optimal strategy
earns less than v* against some Minimizer strategy, a contradiction;
inflate is the dual.  Restricting the opponent to its optimal actions
only makes the candidates tighter, so that the bounds close sooner;
the first ``MecTracker.process`` call de-/inflates the MEC itself before
any search.

The staying value of a mean-payoff candidate is bracketed by value
iteration on the game restricted to its internal actions: the least and
the greatest difference ``T(x) - x`` of one step from any finite iterate
``x`` bound every staying value (see ``_StayingIteration``).  So the
iteration may replace its iterate by any finite guess without harming the
bracket, and every few steps it does: by the reduced-rank extrapolation
of its last iterates, while the bracket is narrowing.  Any step count
gives a sound bracket, so a call stops once its best exit beats it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .bounds import BoundsVector, optimal_actions
from .graph import EndComponent, mec_decompose
from .model import MAXIMIZER, MINIMIZER, GameModel, Player
from .objectives import Objective, ObjectiveKind


# A de-/inflation exit: the candidate's states and the (state, action)
# pair its beneficiary leaves by.
Exit = tuple[frozenset[int], tuple[int, int]]


def _candidates_in(
    model: GameModel,
    states: Iterable[int],
    beneficiary: Player,
    opponent_actions: dict[int, tuple[int, ...]],
) -> list[EndComponent]:
    """The beneficiary's candidates inside ``states``: the end components
    there when the opponent may use only ``opponent_actions`` at its
    states."""
    opponent = beneficiary.opponent
    subgame = {
        s: opponent_actions[s] if model.owners[s] is opponent else range(model.num_actions(s))
        for s in states
    }
    return list(mec_decompose(model, subgame).mecs)


def sec_candidates(
    model: GameModel,
    game_mec: EndComponent,
    beneficiary: Player,
    opponent_optimal: dict[int, tuple[int, ...]],
) -> list[EndComponent]:
    """The end components inside one game MEC in which the beneficiary
    may want to remain, with the opponent fixed to the actions
    ``opponent_optimal`` gives at its states.

    The caller passes all of the opponent's currently optimal actions (or
    one of them per state): the upper-bound optimal ones when deflating
    for Maximizer, the lower-bound optimal ones when inflating for
    Minimizer.  Keeping every optimal action (rather than one) means ties
    cannot hide a region where the players may remain.  The restriction
    serves convergence, not soundness: de-/inflating any end component,
    restricted or not, is sound (see the module docstring).
    """
    opponent = beneficiary.opponent
    # When the opponent's optimal actions cover all of its internal MEC
    # actions, the restriction leaves the MEC intact.
    internal = game_mec.action_map()
    if all(
        set(internal[s]) <= set(opponent_optimal[s])
        for s in game_mec.states
        if model.owners[s] is opponent
    ):
        return [game_mec]
    return _candidates_in(model, game_mec.states, beneficiary, opponent_optimal)


# Reduced-rank extrapolation of the staying iterates (``_StayingIteration``):
# every EXTRAPOLATION_PERIOD plain steps, the last EXTRAPOLATION_DEPTH + 2
# iterates (at most members + 1) give the extrapolant.  Chosen by the
# staying steps of one CE solve of treebigmec n=9 / n=12, 896 / 1,590 without
# extrapolation: depth 8 every 15 steps takes 217 / 294, depth 4 every 6
# steps 339 / 610, depth 6 every 10 steps 262 / 378, and depth 12 every 20
# steps 183 / 246 but 23,552 instead of 18,432 on treemulcomplsec n=10.  An
# extrapolation over 8,191 members costs tens of milliseconds, so frequent
# ones do not pay: depth 4 every 6 steps took 3.1 s on n=12, against 1.0 s.
EXTRAPOLATION_PERIOD = 15
EXTRAPOLATION_DEPTH = 8
# A column of the extrapolation's normal equations whose pivot falls below
# this share of its diagonal entry depends on the earlier ones; it is dropped.
DEPENDENT_PIVOT = 1e-10
# An extrapolant whose spread (max - min) exceeds this multiple of that of the
# iterate it would replace is discarded (see ``_StayingIteration``).  With 16,
# 14 of CE's and PE's first 300 stream games change, each to an overlapping
# interval; with 2, 38 change, one to an interval that no longer overlaps.
SPREAD_GROWTH = 16.0


@dataclass
class _StayingIteration:
    """The staying-value iteration of one end component, compiled once into
    one row per member so that a step reads no model structure.  Member
    ``i`` is state ``members[i]``; its row ``rows[i]`` is ``(reward,
    maximize, actions)``, where ``maximize`` tells whether Maximizer owns it
    and each internal action is a tuple of ``(member index, probability)``
    pairs in support order.  ``x`` and ``diffs`` (the last step's
    differences) are indexed like ``members``; ``steps`` counts the plain
    steps run, and ``stalled`` tells whether the last ``staying_bounds``
    call ran out of budget.

    A step applies the operator ``T(x) = r + x/2 + opt(P x)/2`` of the game
    restricted to the internal actions, blended with a half self-loop so
    that it is aperiodic; the blend keeps every staying value.  ``T`` is
    monotone and commutes with adding a constant, so for any finite ``x``,
    with ``M = max(T(x) - x)``, induction gives ``T^k(x) <= x + k*M``, and
    every staying value, the limit of ``T^k(x)/k``, is at most ``M``; dually
    at least ``min(T(x) - x)``.  The bracket ``[lo, hi]``, the running max
    of those minima and the running min of those maxima, is thus sound
    whichever finite iterates the steps are applied to, in exact
    arithmetic.  In floating point a step rounds each difference by about
    one ulp of ``x``, so the bracket's error grows with the size of ``x``.

    That frees ``advance`` to move ``x`` to a better guess than the plain
    sequence: reduced-rank extrapolation (RRE; Smith, Ford & Sidi, SIAM
    Review 1987).  Every ``EXTRAPOLATION_PERIOD`` steps, if the bracket
    narrowed over them, ``x`` is replaced by the affine combination of the
    last ``depth + 2`` iterates that minimizes the least-squares residual a
    linear map would leave.  The depth is ``EXTRAPOLATION_DEPTH`` or, on a
    smaller end component, the number of members less one: the iterates
    keep the first member at 0, so their differences span at most that
    many dimensions.  A column of the normal equations that depends on the
    earlier ones is dropped, and an extrapolant that is not finite or
    widens the spread of ``x`` more than ``SPREAD_GROWTH``-fold is
    discarded.  A bracket that does not narrow (a game without a uniform
    value, whose bracket stalls at the spread of the values) is never
    extrapolated, so ``split_candidates`` reads the differences of the
    plain sequence.  The differences are those of a plain step either
    way."""

    members: list[int]
    rows: list[tuple[float, bool, tuple[tuple[tuple[int, float], ...], ...]]]
    x: list[float]
    lo: float = -math.inf
    hi: float = math.inf
    diffs: Optional[list[float]] = None
    steps: int = 0
    stalled: bool = False
    # The iterates of the current period (at most ``depth + 2``, the latest
    # last) and the bracket's width after its first step.
    window: list[list[float]] = field(default_factory=list)
    opened: float = math.inf

    @staticmethod
    def compile(model: GameModel, ec: EndComponent) -> "_StayingIteration":
        # ``ec.actions`` lists the states in ascending order.
        members = [s for s, _ in ec.actions]
        index = {s: i for i, s in enumerate(members)}
        rows = []
        for s, acts in ec.actions:
            dists = model.actions[s]
            actions = tuple(tuple((index[t], p) for t, p in dists[a].support) for a in acts)
            rows.append((model.rewards[s], model.owners[s] is MAXIMIZER, actions))
        return _StayingIteration(members, rows, [0.0] * len(members))

    def step(self) -> None:
        """One plain aperiodic Bellman step, its differences folded into
        the bracket, then the iterates shifted so the first member is 0.
        Each action is summed from 0, left to right, and the first of equal
        action values is kept, as ``max`` and ``min`` keep it."""
        x = self.x
        new = []
        for (reward, maximize, actions), xs in zip(self.rows, x):
            best = None
            for action in actions:
                value = 0
                for i, p in action:
                    value += p * x[i]
                if best is None:
                    best = value
                elif maximize:
                    if value > best:
                        best = value
                elif value < best:
                    best = value
            new.append(reward + 0.5 * xs + 0.5 * best)
        diffs = [u - xs for u, xs in zip(new, x)]
        self.lo = max(self.lo, min(diffs))
        self.hi = min(self.hi, max(diffs))
        self.diffs = diffs
        self.steps += 1
        # Relative normalization keeps the iterates bounded.
        shift = new[0]
        self.x = [v - shift for v in new]

    def advance(self) -> None:
        """One plain step, preceded every ``EXTRAPOLATION_PERIOD`` steps by
        the extrapolation of ``x`` if the bracket narrowed over them."""
        depth = min(EXTRAPOLATION_DEPTH, len(self.members) - 1)
        window = self.window
        if self.steps % EXTRAPOLATION_PERIOD == 0 and len(window) == depth + 2:
            if self.hi - self.lo < self.opened:
                extrapolant = _extrapolate(window)
                if extrapolant is not None:
                    self.x = extrapolant
            window.clear()
        self.step()
        if not window:
            self.opened = self.hi - self.lo
        window.append(self.x)
        if len(window) > depth + 2:
            del window[0]


def _dot(u: list[float], v: list[float]) -> float:
    """A left fold from 0.0: the bits of 3.11's ``sum`` on every version."""
    total = 0.0
    for a, b in zip(u, v):
        total += a * b
    return total


def _extrapolate(xs: list[list[float]]) -> Optional[list[float]]:
    """The RRE extrapolant of the iterates ``xs`` (oldest first), or None
    when it is not finite, when every column is dependent, or when its
    spread exceeds ``SPREAD_GROWTH`` times that of the last iterate.

    With differences ``u_i = x_{i+1} - x_i`` and second differences
    ``w_i = u_{i+1} - u_i``, the extrapolant is ``x_0 + sum(xi_i u_i)``
    for the ``xi`` minimizing ``|u_0 + sum(xi_i w_i)|``: for a linear map
    that is the residual of the extrapolant.  The normal equations are
    solved by a Cholesky factorization that drops each column whose pivot
    shows it depends on the earlier ones (its ``xi`` is 0)."""
    us = [[b - a for a, b in zip(p, q)] for p, q in zip(xs, xs[1:])]
    ws = [[b - a for a, b in zip(p, q)] for p, q in zip(us, us[1:])]
    kept: list[int] = []
    rows: list[list[float]] = []  # the Cholesky factor's rows, kept columns only
    for i, w in enumerate(ws):
        row = []
        for m, j in enumerate(kept):
            factor = rows[m]
            row.append((_dot(w, ws[j]) - _dot(row, factor)) / factor[m])
        diagonal = _dot(w, w)
        pivot = diagonal - _dot(row, row)
        if pivot > DEPENDENT_PIVOT * diagonal:
            kept.append(i)
            rows.append(row + [math.sqrt(pivot)])
    if not kept:
        return None
    # Forward, then backward substitution for the kept columns.
    y: list[float] = []
    for m, i in enumerate(kept):
        factor = rows[m]
        y.append((-_dot(ws[i], us[0]) - _dot(factor, y)) / factor[m])
    solution = [0.0] * len(kept)
    for m in reversed(range(len(kept))):
        below = _dot([rows[p][m] for p in range(m + 1, len(kept))], solution[m + 1:])
        solution[m] = (y[m] - below) / rows[m][m]
    xi = [0.0] * len(ws)
    for i, v in zip(kept, solution):
        xi[i] = v
    # x_0 + sum(xi_i (x_{i+1} - x_i)) as an affine combination of x_0..x_k.
    gamma = [1.0 - xi[0]] + [a - b for a, b in zip(xi, xi[1:])] + [xi[-1]]
    extrapolant = [_dot(gamma, column) for column in zip(*xs[: len(gamma)])]
    if not all(map(math.isfinite, extrapolant)):
        return None
    last = xs[-1]
    if max(extrapolant) - min(extrapolant) > SPREAD_GROWTH * (max(last) - min(last)):
        return None
    return extrapolant


def staying_bounds(
    model: GameModel,
    ec: EndComponent,
    objective: Objective,
    precision: float,
    cache: dict[EndComponent, _StayingIteration],
    maximizer_exit: float = -math.inf,
    minimizer_exit: float = math.inf,
) -> tuple[float, float]:
    """Converging bracket on the value obtained by remaining in the end
    component ``ec`` forever.

    For reachability this is exact: 1 if ``ec`` contains a goal state,
    else 0.  For mean payoff, value iteration on the game restricted to
    the internal actions of ``ec`` (each state optimizing for its owner),
    made aperiodic by blending every step with a half self-loop; the
    running min/max of the iteration differences bracket the per-state
    staying values.  The iteration does not depend on the player it
    serves: ``cache`` keys it by ``ec``, so deflating and inflating one
    end component share one iteration, compiled on first use and resumed
    by later calls.  The iteration runs ``_StayingIteration.advance``:
    plain steps, with an extrapolation of the iterates every
    ``EXTRAPOLATION_PERIOD`` steps while the bracket narrows.  The bracket
    holds because each plain step bounds the staying values from whatever
    finite iterate it starts (see ``_StayingIteration``); the
    extrapolation only makes it close in fewer steps.

    A call stops once the bracket is within ``precision`` or the best exit
    it serves beats it: ``hi <= maximizer_exit`` (deflate) or ``lo >=
    minimizer_exit`` (inflate).  The bracket is sound after any number of
    steps, and later ones only narrow it, so the better of staying and
    that exit stays the exit: the de-/inflation is the same, bit for bit
    (on a tie it takes the bracket's end, equal to the exit; a step's
    differences and an exit's sum are never -0.0).  A restricted game
    without a uniform value stalls the bracket at the spread of its
    per-state values, so a call runs at most ``max(64, 4 * members)``
    steps; one that runs out of them marks the iteration ``stalled``, and
    ``split_candidates`` refines it instead.
    """
    if objective.kind is not ObjectiveKind.MEAN_PAYOFF:
        if ec.states & objective.goal:
            return (1.0, 1.0)
        return (0.0, 0.0)

    state = cache.get(ec)
    if state is None:
        state = cache[ec] = _StayingIteration.compile(model, ec)

    budget = max(64, 4 * len(state.members))
    state.stalled = False
    while state.hi - state.lo > precision:
        if state.hi <= maximizer_exit or state.lo >= minimizer_exit:
            break
        if budget == 0:
            state.stalled = True
            break
        budget -= 1
        state.advance()
    return state.lo, state.hi


def split_candidates(
    model: GameModel,
    ec: EndComponent,
    beneficiary: Player,
    iteration: _StayingIteration,
) -> list[EndComponent]:
    """Partition a candidate ``ec`` of ``beneficiary`` whose staying
    bracket stalled.

    A stalled bracket means the restricted game does not have a uniform
    value; the per-state iteration differences approach the per-state
    gains, so grouping states by them separates the value classes.  The
    end components inside each group (opponent still restricted to the
    internal actions of ``ec``) are smaller candidates of the same
    beneficiary that can be de-/inflated on their own.
    """
    if not iteration.diffs:
        return []
    diffs = dict(zip(iteration.members, iteration.diffs))
    members = sorted(ec.states, key=lambda s: (diffs[s], s))
    threshold = max((iteration.hi - iteration.lo) / (2.0 * len(members)), 1e-12)
    groups: list[list[int]] = [[members[0]]]
    for prev, s in zip(members, members[1:]):
        if diffs[s] - diffs[prev] > threshold:
            groups.append([])
        groups[-1].append(s)
    if len(groups) == 1:
        return []
    amap = ec.action_map()
    subs: list[EndComponent] = []
    for group in groups:
        subs.extend(_candidates_in(model, group, beneficiary, amap))
    return subs


def best_exit(
    model: GameModel,
    ec: EndComponent,
    beneficiary: Player,
    bounds: BoundsVector,
    objective: Objective,
) -> tuple[float, Optional[tuple[int, int]]]:
    """Best one-step expectation over the beneficiary's actions leaving
    ``ec``, together with the first best exit in (state, action) order.

    With no exits, the beneficiary is forced to stay: the degenerate worst
    bound (value floor for Maximizer, ceiling for Minimizer) is returned
    with None.
    """
    maximize = beneficiary is MAXIMIZER
    reference = bounds.ub if maximize else bounds.lb
    states = ec.states
    best: Optional[float] = None
    exit: Optional[tuple[int, int]] = None
    for s in sorted(states):
        if model.owners[s] is not beneficiary:
            continue
        for a, dist in enumerate(model.actions[s]):
            support = dist.support
            for t, _ in support:
                if t not in states:
                    break
            else:
                continue
            value = 0
            for t, p in support:
                value += p * reference[t]
            if best is None or (value > best if maximize else value < best):
                best = value
                exit = (s, a)
    if best is None:
        worst = objective.value_floor() if maximize else objective.value_ceiling()
        return worst, None
    return best, exit


def deflate(
    model: GameModel,
    ec: EndComponent,
    bounds: BoundsVector,
    objective: Objective,
    precision: float,
    cache: dict[EndComponent, _StayingIteration],
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Lower the upper bound of every state of ``ec``, a candidate of
    Maximizer, to the better of staying (``staying_bounds`` with
    ``cache``) and Maximizer's best exit.  Never increases any upper bound
    and never drops it below the lower bound.  Returns whether a bound
    changed and the first best exit (None if there is none)."""
    exit_value, exit = best_exit(model, ec, MAXIMIZER, bounds, objective)
    _, stay_high = staying_bounds(model, ec, objective, precision, cache, exit_value)
    ceiling = max(stay_high, exit_value)
    changed = False
    lb, ub = bounds.lb, bounds.ub
    for s in ec.states:
        # max(min(ub[s], ceiling), lb[s]), by the comparisons max and min make.
        high = ub[s]
        new = ceiling if ceiling < high else high
        low = lb[s]
        if low > new:
            new = low
        if new < high:
            ub[s] = new
            changed = True
    return changed, exit


def inflate(
    model: GameModel,
    ec: EndComponent,
    bounds: BoundsVector,
    objective: Objective,
    precision: float,
    cache: dict[EndComponent, _StayingIteration],
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Dual of deflate: raise the lower bound of every state of ``ec``, a
    candidate of Minimizer, to the better (for Minimizer) of staying and
    Minimizer's best exit.  Returns whether a bound changed and the first
    best exit (None if there is none)."""
    exit_value, exit = best_exit(model, ec, MINIMIZER, bounds, objective)
    stay_low, _ = staying_bounds(model, ec, objective, precision, cache, minimizer_exit=exit_value)
    floor = min(stay_low, exit_value)
    changed = False
    lb, ub = bounds.lb, bounds.ub
    for s in ec.states:
        # min(max(lb[s], floor), ub[s]), by the comparisons min and max make.
        low = lb[s]
        new = floor if floor > low else low
        high = ub[s]
        if high < new:
            new = high
        if new > low:
            lb[s] = new
            changed = True
    return changed, exit


class MecTracker:
    """Per-game-MEC bookkeeping of one solve to precision ``epsilon``:
    recommender signatures, cached candidates (``candidates``: end
    components per beneficiary) and cached staying-value iterations.

    The first ``process`` call de-/inflates the MEC itself; when that
    settles it (``settled_whole``), the tracker never computes a
    recommender signature or searches for candidates.  Otherwise the
    candidates are re-derived only when the recommender signature (the
    optimal actions inside the MEC) has changed.  They restrict the
    opponent to its optimal actions, which makes them tighter and so
    serves convergence; soundness does not depend on it.  A staying
    iteration runs to ``precision``, epsilon/4, or until the best exit
    beats it: its bracket is sound at any precision and step count.
    ``staying_cache`` is the solve's one staying cache, which all its
    trackers share: one iteration per end component, keyed by the
    ``EndComponent`` itself, compiled once and serving deflation and
    inflation alike.  It is kept for the whole solve, so a candidate that
    comes back resumes it; that is sound, as the bracket holds from any
    finite iterate (see ``_StayingIteration``) and the key fixes the
    internal actions.  End components of different MECs are disjoint, so
    trackers share no key, and when partial exploration grows a MEC, its
    new tracker finds the old MEC's iterations under their keys.

    A ``process`` call that changes no bound and stalls no candidate's
    staying iteration (a stalled candidate is passed to
    ``split_candidates``) is quiet.  After one, the tracker keeps the
    bounds that processing reads (those of the MEC's states and of all
    their successors) until the next call that is not skipped; they are
    all that ``_nothing_to_do`` compares, since brackets never widen.
    """

    def __init__(
        self,
        mec: EndComponent,
        objective: Objective,
        epsilon: float,
        staying_cache: dict[EndComponent, _StayingIteration],
    ):
        self.mec = mec
        self.objective = objective
        self.epsilon = epsilon
        self.precision = epsilon / 4.0
        self.staying_cache = staying_cache
        self.candidates: Optional[dict[Player, list[EndComponent]]] = None
        self.settled_whole = False
        self._settled = False
        self._signature: Optional[tuple] = None
        self._reads: Optional[list[int]] = None
        # After a quiet call: the lb and ub of ``_reads``.
        self._quiet: Optional[tuple[list[float], list[float]]] = None

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
        """Derive the candidates anew if the recommender signature changed.
        The staying cache is left as it is: an end component that is no
        longer a candidate keeps its iteration, and resumes it if it comes
        back (see the class docstring)."""
        signature = self._recommender_signature(model, bounds)
        if self.candidates is not None and signature == self._signature:
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
        for beneficiary in (MAXIMIZER, MINIMIZER):
            # The search reads the restriction on the opponent's states only,
            # so equal restrictions there yield the same candidates.
            opponent = [s for s, _, _ in signature if model.owners[s] is beneficiary.opponent]
            searched: set[tuple] = set()
            # Insertion-ordered set: each candidate once, in order found.
            found: dict[EndComponent, None] = {}
            for optimal in (optimal_ub, optimal_lb, single_ub, single_lb):
                restriction = tuple(optimal[s] for s in opponent)
                if restriction in searched:
                    continue
                searched.add(restriction)
                found.update(
                    dict.fromkeys(sec_candidates(model, self.mec, beneficiary, optimal))
                )
            new[beneficiary] = list(found)
        self.candidates = new
        self._signature = signature

    def settled(self, bounds: BoundsVector) -> bool:
        """Whether every state of the MEC has a gap of at most ``epsilon``.
        Both solvers skip a settled tracker: its states are resolved to the
        precision asked for.  Gaps never widen, so a True answer is
        remembered and the bounds are not read again."""
        if not self._settled:
            lb, ub, epsilon = bounds.lb, bounds.ub, self.epsilon
            for s in self.mec.states:
                if not ub[s] - lb[s] <= epsilon:
                    return False
            self._settled = True
        return True

    def _nothing_to_do(self, bounds: BoundsVector) -> bool:
        """Whether processing now would change nothing: the last call was
        quiet and no bound it read has moved since.  A quiet call left
        every candidate's staying bracket within the precision or beaten
        by its best exit, which the same bounds leave as it was, and
        brackets never widen.  So the recommender signature is unchanged,
        no staying step and no split runs, and every de-/inflation sees
        the bounds of the quiet call and its bracket, or one its exit
        still beats: it changes nothing again and picks the same exits."""
        if self._quiet is None:
            return False
        lb_seen, ub_seen = self._quiet
        reads = self._reads
        return (
            list(map(bounds.lb.__getitem__, reads)) == lb_seen
            and list(map(bounds.ub.__getitem__, reads)) == ub_seen
        )

    def _remember_quiet(self, model: GameModel, bounds: BoundsVector) -> None:
        if self._reads is None:
            reads = set(self.mec.states)
            for s in self.mec.states:
                for dist in model.actions[s]:
                    reads.update(t for t, _ in dist.support)
            self._reads = sorted(reads)
        self._quiet = (
            list(map(bounds.lb.__getitem__, self._reads)),
            list(map(bounds.ub.__getitem__, self._reads)),
        )

    def process(self, model: GameModel, bounds: BoundsVector) -> Optional[list[Exit]]:
        """Deflate the MEC's Maximizer candidates and inflate its Minimizer
        ones, at the staying precision.  Returns, for the simulation jump
        memory, the first best exit (see ``best_exit``) of every candidate
        that has one, with the candidate's states, in the order the
        candidates were processed.

        The first call deflates and inflates the whole MEC before anything
        else, which is sound whatever the bounds (see the module
        docstring).  When the exits' bounds are final, that settles the MEC
        if its staying bracket closes and neither player's best exit beats
        staying; the call then returns the MEC's own first best exits and
        stops.  Otherwise it drops them and goes on as every later call
        does: it refreshes the candidates if needed and de-/inflates them,
        splitting those whose staying iteration stalled (ran out of budget
        before its best exit beat it), and a candidate equal to the MEC
        resumes the whole step's staying iteration.

        A call for which ``_nothing_to_do`` holds is skipped and returns
        None instead of repeating the exits of the quiet call before it.
        The bounds are read only after a quiet call, so a caller whose
        calls nearly always change a bound pays for the skip with a flag
        per call."""
        if self._nothing_to_do(bounds):
            return None
        self._quiet = None
        objective, precision, cache = self.objective, self.precision, self.staying_cache
        operations = ((MAXIMIZER, deflate), (MINIMIZER, inflate))
        used: list[Exit] = []
        quiet = True
        if self.candidates is None:  # the first call: the whole-MEC step
            for _, operate in operations:
                changed, exit = operate(model, self.mec, bounds, objective, precision, cache)
                quiet = quiet and not changed
                if exit is not None:
                    used.append((self.mec.states, exit))
            if self.settled(bounds):
                self.settled_whole = True
                return used
            used = []
        self.refresh_candidates(model, bounds)
        assert self.candidates is not None
        for beneficiary, operate in operations:
            worklist = list(self.candidates[beneficiary])
            seen = set(worklist)
            while worklist:
                ec = worklist.pop()
                changed, exit = operate(model, ec, bounds, objective, precision, cache)
                quiet = quiet and not changed
                if exit is not None:
                    used.append((ec.states, exit))
                iteration = cache.get(ec)  # None for reachability
                if iteration is not None and iteration.stalled:
                    # Later steps in this call may narrow the bracket split
                    # on; the next call would then split nothing.
                    quiet = False
                    for sub in split_candidates(model, ec, beneficiary, iteration):
                        if sub not in seen:
                            seen.add(sub)
                            worklist.append(sub)
        if quiet:
            self._remember_quiet(model, bounds)
        return used
