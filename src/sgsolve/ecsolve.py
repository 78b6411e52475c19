"""SEC-candidate search, staying-value approximation, deflate and inflate.

The upper bound of a region where Maximizer currently wants to remain is
lowered to the better of its staying value and its best exit (deflate);
dually, the lower bound of a region where Minimizer wants to remain is
raised (inflate).  Candidates are found per game MEC by fixing the
opposing player to its currently optimal choices and searching for end
components in the induced restriction.

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
of its last iterates, while the bracket is narrowing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Optional

from .bounds import BoundsVector, optimal_actions
from .graph import EndComponent, mec_decompose
from .model import MAXIMIZER, MINIMIZER, GameModel, Player
from .objectives import Objective, ObjectiveKind


@dataclass(frozen=True)
class SecCandidate:
    """An end component of the induced MDP in which the beneficiary may
    want to remain, given current bounds."""

    ec: EndComponent
    beneficiary: Player


# A de-/inflation exit: the candidate's states and the (state, action)
# pair its beneficiary leaves by.
Exit = tuple[frozenset[int], tuple[int, int]]


def _candidates_in(
    model: GameModel,
    states: frozenset[int],
    beneficiary: Player,
    opponent_actions: dict[int, tuple[int, ...]],
) -> list[SecCandidate]:
    """The beneficiary's candidates inside ``states``: the end components
    there when the opponent may use only ``opponent_actions`` at its
    states."""
    opponent = beneficiary.opponent

    def allowed(state: int):
        if model.owners[state] is opponent:
            return opponent_actions[state]
        return range(model.num_actions(state))

    decomposition = mec_decompose(model, restrict_to=states, allowed_actions=allowed)
    return [SecCandidate(ec, beneficiary) for ec in decomposition.mecs]


def sec_candidates(
    model: GameModel,
    game_mec: EndComponent,
    beneficiary: Player,
    opponent_optimal: dict[int, tuple[int, ...]],
) -> list[SecCandidate]:
    """Candidates for the beneficiary inside one game MEC, with the
    opponent fixed to the actions ``opponent_optimal`` gives at its
    states.

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
        return [SecCandidate(game_mec, beneficiary)]
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


@dataclass
class _StayingIteration:
    """The staying-value iteration of one end component, compiled once into
    index lists so that a step reads no model structure.  Member ``i`` is
    state ``members[i]`` and earns ``rewards[i]``; its internal actions are
    ``actions[starts[i]:ends[i]]``, each a pair of parallel tuples (member
    indices, probabilities) in distribution order, and ``choose[i]`` picks
    its owner's best action value: ``max`` for Maximizer, ``min`` for
    Minimizer, None when it has one action.  ``x`` and ``diffs`` (the last
    step's differences) are indexed like ``members``; ``steps`` counts the
    plain steps run.

    A step applies the operator ``T(x) = r + x/2 + opt(P x)/2`` of the game
    restricted to the internal actions, blended with a half self-loop so
    that it is aperiodic; the blend keeps every staying value.  ``T`` is
    monotone and commutes with adding a constant, so for any finite ``x``,
    with ``M = max(T(x) - x)``, induction gives ``T^k(x) <= x + k*M``, and
    every staying value, the limit of ``T^k(x)/k``, is at most ``M``; dually
    at least ``min(T(x) - x)``.  The bracket ``[lo, hi]``, the running max
    of those minima and the running min of those maxima, is thus sound
    whichever finite iterates the steps are applied to.

    That frees ``advance`` to move ``x`` to a better guess than the plain
    sequence: reduced-rank extrapolation (RRE; Smith, Ford & Sidi, SIAM
    Review 1987).  Every ``EXTRAPOLATION_PERIOD`` steps, if the bracket
    narrowed over them, ``x`` is replaced by the affine combination of the
    last ``depth + 2`` iterates that minimizes the least-squares residual a
    linear map would leave.  The depth is ``EXTRAPOLATION_DEPTH`` or, on a
    smaller end component, the number of members less one: the iterates
    keep the first member at 0, so their differences span at most that
    many dimensions.  A column of the normal equations that depends on the
    earlier ones is dropped, and a non-finite extrapolant is discarded.  A
    bracket that does not narrow (a game without a uniform value, whose
    bracket stalls at the spread of the values) is never extrapolated, so
    ``split_candidates`` reads the differences of the plain sequence.  The
    differences are those of a plain step either way."""

    members: list[int]
    rewards: list[float]
    choose: list[Optional[Callable[[list[float]], float]]]
    starts: list[int]
    ends: list[int]
    actions: list[tuple[tuple[int, ...], tuple[float, ...]]]
    x: list[float]
    lo: float = -math.inf
    hi: float = math.inf
    diffs: Optional[list[float]] = None
    steps: int = 0
    # The iterates of the current period (at most ``depth + 2``, the latest
    # last) and the bracket's width after its first step.
    window: list[list[float]] = field(default_factory=list)
    opened: float = math.inf

    @staticmethod
    def compile(model: GameModel, ec: EndComponent) -> "_StayingIteration":
        # ``ec.actions`` lists the states in ascending order.
        members = [s for s, _ in ec.actions]
        index = {s: i for i, s in enumerate(members)}
        rewards: list[float] = []
        choose: list[Optional[Callable[[list[float]], float]]] = []
        starts: list[int] = []
        ends: list[int] = []
        actions = []
        for s, acts in ec.actions:
            rewards.append(model.rewards[s])
            if len(acts) == 1:
                choose.append(None)
            else:
                choose.append(max if model.owners[s] is MAXIMIZER else min)
            starts.append(len(actions))
            dists = model.actions[s]
            for a in acts:
                targets = []
                probs = []
                for t, p in dists[a].support:
                    targets.append(index[t])
                    probs.append(p)
                actions.append((tuple(targets), tuple(probs)))
            ends.append(len(actions))
        return _StayingIteration(
            members, rewards, choose, starts, ends, actions, [0.0] * len(members)
        )

    def step(self) -> None:
        """One plain aperiodic Bellman step, its differences folded into
        the bracket, then the iterates shifted so the first member is 0."""
        x = self.x
        at = x.__getitem__
        # An action's value is sum() of its products in support order;
        # for a single product v, sum() returns 0.0 + v.
        values = [
            0.0 + probs[0] * x[targets[0]]
            if len(targets) == 1
            else sum(map(mul, probs, map(at, targets)))
            for targets, probs in self.actions
        ]
        new = [
            reward + 0.5 * xs + 0.5 * (values[i] if choose is None else choose(values[i:j]))
            for reward, xs, choose, i, j in zip(
                self.rewards, x, self.choose, self.starts, self.ends
            )
        ]
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
    return sum(map(mul, u, v))


def _extrapolate(xs: list[list[float]]) -> Optional[list[float]]:
    """The RRE extrapolant of the iterates ``xs`` (oldest first), or None
    when it is not finite or every column is dependent.

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
            row.append((_dot(w, ws[j]) - sum(map(mul, row, factor))) / factor[m])
        diagonal = _dot(w, w)
        pivot = diagonal - sum(map(mul, row, row))
        if pivot > DEPENDENT_PIVOT * diagonal:
            kept.append(i)
            rows.append(row + [math.sqrt(pivot)])
    if not kept:
        return None
    # Forward, then backward substitution for the kept columns.
    y: list[float] = []
    for m, i in enumerate(kept):
        factor = rows[m]
        y.append((-_dot(ws[i], us[0]) - sum(map(mul, factor, y))) / factor[m])
    solution = [0.0] * len(kept)
    for m in reversed(range(len(kept))):
        below = sum(rows[p][m] * solution[p] for p in range(m + 1, len(kept)))
        solution[m] = (y[m] - below) / rows[m][m]
    xi = [0.0] * len(ws)
    for i, v in zip(kept, solution):
        xi[i] = v
    # x_0 + sum(xi_i (x_{i+1} - x_i)) as an affine combination of x_0..x_k.
    gamma = [1.0 - xi[0]] + [a - b for a, b in zip(xi, xi[1:])] + [xi[-1]]
    extrapolant = [sum(map(mul, gamma, column)) for column in zip(*xs[: len(gamma)])]
    if not math.isfinite(sum(extrapolant)):
        return None
    return extrapolant


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
    the per-state staying values.  The iteration does not depend on the
    beneficiary: ``cache`` keys it by the end component ``candidate.ec``,
    so the Maximizer and the Minimizer candidate over one end component
    share one iteration, compiled on first use and resumed by later calls.
    The iteration runs ``_StayingIteration.advance``: plain steps, with an
    extrapolation of the iterates every ``EXTRAPOLATION_PERIOD`` steps
    while the bracket narrows.  The bracket stays sound because each plain
    step bounds the staying values from whatever finite iterate it starts;
    the extrapolation only makes it close in fewer steps.

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

    state = cache.get(candidate.ec) if cache is not None else None
    if state is None:
        state = _StayingIteration.compile(model, candidate.ec)
        if cache is not None:
            cache[candidate.ec] = state

    budget = max(64, 4 * len(state.members))
    steps = 0
    while state.hi - state.lo > precision and steps < budget:
        steps += 1
        state.advance()
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
    if not iteration.diffs:
        return []
    diffs = dict(zip(iteration.members, iteration.diffs))
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
    subs: list[SecCandidate] = []
    for group in groups:
        subs.extend(_candidates_in(model, frozenset(group), candidate.beneficiary, amap))
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
    maximize = candidate.beneficiary is MAXIMIZER
    reference = bounds.ub if maximize else bounds.lb
    states = candidate.ec.states
    best: Optional[float] = None
    exits: list[tuple[int, int]] = []
    for s in sorted(states):
        if model.owners[s] is not candidate.beneficiary:
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
    if candidate.beneficiary is not MAXIMIZER:
        raise ValueError("deflate applies to Maximizer-beneficiary candidates")
    _, stay_high = staying_bounds(model, candidate, objective, precision, cache)
    exit_value, exits = best_exit(model, candidate, bounds, objective)
    ceiling = max(stay_high, exit_value)
    changed = False
    lb, ub = bounds.lb, bounds.ub
    for s in candidate.ec.states:
        # max(min(ub[s], ceiling), lb[s]), by the comparisons max and min make.
        high = ub[s]
        new = ceiling if ceiling < high else high
        low = lb[s]
        if low > new:
            new = low
        if new < high:
            ub[s] = new
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
    if candidate.beneficiary is not MINIMIZER:
        raise ValueError("inflate applies to Minimizer-beneficiary candidates")
    stay_low, _ = staying_bounds(model, candidate, objective, precision, cache)
    exit_value, exits = best_exit(model, candidate, bounds, objective)
    floor = min(stay_low, exit_value)
    changed = False
    lb, ub = bounds.lb, bounds.ub
    for s in candidate.ec.states:
        # min(max(lb[s], floor), ub[s]), by the comparisons min and max make.
        low = lb[s]
        new = floor if floor > low else low
        high = ub[s]
        if high < new:
            new = high
        if new > low:
            lb[s] = new
            changed = True
    return changed, exits


class MecTracker:
    """Per-game-MEC bookkeeping of one solve to precision ``epsilon``:
    recommender signatures, cached candidate sets and cached staying-value
    iterations.

    The first ``process`` call de-/inflates the MEC itself; when that
    settles it (``settled_whole``), the tracker never computes a
    recommender signature or searches for candidates.  Otherwise the
    candidates are re-derived only when the recommender signature (the
    optimal actions inside the MEC) has changed.  They restrict the
    opponent to its optimal actions, which makes them tighter and so
    serves convergence; soundness does not depend on it.  Every staying
    iteration runs to ``precision``, epsilon/4, for the tracker's whole
    life: the bracket is sound at any precision, which only bounds how
    long a call iterates, and each call runs a bounded number of steps.
    The staying cache holds one iteration per end component (keyed by the
    ``EndComponent`` itself), compiled once and shared by the deflated
    Maximizer candidate and the inflated Minimizer candidate over it.  An
    iteration is kept for the tracker's whole life, also while its end
    component is no candidate, so a candidate that comes back resumes it.
    That is sound: the bracket holds from any finite iterate (see
    ``_StayingIteration``), and the key fixes the internal actions the
    iteration runs on.  When partial exploration grows the MEC, the whole
    cache is handed over to the tracker of the grown MEC (``absorb``).

    ``staying_steps`` is the number of plain steps that the cached
    iterations have run, those an absorbed iteration ran before included.
    A tracker that handed its cache over is dropped, so summing over the
    live trackers counts every step once.

    A ``process`` call that changes no bound and leaves no candidate's
    staying bracket wider than ``precision`` (such a candidate is passed
    to ``split_candidates``) is quiet.  After one, the tracker keeps the
    bounds that processing reads (those of the MEC's states and of all
    their successors) until the next call that is not skipped; they are
    all that ``_nothing_to_do`` compares, since brackets never widen.
    """

    def __init__(self, mec: EndComponent, objective: Objective, epsilon: float):
        self.mec = mec
        self.objective = objective
        self.epsilon = epsilon
        self.precision = epsilon / 4.0
        self.staying_cache: dict = {}
        self.candidates: Optional[dict[Player, list[SecCandidate]]] = None
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

    @property
    def staying_steps(self) -> int:
        return sum(iteration.steps for iteration in self.staying_cache.values())

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
            found: dict[SecCandidate, None] = {}
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
        every candidate's staying bracket within the precision, and
        brackets never widen.  So the recommender signature is unchanged,
        no staying step and no split runs, and every de-/inflation sees the
        bounds and the bracket it saw in the quiet call, so it changes
        nothing again and picks the same exits."""
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

    def _operate(
        self, model: GameModel, candidate: SecCandidate, bounds: BoundsVector
    ) -> tuple[bool, list[tuple[int, int]], Optional[_StayingIteration]]:
        """Deflate a Maximizer candidate or inflate a Minimizer one at the
        staying precision.  Returns whether a bound changed, the best exits
        and the candidate's staying iteration (None for reachability)."""
        operate = deflate if candidate.beneficiary is MAXIMIZER else inflate
        changed, exits = operate(
            model, candidate, bounds, self.objective, self.precision, self.staying_cache
        )
        return changed, exits, self.staying_cache.get(candidate.ec)

    def process(self, model: GameModel, bounds: BoundsVector) -> Optional[list[Exit]]:
        """De-/inflate the MEC's candidates.  Returns, for the simulation
        jump memory, the first best exit of every candidate that has one,
        in the order they were processed.

        The first call de-/inflates the whole MEC before anything else,
        which is sound whatever the bounds (see the module docstring).
        When the exits' bounds are final, that settles the MEC if its
        staying bracket closes and neither player's best exit beats
        staying; the call then returns the MEC's own exits and stops.
        Otherwise it drops them and goes on as every later call does: it
        refreshes the candidates if needed and de-/inflates them, splitting
        those whose staying bracket stalled, and a candidate equal to the
        MEC resumes the whole step's staying iteration.

        A call for which ``_nothing_to_do`` holds is skipped and returns
        None instead of repeating the exits of the quiet call before it.
        The bounds are read only after a quiet call, so a caller whose
        calls nearly always change a bound pays for the skip with a flag
        per call."""
        if self._nothing_to_do(bounds):
            return None
        self._quiet = None
        used: list[Exit] = []
        quiet = True
        if self.candidates is None:  # the first call: the whole-MEC step
            for beneficiary in (MAXIMIZER, MINIMIZER):
                changed, exits, _ = self._operate(
                    model, SecCandidate(self.mec, beneficiary), bounds
                )
                quiet = quiet and not changed
                if exits:
                    used.append((self.mec.states, exits[0]))
            if self.settled(bounds):
                self.settled_whole = True
                return used
            used = []
        self.refresh_candidates(model, bounds)
        assert self.candidates is not None
        for beneficiary in (MAXIMIZER, MINIMIZER):
            worklist = list(self.candidates[beneficiary])
            seen = set(worklist)
            while worklist:
                candidate = worklist.pop()
                changed, exits, iteration = self._operate(model, candidate, bounds)
                if changed:
                    quiet = False
                if exits:
                    used.append((candidate.ec.states, exits[0]))
                if iteration is not None and iteration.hi - iteration.lo > self.precision:
                    # Later steps in this call may narrow the bracket split
                    # on; the next call would then split nothing.
                    quiet = False
                    for sub in split_candidates(model, candidate, iteration):
                        if sub not in seen:
                            seen.add(sub)
                            worklist.append(sub)
        if quiet:
            self._remember_quiet(model, bounds)
        return used

    def absorb(self, other: "MecTracker") -> None:
        """Take over the staying cache of a tracker whose MEC this one's
        holds (partial-exploration growth).  Each cached end component is
        still an end component there, with the same internal actions, so
        its iteration resumes soundly; ``other`` is then dropped."""
        self.staying_cache.update(other.staying_cache)
