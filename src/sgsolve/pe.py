"""Partial-exploration solver: simulation-guided interval iteration.

Paths are sampled from the initial state, choosing the bound-optimal
action of the owner and weighting successors by transition probability
times bound gap.  Only visited states are expanded; unexplored frontier
states keep their a-priori bounds.  End components discovered inside the
explored region are handled by the same deflate/inflate machinery as the
complete solver, and the exit used in a deflation is remembered per
state, so that later simulations jump out of regions whose bounds already
account for their best exit instead of looping inside them.

Three rules keep simulations from walking paths that cannot move a bound.
An absorbing state is pinned to its exact value when it is expanded (its
reward under mean payoff; 1 for a goal and 0 otherwise under
reachability), so paths stop there at once.  A jump through an exit lands
only on successors whose memory does not hold that exit, if it has any, so
it leaves the region instead of landing back in it.  A path that expands
no state is followed by a component refresh, like a looping one.  Only the
first rule sets a bound, and to the state's value; the other two choose
paths and refresh times, so every bound still moves only by a guarded
update or a de-/inflation, and stays sound.

The end components are maintained incrementally: a component refresh
decomposes again only the explored SCCs that hold a state expanded since
the last refresh or lie on a way between two such, and keeps the
trackers of every other MEC, whose ``process`` is then skipped for as
long as nothing it reads has moved (see ``MecTracker``); a settled
tracker remembers it and is not processed again.

Each refresh ends with two Gauss-Seidel sweeps over the explored region
that are driven by changes: a predecessor index, grown as states are
expanded, marks dirty the states a bound move can reach, and only dirty
states are updated.  A clean state's update would change nothing, since
the update is idempotent while its successors' bounds stay put, so the
bounds are bit for bit those of two full sweeps (see ``_sweep``).
"""

from __future__ import annotations

import random
from functools import reduce
from operator import add
from typing import Callable, Optional

from .bounds import (
    BoundsVector, check_epsilon, converged as bounds_converged, midpoint, optimal_actions,
    state_update,
)
from .ecsolve import MecTracker
from .graph import mec_decompose
from .model import MAXIMIZER, Distribution, GameModel
from .objectives import Objective, prepare
from .result import SolveResult

DEFAULT_MAX_PATHS = 10_000_000
REVISIT_BUDGET = 2
COMPONENT_SEARCH_PERIOD = 8

PeInstrument = Callable[[int, GameModel, "PartialState"], None]
# Per state of a processed MEC, the (state, action) exits that its last
# processing used for the candidates holding the state, in their order.
Memory = dict[int, list[tuple[int, int]]]


class PartialState:
    """Mutable exploration state: per-state bounds over the full id space
    (frontier states sit at their a-priori bounds) plus the explored set."""

    def __init__(self, model: GameModel, objective: Objective):
        self.model = model
        self.objective = objective
        lo = objective.value_floor()
        hi = objective.value_ceiling()
        self.bounds = BoundsVector([lo] * model.num_states, [hi] * model.num_states)
        self.explored: set[int] = set()
        # States expanded since the MECs of the explored region were last
        # brought up to date, and the states passed to ``mec_decompose`` so far.
        self.added: list[int] = []
        self.decomposed_states = 0
        # Per state, the explored states with an action leading to it.
        self.preds: dict[int, set[int]] = {}
        # Explored states whose ``state_update`` may move a bound: a
        # successor's bound has moved since their last sweep update, or
        # they have had none.  ``recorded`` holds the bounds that the last
        # sweep left on the explored states (the a-priori ones elsewhere).
        self.dirty: set[int] = set()
        self.recorded = self.bounds.copy()
        self.sweep_updates = 0

    def expand(self, state: int) -> None:
        if state in self.explored:
            return
        self.explored.add(state)
        self.added.append(state)
        self.dirty.add(state)
        for dist in self.model.actions[state]:
            for t, _ in dist.support:
                self.preds.setdefault(t, set()).add(state)
        if self.model.is_absorbing(state):
            # A one-state end component, whose value is known.
            if self.objective.is_mean_payoff:
                value = self.model.rewards[state]
            else:
                value = 1.0 if state in self.objective.goal else 0.0
            self.bounds.lb[state] = self.bounds.ub[state] = value


def _guidance_action(model: GameModel, state: int, bounds: BoundsVector) -> int:
    """Bound-optimal action: argmax on ub for Maximizer, argmin on lb for
    Minimizer, lowest index on ties."""
    reference = bounds.ub if model.owners[state] is MAXIMIZER else bounds.lb
    return optimal_actions(model, reference, state)[0]


def _sample_successor(
    dist: Distribution, part: PartialState, rng: random.Random, memory: Memory,
    exit: Optional[tuple[int, int]],
) -> int:
    """A successor drawn with weight probability times bound gap, or by
    probability alone if every gap is closed.  After a jump through the
    recorded ``exit``, only successors whose memory does not hold it are
    drawn, if there are any: the others lie in the region it leaves."""
    support = dist.support
    if exit is not None:
        support = [(t, p) for t, p in support if exit not in memory.get(t, ())] or support
    # Left folds from 0.0: the bits of 3.11's ``sum`` on every version.
    weights = [p * part.bounds.gap(t) for t, p in support]
    total = reduce(add, weights, 0.0)
    if total <= 0.0:
        weights = [p for _, p in support]
        total = reduce(add, weights, 0.0)
    pick = rng.random() * total
    acc = 0.0
    for (t, _), w in zip(support, weights):
        acc += w
        if pick <= acc:
            return t
    return support[-1][0]


def sample_path(
    model: GameModel,
    part: PartialState,
    memory: Memory,
    rng: random.Random,
    epsilon: float,
) -> tuple[list[tuple[int, int]], bool]:
    """One guided simulation from the initial state.

    Returns the visited (state, action) pairs and whether the path was cut
    off by the revisit budget (a sign of looping inside an unresolved end
    component).  A path stops at a state whose gap is below
    ``2 * epsilon``, an expanded absorbing state among them, or at a
    state's visit ``REVISIT_BUDGET + 1``.  Each earlier visit adds one
    pair, two on a jump: at most ``2 * REVISIT_BUDGET`` per state."""
    path: list[tuple[int, int]] = []
    visits: dict[int, int] = {}
    looped = False
    state = model.initial
    while True:
        part.expand(state)
        visits[state] = visits.get(state, 0) + 1
        if part.bounds.gap(state) < 2.0 * epsilon:
            break
        if visits[state] > REVISIT_BUDGET:
            looped = True
            break
        entries = memory.get(state)
        if entries:
            # Jump out via a recorded exit, preferring the one whose
            # successors have the most remaining uncertainty; still record
            # the current state so backpropagation keeps updating it.
            def _exit_weight(exit):
                support = model.distribution(*exit).support
                return reduce(add, (p * part.bounds.gap(t) for t, p in support), 0.0)

            exit = max(entries, key=_exit_weight)
            from_state, action = exit
            if from_state != state:
                path.append((state, _guidance_action(model, state, part.bounds)))
        else:
            exit = None
            from_state, action = state, _guidance_action(model, state, part.bounds)
        path.append((from_state, action))
        dist = model.distribution(from_state, action)
        state = _sample_successor(dist, part, rng, memory, exit)
    return path, looped


def _backpropagate(model: GameModel, part: PartialState, path) -> None:
    for state, _ in reversed(path):
        state_update(model, part.bounds, state)


def _changed_region(model: GameModel, part: PartialState) -> set[int]:
    """The explored states that are reachable from an added state and can
    reach one, inside the explored region: a union of the region's SCCs,
    those that hold an added state and those on a way between two of
    them.  A forward search from the added states finds the states they
    reach; a backward search from them over ``part.preds``, kept inside
    that set, finds those among them that reach an added state."""
    explored = part.explored
    reached = set(part.added)
    stack = list(part.added)
    while stack:
        for dist in model.actions[stack.pop()]:
            for t, _ in dist.support:
                if t in explored and t not in reached:
                    reached.add(t)
                    stack.append(t)
    region = set(part.added)
    stack = list(part.added)
    while stack:
        for s in part.preds.get(stack.pop(), ()):
            if s in reached and s not in region:
                region.add(s)
                stack.append(s)
    return region


def _refresh_components(
    model: GameModel,
    part: PartialState,
    objective: Objective,
    trackers: list[MecTracker],
    memory: Memory,
    use_memory: bool,
    epsilon: float,
    staying_cache: dict,
) -> list[MecTracker]:
    """Bring the MECs of the explored region up to date, then de-/inflate
    every component that is not yet settled.

    ``trackers`` hold the MECs of the region as it was at the last call.
    Only the region's SCCs that hold a state expanded since then, and
    those on a way between two such, are decomposed again
    (``_changed_region``): any other SCC was an SCC then, with the same
    internal edges, so its MECs and their trackers stand as they are.  A
    decomposed MEC keeps the tracker of an equal old one; any other gets a
    new tracker on the solve's ``staying_cache``, and an old tracker that
    kept no MEC is dropped.  The region only grows, so each end component
    cached so far is still one, with the same internal actions, and the
    tracker of the grown MEC that holds it resumes its iteration soundly.
    The result equals ``mec_decompose`` of the subgame that maps every
    explored state to all of its actions, in its order.

    A settled tracker (``MecTracker.settled``, which remembers a True
    answer) is not processed; it stays in the returned list.  A
    processed component's states get their memory anew: the exits its
    ``process`` call returned, for the candidates holding each state, in
    the order returned.  A skipped component's memory holds the exits of
    its last processing already, and a settled component's entries are
    left as they are: ``sample_path`` stops at its states (gap below
    ``2 * epsilon``) before it reads the memory.

    Last, ``_sweep`` carries the new bounds through the explored region in
    two change-driven sweeps: only states with a successor whose bounds
    moved since their last update are updated, which gives exactly the
    bounds of two full sweeps."""
    fresh = trackers
    if part.added:
        region = _changed_region(model, part)
        part.added = []
        part.decomposed_states += len(region)
        fresh, old_by_mec = [], {}
        for tracker in trackers:
            # A MEC lies inside one SCC, so it is in the region or outside it.
            if next(iter(tracker.mec.states)) in region:
                old_by_mec[tracker.mec] = tracker
            else:
                fresh.append(tracker)
        subgame = {s: range(len(model.actions[s])) for s in region}
        for mec in mec_decompose(model, subgame).mecs:
            fresh.append(old_by_mec.get(mec) or MecTracker(mec, objective, epsilon, staying_cache))
        fresh.sort(key=lambda tracker: min(tracker.mec.states))
    for tracker in fresh:
        if tracker.settled(part.bounds):
            continue
        exits = tracker.process(model, part.bounds)
        if exits is None:
            continue
        for s in tracker.mec.states:
            memory.pop(s, None)
        if use_memory:
            for states, exit in exits:
                for s in states:
                    memory.setdefault(s, []).append(exit)
    _sweep(model, part)
    return fresh


def _sweep(model: GameModel, part: PartialState) -> None:
    """Two Gauss-Seidel sweeps over the explored region, in descending id
    order, that update only the dirty states.

    Simulations jump straight to recorded exits, so interior component
    states do not appear on paths; the sweeps carry exit values to them.
    First the predecessors of every explored state whose bounds moved
    since the last sweep (by backpropagation, de-/inflation or pinning in
    ``expand``) become dirty; in a sweep, a dirty state is updated and
    made clean, and if a bound of it moves, its predecessors become dirty:
    those later in the order are updated in the same sweep, the others in
    the next one or at the next refresh.

    Skipping a clean state skips a call that would change nothing, so the
    bounds are exactly those of two full sweeps.  ``state_update`` is
    idempotent while no successor's bounds move.  A state's own bounds
    may move in between, but that cannot make the update move them again:
    ``ub`` only falls and ``lb`` only rises, so a bound at or past the
    one-step optimum stays there, and each is clamped to the other."""
    bounds, recorded, preds, dirty = part.bounds, part.recorded, part.preds, part.dirty
    lb, ub, seen_lb, seen_ub = bounds.lb, bounds.ub, recorded.lb, recorded.ub
    order = sorted(part.explored, reverse=True)
    for s in order:
        if lb[s] != seen_lb[s] or ub[s] != seen_ub[s]:
            seen_lb[s], seen_ub[s] = lb[s], ub[s]
            dirty.update(preds.get(s, ()))
    for _ in range(2):
        for s in order:
            if s not in dirty:
                continue
            dirty.discard(s)
            part.sweep_updates += 1
            state_update(model, bounds, s)
            if lb[s] != seen_lb[s] or ub[s] != seen_ub[s]:
                seen_lb[s], seen_ub[s] = lb[s], ub[s]
                dirty.update(preds.get(s, ()))


def solve_pe(
    model: GameModel,
    objective: Objective,
    epsilon: float = 1e-6,
    *,
    seed: int = 0,
    max_paths: int = DEFAULT_MAX_PATHS,
    use_deflate_memory: bool = True,
    instrument: Optional[PeInstrument] = None,
) -> SolveResult:
    """Simulation-guided solving to an epsilon-precise value at the
    initial state.  Deterministic for a fixed seed.

    A component refresh follows every path that looped or expanded no
    state, and every ``COMPONENT_SEARCH_PERIOD``-th path: the backprop of a
    path that expands nothing only repeats updates the sweeps make anyway.

    ``use_deflate_memory`` disables the jump-to-recorded-exit fix; without
    it, simulations can keep looping inside an end component whose bounds
    are already fully deflated and the path budget runs out.  A
    ``max_paths`` below 1, or an ``epsilon`` that is not positive and
    finite, raises ValueError.  ``stats`` holds the seed, the number of
    component refreshes (``refreshes``), the total size of the regions
    they passed to ``mec_decompose`` (``decomposed_states``), the number
    of ``state_update`` calls their change-driven sweeps made
    (``sweep_updates``) and the number of staying-value steps run
    (``staying_steps``), those of dropped trackers included: the solve
    keeps one staying cache, which every tracker shares (see
    ``MecTracker``)."""
    check_epsilon(epsilon)
    if not max_paths >= 1:
        raise ValueError(f"max_paths must be at least 1, got {max_paths}")
    query = prepare(model, objective)
    work = query.model

    rng = random.Random(seed)
    part = PartialState(work, query.objective)
    part.expand(work.initial)
    memory: Memory = {}
    trackers: list[MecTracker] = []
    staying_cache: dict = {}
    paths = 0
    refreshes = 0
    done = False
    while paths < max_paths and not done:
        paths += 1
        explored = len(part.explored)
        path, looped = sample_path(work, part, memory, rng, epsilon)
        _backpropagate(work, part, path)
        # An empty path stops at a settled initial state, ending the solve.
        idle = path and len(part.explored) == explored
        if looped or idle or paths % COMPONENT_SEARCH_PERIOD == 0:
            refreshes += 1
            trackers = _refresh_components(
                work, part, query.objective, trackers, memory, use_deflate_memory,
                epsilon, staying_cache,
            )
            _backpropagate(work, part, path)
        if instrument is not None:
            instrument(paths, work, part)
        done = bounds_converged(part.bounds, work.initial, epsilon)

    bounds = part.bounds
    return query.orient(SolveResult(
        value=midpoint(bounds, work.initial),
        lower=bounds.lb[work.initial],
        upper=bounds.ub[work.initial],
        precision=epsilon,
        mode="pe",
        objective=objective.kind.value,
        iterations=paths,
        states_explored=len(part.explored),
        converged=done,
        bounds=bounds,
        state_map=tuple(range(model.num_states)),
        stats={
            "seed": seed,
            "refreshes": refreshes,
            "decomposed_states": part.decomposed_states,
            "sweep_updates": part.sweep_updates,
            "staying_steps": sum(iteration.steps for iteration in staying_cache.values()),
        },
    ))
