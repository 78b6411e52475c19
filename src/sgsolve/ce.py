"""Complete-exploration solver: interval iteration over the strongly
connected components of the whole game, sinks first, with qualitative
precomputation (the states of a reachability query that it settles at
value 1 or 0 are made absorbing, so no end component spans one) and
deflate/inflate handling of every end component.  State ids are those of
the caller's model throughout.

A pass visits the unresolved components in reverse topological order, so
a component is updated after everything it can reach.  A round of a
component is one Bellman update of each of its open states (gap above
epsilon), then one processing of each of its unsettled end-component
trackers.  A component gets another round in the same pass while it is
unresolved and its last round at least halved its widest gap; a one-state
component without trackers gets one round per pass.  Slow components
(an end component whose staying bracket tightens slowly, a slowly mixing
chain) thus wait for the next pass instead of holding it up.  A component
whose gaps are all at most epsilon is resolved: gaps never widen, so it is
never visited again and its trackers are dropped.  One whose gaps all
start at most epsilon (an absorbing state pinned under mean payoff; a
goal, avoid or qualitatively pinned state under reachability) is resolved
before the first pass and never visited at all, and a solve whose initial
state starts converged runs no pass.

The solve stops as soon as the initial state has converged.  That is
checked when the component that holds it has had its rounds of a pass,
and at no other component.  This is exact: a Bellman update writes the
bounds of the one state it updates, and a tracker those of its MEC's
states, which lie in the tracker's own component, so no other
component's round can move the initial state's bounds.

The MECs are searched for in the SCCs of the one Tarjan pass over the
game that orders the components.  Each SCC is handed to
``graph.mec_decompose`` as known to be strongly connected, so one that
pruning its leaving actions leaves whole, with every inner edge, is
confirmed as a MEC without a Tarjan pass of its own, and an SCC in which
no action of any state stays inside is not searched at all: the search's
pruning would drop every action of it, so it holds no MEC.

Two things settle an end component in one go where that is sound.
Under mean payoff every absorbing state is pinned to ``[reward,
reward]``: the play earns that reward forever, whatever either player
does, so this is its exact value, and its SCC starts closed, with no MEC
search and no tracker.  And the first ``MecTracker.process`` call of a
tracker, made in the first round of its component, de-/inflates its
whole MEC at the staying precision epsilon/4 before any candidate
search.  That is sound whatever the bounds, since de-/inflating any end
component is (the ``ecsolve`` module docstring gives the argument).  By
the first round everything downstream has had its rounds, so the exits
are usually final.  An end component whose staying bracket closes and
where neither player's best exit beats staying then settles at once, and
its tracker never computes a recommender signature or searches for
candidates.  One that does not settle (values split inside it, an exit
still open) goes on to the candidate search in the same call, and the
candidate equal to the MEC resumes its staying iteration.  The
iteration reads only the end component's internal actions, never its
exits, so the steps it runs while a component downstream is still open
stay valid."""

from __future__ import annotations

from typing import Callable, Optional

from .bounds import BoundsVector, check_epsilon, converged, midpoint, state_update
from .ecsolve import MecTracker
from .graph import mec_decompose, scc_decompose
from .model import GameModel
from .objectives import Objective, init_bounds, prepare
from .result import SolveResult

Instrument = Callable[[int, GameModel, BoundsVector], None]

DEFAULT_MAX_SWEEPS = 10_000_000


def _some_action_stays(model: GameModel, states: list[int]) -> bool:
    """Whether an action of one of ``states`` has its whole support among them."""
    inside = set(states)
    for s in states:
        for dist in model.actions[s]:
            for t, _ in dist.support:
                if t not in inside:
                    break
            else:
                return True
    return False


def _widest_gap(lb: list[float], ub: list[float], states: list[int]) -> float:
    """The widest gap ``ub[s] - lb[s]`` over the non-empty ``states``: the
    one ``max`` of the gaps picks, the first of equal ones."""
    first = states[0]
    widest = ub[first] - lb[first]
    for s in states:
        gap = ub[s] - lb[s]
        if gap > widest:
            widest = gap
    return widest


def solve_ce(
    model: GameModel,
    objective: Objective,
    epsilon: float = 1e-6,
    *,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    enable_deflation: bool = True,
    enable_collapse: bool = True,
    initial_bounds: Optional[BoundsVector] = None,
    instrument: Optional[Instrument] = None,
) -> SolveResult:
    """Solve the whole game to an epsilon-precise value at the initial
    state, component by component in the order the module docstring
    describes; the solve stops as soon as the initial state has converged.
    ``iterations`` is the largest number of rounds any one component
    received, which for a game that is one component is the number of
    sweeps (a component that starts closed counts its initialization as
    its one round), and ``max_sweeps`` caps it: a component that has had
    that many rounds gets no more; a cap below 1, or an ``epsilon`` that
    is not positive and finite, raises ValueError.  Returns certified
    bounds even when the budget runs out (``converged`` is False then).
    ``instrument(iterations, model, bounds)`` is called after every pass;
    a solve whose initial state starts converged runs none.  ``stats``
    holds the size of the working model (``working_states``), the number
    of staying-value steps the trackers ran (``staying_steps``), the
    number of end-component trackers built, one per MEC of a component
    that starts open (``end_components``), and how many of those the
    whole-MEC step of their first ``process`` call settled
    (``settled_whole``).

    Under mean payoff, every absorbing state starts at ``[reward,
    reward]``, its exact value, so it needs no end-component tracker, and
    a tracker's first call de-/inflates its whole MEC before any candidate
    search.  The module docstring says why both are sound.

    ``initial_bounds`` overrides the default initialization (given in the
    original state numbering and the caller's orientation, and required to
    be sound; under mean payoff the absorbing states are pinned all the
    same, unless ``enable_deflation`` is off); a vector without one entry
    per state, or with an entry that is NaN or has ``lb > ub``, raises
    ValueError.  ``enable_deflation`` switches all end-component
    handling, the deflate/inflate trackers and the pin of absorbing states
    (one-state end components), to study the untreated fixpoint
    behaviour.  ``enable_collapse`` is accepted for compatibility and
    ignored: the value-1 and value-0 regions of a reachability query are
    always made absorbing."""
    check_epsilon(epsilon)
    if not max_sweeps >= 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps}")
    if initial_bounds is not None:
        lb, ub = initial_bounds.lb, initial_bounds.ub
        if not len(lb) == len(ub) == model.num_states:
            raise ValueError(f"initial bounds need {model.num_states} entries")
        for s in model.states():
            if not lb[s] <= ub[s]:
                raise ValueError(
                    f"initial bounds of state {s} are not an interval: [{lb[s]}, {ub[s]}]"
                )
    query = prepare(model, objective)
    work, working_objective = query.model, query.objective
    bounds = init_bounds(work, working_objective)
    if not objective.is_mean_payoff:
        # The states the initial bounds pin to 1 or 0 are made absorbing,
        # so that no end component spans a settled state.
        pinned_one = frozenset(s for s in work.states() if bounds.lb[s] == 1.0)
        pinned_zero = frozenset(s for s in work.states() if bounds.ub[s] == 0.0)
        absorbed = prepare(work, Objective.reachability(pinned_one, pinned_zero))
        work, working_objective = absorbed.model, absorbed.objective
    if initial_bounds is not None:
        bounds = query.orient(initial_bounds).copy()

    lb, ub = bounds.lb, bounds.ub
    if enable_deflation and objective.is_mean_payoff:
        # The value of an absorbing state, a one-state end component, is
        # its reward.
        for s in work.states():
            if work.is_absorbing(s):
                lb[s] = ub[s] = work.rewards[s]
    components = scc_decompose(work)
    # A component whose gaps all start at most epsilon is resolved before
    # the first pass, with no tracker; its initialization counts as its
    # one round.
    pending = [
        i for i, states in enumerate(components) if _widest_gap(lb, ub, states) > epsilon
    ]
    trackers: list[list[MecTracker]] = [[] for _ in components]
    if enable_deflation:
        # A MEC lies inside one SCC, so a search per SCC, which needs no
        # Tarjan of its own, finds them all.  An SCC holds one only if an
        # action of one of its states stays in it, the first test the
        # search's pruning makes.
        for i in pending:
            c = components[i]
            if _some_action_stays(work, c):
                trackers[i] = [
                    MecTracker(mec, working_objective, epsilon)
                    for mec in mec_decompose(work, c, strongly_connected=True).mecs
                ]
    # Every tracker, also those dropped once their component is resolved.
    made = [tracker for group in trackers for tracker in group]

    start = model.initial
    # Only the rounds of this component can change ``done``.
    home = next(i for i, states in enumerate(components) if start in states)
    rounds = [0] * len(components)
    iterations = 1 if len(pending) < len(components) else 0
    done = converged(bounds, start, epsilon)
    while pending and not done:
        unresolved = []
        for i in pending:
            states = components[i]
            widest = _widest_gap(lb, ub, states)
            while rounds[i] < max_sweeps:
                rounds[i] += 1
                for s in states:
                    if ub[s] - lb[s] > epsilon:
                        state_update(work, bounds, s)
                for tracker in trackers[i]:
                    if not tracker.settled(bounds):
                        tracker.process(work, bounds)
                last, widest = widest, _widest_gap(lb, ub, states)
                if widest <= epsilon or (len(states) == 1 and not trackers[i]):
                    break
                # An infinite gap never halves.
                if not widest <= 0.5 * last < last:
                    break
            if rounds[i] > iterations:
                iterations = rounds[i]
            if widest > epsilon and rounds[i] < max_sweeps:
                unresolved.append(i)
            else:
                trackers[i] = []
            if i == home:
                done = converged(bounds, start, epsilon)
                if done:
                    break
        pending = unresolved
        if instrument is not None:
            instrument(iterations, work, bounds)

    return query.orient(SolveResult(
        value=midpoint(bounds, start),
        lower=bounds.lb[start],
        upper=bounds.ub[start],
        precision=epsilon,
        mode="ce",
        objective=objective.kind.value,
        iterations=iterations,
        states_explored=model.num_states,
        converged=done,
        bounds=bounds,
        state_map=tuple(range(model.num_states)),
        stats={
            "working_states": work.num_states,
            "staying_steps": sum(tracker.staying_steps for tracker in made),
            "end_components": len(made),
            "settled_whole": sum(tracker.settled_whole for tracker in made),
        },
    ))
