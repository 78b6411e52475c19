"""Complete-exploration solver: Gauss-Seidel interval iteration over the
whole game, with qualitative precomputation (a reachability query's
value-1 and value-0 regions are merged into one state each) and
deflate/inflate handling of every end component."""

from __future__ import annotations

from typing import Callable, Optional

from .bounds import BoundsVector, converged, midpoint, state_update
from .ecsolve import MecTracker
from .graph import mec_decompose
from .model import GameModel, collapse
from .objectives import Objective, ObjectiveKind, init_bounds, prepare
from .result import SolveResult

Instrument = Callable[[int, GameModel, BoundsVector], None]

DEFAULT_MAX_SWEEPS = 10_000_000


def _merge_bounds(bounds: BoundsVector, cmap, new_n: int) -> BoundsVector:
    lb = [float("-inf")] * new_n
    ub = [float("inf")] * new_n
    for old in range(len(bounds)):
        new = cmap(old)
        lb[new] = max(lb[new], bounds.lb[old])
        ub[new] = min(ub[new], bounds.ub[old])
    for s in range(new_n):
        if lb[s] > ub[s]:
            mid = 0.5 * (lb[s] + ub[s])
            lb[s] = ub[s] = mid
    return BoundsVector(lb, ub)


def solve_ce(
    model: GameModel,
    objective: Objective,
    epsilon: float = 1e-6,
    *,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    enable_deflation: bool = True,
    enable_collapse: bool = True,
    qualitative: bool = True,
    initial_bounds: Optional[BoundsVector] = None,
    instrument: Optional[Instrument] = None,
) -> SolveResult:
    """Solve the whole game to an epsilon-precise value at the initial
    state.  Returns certified bounds even when the sweep budget runs out
    (``converged`` is False then).

    ``initial_bounds`` overrides the default initialization (given in the
    original state numbering and the caller's orientation, and required to
    be sound); a vector without one entry per state, or with an entry that
    is NaN or has ``lb > ub``, raises ValueError.  ``enable_deflation``
    switches the deflate/inflate handling of end components and
    ``enable_collapse`` the merge of the value-1 and the value-0 region of
    a reachability query; both exist to study the untreated fixpoint
    behaviour."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
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
    work = query.model
    mapping = list(range(model.num_states))
    is_reach = not objective.is_mean_payoff
    # The value-1 and value-0 regions are read off the initial bounds, which
    # pin them (the goal and avoid states alone without ``qualitative``).
    bounds = init_bounds(work, query.objective, qualitative)
    pinned_one = pinned_zero = frozenset()
    if is_reach:
        pinned_one = frozenset(s for s in work.states() if bounds.lb[s] == 1.0)
        pinned_zero = frozenset(s for s in work.states() if bounds.ub[s] == 0.0)
    if initial_bounds is not None:
        bounds = query.orient(initial_bounds).copy()

    if enable_collapse:
        sets = [pinned for pinned in (pinned_one, pinned_zero) if len(pinned) > 1]
        if sets:
            work, cmap = collapse(work, sets, [[] for _ in sets])
            mapping = [cmap(m) for m in mapping]
            pinned_one = frozenset(cmap(s) for s in pinned_one)
            pinned_zero = frozenset(cmap(s) for s in pinned_zero)
            bounds = _merge_bounds(bounds, cmap, work.num_states)

    if is_reach:
        working_objective = Objective(
            ObjectiveKind.REACHABILITY, goal=pinned_one, avoid=pinned_zero
        )
    else:
        working_objective = query.objective

    trackers: list[MecTracker] = []
    if enable_deflation:
        decomposition = mec_decompose(work)
        trackers = [MecTracker(mec, working_objective) for mec in decomposition.mecs]

    start = mapping[model.initial]
    done = False
    sweeps = 0
    while sweeps < max_sweeps and not done:
        sweeps += 1
        for s in work.states():
            if bounds.ub[s] - bounds.lb[s] > epsilon:
                state_update(work, bounds, s)
        if enable_deflation:
            for tracker in trackers:
                if not tracker.settled(bounds, epsilon):
                    tracker.process(work, bounds)
        if instrument is not None:
            instrument(sweeps, work, bounds)
        done = converged(bounds, start, epsilon)

    return query.orient(SolveResult(
        value=midpoint(bounds, start),
        lower=bounds.lb[start],
        upper=bounds.ub[start],
        precision=epsilon,
        mode="ce",
        objective=objective.kind.value,
        iterations=sweeps,
        states_explored=model.num_states,
        converged=done,
        bounds=bounds,
        state_map=tuple(mapping),
        stats={"working_states": work.num_states},
    ))
