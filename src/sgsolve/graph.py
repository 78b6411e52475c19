"""Qualitative and structural analysis of game graphs.

SCC decomposition, maximal end components, sure attractors and the
value-0 / value-1 sets for reachability.  All algorithms are iterative;
generated models can have paths far deeper than the interpreter stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Container, Iterable, Iterator, Optional, Sequence

from .model import GameModel, Player

ActionFilter = Callable[[int], Iterable[int]]


@dataclass(frozen=True)
class EndComponent:
    """A state set closed under the listed actions and strongly connected
    through them."""

    states: frozenset[int]
    actions: tuple[tuple[int, tuple[int, ...]], ...]  # (state, action indices)

    def action_map(self) -> dict[int, tuple[int, ...]]:
        return dict(self.actions)

    @staticmethod
    def of(states: Iterable[int], actions: dict[int, Sequence[int]]) -> "EndComponent":
        return EndComponent(
            frozenset(states),
            tuple(sorted((s, tuple(sorted(a))) for s, a in actions.items())),
        )


@dataclass(frozen=True)
class MecDecomposition:
    mecs: tuple[EndComponent, ...]


def scc_decompose(
    model: GameModel,
    restrict_to: Optional[Iterable[int]] = None,
    allowed_actions: Optional[ActionFilter] = None,
) -> list[list[int]]:
    """Tarjan's algorithm, iterative.  Returns SCCs in reverse topological
    order (components without outgoing edges first), each sorted."""
    restrict = None if restrict_to is None else frozenset(restrict_to)
    vertices = sorted(restrict) if restrict is not None else list(model.states())
    actions = model.actions

    def successors(v: int) -> Iterator[int]:
        dists = actions[v]
        if allowed_actions is None:
            out = {t for d in dists for t, _ in d.support}
        else:
            out = {t for a in allowed_actions(v) for t, _ in dists[a].support}
        if restrict is not None:
            out &= restrict
        return iter(sorted(out))

    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in vertices:
        if root in index:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        # Each work item is (vertex, iterator over its successors).
        work: list[tuple[int, Iterator[int]]] = [(root, successors(root))]
        while work:
            v, succ = work[-1]
            for w in succ:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, successors(w)))
                    break
                if w in on_stack and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:
                work.pop()
                low = lowlink[v]
                if work:
                    parent = work[-1][0]
                    if low < lowlink[parent]:
                        lowlink[parent] = low
                if low == index[v]:
                    component: list[int] = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        component.append(w)
                        if w == v:
                            break
                    component.sort()
                    sccs.append(component)
    return sccs


def mec_decompose(
    model: GameModel,
    restrict_to: Optional[Iterable[int]] = None,
    allowed_actions: Optional[ActionFilter] = None,
    *,
    strongly_connected: bool = False,
) -> MecDecomposition:
    """Maximal end components by iterative SCC refinement.

    Actions whose support leaves the candidate region are pruned and
    states left without actions are dropped; Tarjan's algorithm splits
    what remains into SCCs, each a candidate of its own, until stable.
    ``restrict_to`` prunes actions leaving the given set rather than
    treating them as errors.

    A candidate known to be strongly connected needs no search of its
    own when pruning keeps an action at each of its states and drops no
    edge between two of them.  Strong connectivity depends only on the
    edges inside the candidate, and every one of them is still there;
    every kept action stays inside the candidate; so the candidate is an
    end component, and since it is the whole SCC it was searched in, it
    is the maximal end component there.  Every SCC that Tarjan's
    algorithm returns is such a candidate.  ``strongly_connected``
    declares that ``restrict_to`` (the whole game when None) is one too,
    through ``allowed_actions``: an SCC the caller has already found.
    """
    if restrict_to is not None:
        base = frozenset(restrict_to)
    else:
        base = frozenset(model.states())

    def initial_actions(state: int) -> tuple[int, ...]:
        if allowed_actions is None:
            return tuple(range(model.num_actions(state)))
        return tuple(allowed_actions(state))

    mecs: list[EndComponent] = []
    # Candidates with whether each is known to be strongly connected.
    worklist: list[tuple[dict[int, tuple[int, ...]], bool]] = [
        ({s: initial_actions(s) for s in sorted(base)}, strongly_connected)
    ]
    while worklist:
        candidate, connected = worklist.pop()
        # Keep only actions fully inside the candidate, and note whether
        # every edge inside survives.
        pruned: dict[int, tuple[int, ...]] = {}
        intact = True
        for s, acts in candidate.items():
            dists = model.actions[s]
            kept = tuple(a for a in acts if all(t in candidate for t, _ in dists[a].support))
            if not kept:
                continue
            pruned[s] = kept
            if intact and len(kept) < len(acts):
                reached = {t for a in kept for t, _ in dists[a].support}
                intact = all(
                    t in reached or t not in candidate for a in acts for t, _ in dists[a].support
                )
        if not pruned:
            continue
        # With every state kept, every kept action stays inside the remainder.
        whole = len(pruned) == len(candidate)
        if connected and intact and whole:
            mecs.append(EndComponent.of(pruned, pruned))
            continue
        components = scc_decompose(
            model, restrict_to=pruned.keys(), allowed_actions=pruned.__getitem__
        )
        if whole and len(components) == 1:
            mecs.append(EndComponent.of(pruned, pruned))
            continue
        worklist.extend(({s: pruned[s] for s in comp}, True) for comp in components)
    mecs.sort(key=lambda ec: min(ec.states))
    return MecDecomposition(tuple(mecs))


def _check_ids(model: GameModel, states: Iterable[int]) -> None:
    for s in states:
        if not 0 <= s < model.num_states:
            raise ValueError(f"unknown state id {s}")


def _predecessors(model: GameModel) -> list[set[int]]:
    """For every state, the states with an action that may move to it."""
    preds: list[set[int]] = [set() for _ in model.states()]
    for s in model.states():
        for d in model.actions[s]:
            for t, _ in d.support:
                preds[t].add(s)
    return preds


def _closure(preds: Sequence[set[int]], seed: Iterable[int], joins: Callable) -> set[int]:
    """Least superset of ``seed`` closed under ``joins(s, inside)``, which must
    be monotone in ``inside`` and read only the successors of ``s``: a state
    is re-checked only when one of its successors has just joined."""
    inside = set(seed)
    frontier = list(inside)
    while frontier:
        for s in preds[frontier.pop()]:
            if s not in inside and joins(s, inside):
                inside.add(s)
                frontier.append(s)
    return inside


def _chooses(
    model: GameModel, state: int, player: Optional[Player], good: Callable, inside: Container[int]
) -> bool:
    """Some action's support is ``good(support, inside)`` if ``player`` owns
    ``state``; else every one."""
    some = model.owners[state] is player
    for d in model.actions[state]:
        if good(d.support, inside) == some:
            return some
    return not some


def _all_in(support, inside: Container[int]) -> bool:
    for t, _ in support:
        if t not in inside:
            return False
    return True


def _any_in(support, inside: Container[int]) -> bool:
    for t, _ in support:
        if t in inside:
            return True
    return False


def attractor(
    model: GameModel,
    target: Iterable[int],
    player: Optional[Player] = None,
) -> frozenset[int]:
    """Backward closure of states that surely reach ``target``.

    With ``player`` set, that player picks actions (one action whose full
    support already lies in the attractor suffices) while the opponent is
    universally quantified; with ``player`` None ("sure" mode) all actions
    of every state must lead into the attractor.  Probabilistic branching
    is treated as universal: the entire support must be inside.  Raises
    ValueError on an empty target and on a state id the model lacks.
    """
    target = set(target)
    if not target:
        raise ValueError("attractor target must be non-empty")
    _check_ids(model, target)

    def sure(s: int, inside: set[int]) -> bool:
        return _chooses(model, s, player, _all_in, inside)

    return frozenset(_closure(_predecessors(model), target, sure))


def qualitative_reach(
    model: GameModel,
    goal: Iterable[int],
    unsafe: Iterable[int] = (),
) -> tuple[frozenset[int], frozenset[int]]:
    """Graph-based value-1 and value-0 sets for Maximizer reachability.

    Returns (value1, value0).  Unsafe states are absorbing misses, whatever
    their actions: they are never in value1, always in value0, and reach
    through them counts for nothing.  Value 0 is one backward closure over
    the whole game.  Value 1 is a nested fixpoint, solved one SCC at a
    time in reverse topological order against the value-1 set already
    settled downstream, so each of its rounds is linear in one component.
    Raises ValueError on a goal or unsafe id the model lacks.
    """
    unsafe = set(unsafe)
    goal = set(goal)
    _check_ids(model, goal | unsafe)
    goal -= unsafe
    preds = _predecessors(model)

    # Value 0 is the complement of positive reach: the goal is hit with
    # positive probability against every Minimizer strategy.
    def positive(s: int, inside: set[int]) -> bool:
        return s not in unsafe and _chooses(model, s, Player.MAXIMIZER, _any_in, inside)

    # Within a component, the outer set shrinks to the region Maximizer
    # never has to leave but for the settled value-1 set, and the inner set
    # grows from the goal through actions that stay in the outer or the
    # settled set and make progress into the inner or the settled set.
    def good(sup, inner: Container[int]) -> bool:
        hit = False
        for t, _ in sup:
            if t in value1:
                hit = True
            elif t not in outer:
                return False
            elif t in inner:
                hit = True
        return hit

    def progress(s: int, inner: Container[int]) -> bool:
        return s in outer and _chooses(model, s, Player.MAXIMIZER, good, inner)

    value1: set[int] = set()
    for component in scc_decompose(model):
        outer = set(component) - unsafe
        while outer:
            # The goal and the states with progress straight into the
            # settled set; the rest join along predecessors.
            seed = [s for s in outer if s in goal or progress(s, ())]
            inner = _closure(preds, seed, progress)
            if inner == outer:
                break
            outer = inner
        value1 |= outer
    value0 = frozenset(model.states()) - frozenset(_closure(preds, goal, positive))
    return frozenset(value1), value0
