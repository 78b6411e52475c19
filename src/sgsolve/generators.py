"""Built-in game families.

All generators are deterministic (no randomness) and number their states
bottom-up: leaf gadgets get the smallest ids and the root / initial state
the largest, so that an ascending Gauss-Seidel sweep propagates values
from the leaves towards the root in few passes.

Each generator returns ``(model, labels)`` where ``labels`` maps a name
to a frozen set of state ids, usable as goal/avoid sets.
"""

from __future__ import annotations

from typing import Callable

from .model import Distribution, GameModel, Player, build_game

MAX = Player.MAXIMIZER
MIN = Player.MINIMIZER

Labels = dict[str, frozenset[int]]
Generated = tuple[GameModel, Labels]


class ParameterOutOfRange(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterOutOfRange(message)


class _Builder:
    """Accumulates states; add() returns the fresh id."""

    def __init__(self):
        self.owners: list[Player] = []
        self.actions: list[list[Distribution]] = []
        self.rewards: list[float] = []

    def add(self, owner: Player, reward: float, actions=None) -> int:
        sid = len(self.owners)
        self.owners.append(owner)
        self.rewards.append(reward)
        self.actions.append(list(actions) if actions else [])
        return sid

    def act(self, state: int, dist: Distribution) -> None:
        self.actions[state].append(dist)

    def absorbing(self, owner: Player, reward: float) -> int:
        sid = self.add(owner, reward)
        self.act(sid, Distribution.dirac(sid))
        return sid

    def build(self, initial: int) -> GameModel:
        return build_game(self.owners, self.actions, self.rewards, initial)


def fig1_left() -> Generated:
    """Two-state mean-payoff game: a Maximizer state with reward 4 that can
    loop or move to an absorbing reward-5 state.  The value is 5, but the
    naive upper bound of the looping state starts higher and only deflation
    of the singleton end component brings it down."""
    b = _Builder()
    grey = b.absorbing(MAX, 5.0)
    s = b.add(MAX, 4.0)
    b.act(s, Distribution.dirac(s))
    b.act(s, Distribution.dirac(grey))
    model = b.build(s)
    return model, {"grey": frozenset({grey})}


def fig1_right() -> Generated:
    """Four-state reachability game where Maximizer and Minimizer can pass
    the token back and forth forever.  Plain iteration keeps the upper
    bound of the cycle at 1; its true value is the best Maximizer exit."""
    b = _Builder()
    x_sink = b.absorbing(MAX, 0.0)
    y_sink = b.absorbing(MAX, 1.0)
    s = b.add(MAX, 0.0)
    p = b.add(MIN, 0.0)
    b.act(s, Distribution.dirac(p))
    b.act(s, Distribution.dirac(y_sink))
    b.act(p, Distribution.dirac(x_sink))
    b.act(p, Distribution.dirac(s))
    model = b.build(p)
    return model, {
        "x_region": frozenset({x_sink}),
        "goal": frozenset({y_sink}),
    }


def fig2_chain(k: int = 1) -> Generated:
    """Chain of ``k`` copies of a two-state MDP gadget feeding into a goal
    and a sink.

    Copy ``i`` has states ``s1_i`` (self-loop, or a fair coin onto
    ``s2_i``) and ``s2_i`` (self-loop, or a fair three-way split between
    itself, the next copy, and the sink; the last copy feeds the goal).
    The reach value of the initial state is ``2**-k``.  All states belong
    to Maximizer; with one copy this is the classic example of an end
    component that keeps naive upper bounds at 1.
    """
    _require(k >= 1, "k must be >= 1")
    b = _Builder()
    ids = []
    for _ in range(k):
        s1 = b.add(MAX, 0.0)
        s2 = b.add(MAX, 0.0)
        ids.append((s1, s2))
    goal = b.absorbing(MAX, 0.0)
    sink = b.absorbing(MAX, 0.0)
    for i, (s1, s2) in enumerate(ids):
        b.act(s1, Distribution.dirac(s1))
        b.act(s1, Distribution.of({s1: 0.5, s2: 0.5}))
        nxt = ids[i + 1][0] if i + 1 < k else goal
        b.act(s2, Distribution.dirac(s2))
        b.act(s2, Distribution.of({s2: 1 / 3, nxt: 1 / 3, sink: 1 / 3}))
    model = b.build(ids[0][0])
    return model, {"goal": frozenset({goal}), "sink": frozenset({sink})}


def _tree_internal(b: _Builder, depth: int, entries: list[int]) -> int:
    """Adds the internal binary tree above the given leaf entry points and
    returns the root id.  Layer owners alternate, Maximizer at the root."""
    layer = entries
    level = depth - 1
    while len(layer) > 1:
        owner = MAX if level % 2 == 0 else MIN
        nxt = []
        for i in range(0, len(layer), 2):
            node = b.add(owner, 0.0)
            b.act(node, Distribution.dirac(layer[i]))
            b.act(node, Distribution.dirac(layer[i + 1]))
            nxt.append(node)
        layer = nxt
        level -= 1
    return layer[0]


def _leaf_rewards(j: int) -> tuple[float, float]:
    return float((3 * j) % 11), float((3 * j + 5) % 11)


def tree_mul_mec(n: int = 1) -> Generated:
    """Binary tree of choices over many small mean-payoff cycles.

    Each of the ``2**n`` leaves is a two-state reward cycle with value
    ``(r1 + r2) / 2``; internal layers alternate Maximizer (root) and
    Minimizer.  Exercises staying-value computation on many separate
    maximal end components."""
    _require(n >= 1, "n must be >= 1")
    b = _Builder()
    entries = []
    for j in range(2 ** n):
        r1, r2 = _leaf_rewards(j)
        g1 = b.add(MAX, r1)
        g2 = b.add(MIN, r2)
        b.act(g1, Distribution.dirac(g2))
        b.act(g2, Distribution.dirac(g1))
        entries.append(g1)
    root = _tree_internal(b, n, entries)
    return b.build(root), {}


def tree_mul_sec(n: int = 1) -> Generated:
    """Binary tree over leaf gadgets where both players genuinely choose
    between staying and leaving.

    Each leaf is a two-state cycle (Maximizer state m, Minimizer state n)
    with average reward r; m can exit to an absorbing state worth r - 1
    and n to one worth r + 1, so both players prefer to stay and the leaf
    value is r.  The staying regions only close through deflation and
    inflation of the bound-optimal restrictions."""
    _require(n >= 1, "n must be >= 1")
    b = _Builder()
    entries = []
    for j in range(2 ** n):
        r1, r2 = _leaf_rewards(j)
        mean = (r1 + r2) / 2.0
        exit_m = b.absorbing(MAX, mean - 1.0)
        exit_n = b.absorbing(MAX, mean + 1.0)
        m = b.add(MAX, r1)
        nn = b.add(MIN, r2)
        b.act(m, Distribution.dirac(nn))
        b.act(m, Distribution.dirac(exit_m))
        b.act(nn, Distribution.dirac(m))
        b.act(nn, Distribution.dirac(exit_n))
        entries.append(m)
    root = _tree_internal(b, n, entries)
    return b.build(root), {}


def tree_big_mec(n: int = 1) -> Generated:
    """Binary tree whose leaves feed back to the root, making the entire
    game one large end component containing both players' choices.

    Node ``i`` carries reward ``(5 * i + 3) % 13``; internal layers
    alternate Maximizer (root) and Minimizer, leaves have a single action
    returning to the root."""
    _require(n >= 1, "n must be >= 1")
    b = _Builder()
    leaves = []
    for j in range(2 ** n):
        owner = MAX if j % 2 == 0 else MIN
        leaves.append(b.add(owner, 0.0))
    root = _tree_internal(b, n, leaves)
    for leaf in leaves:
        b.act(leaf, Distribution.dirac(root))
    for i in range(len(b.owners)):
        b.rewards[i] = float((5 * i + 3) % 13)
    return b.build(root), {}


def tree_mul_compl_mec(n: int = 1) -> Generated:
    """Binary tree over single-controller leaf gadgets with an internal
    choice between two reward cycles.

    Each leaf has a Maximizer hub choosing between a two-state and a
    three-state cycle (all other gadget states are choiceless Minimizer
    states); the leaf value is the better cycle average.  The gadgets are
    controlled end components with non-uniform rewards; their values come
    from the staying-value machinery."""
    _require(n >= 1, "n must be >= 1")
    b = _Builder()
    entries = []
    for j in range(2 ** n):
        r0, r1 = _leaf_rewards(j)
        r2 = float((7 * j + 2) % 11)
        r3 = float((7 * j + 6) % 11)
        hub = b.add(MAX, r0)
        c1 = b.add(MIN, r1)
        c2 = b.add(MIN, r2)
        c3 = b.add(MAX, r3)
        b.act(hub, Distribution.dirac(c1))       # two-state cycle
        b.act(hub, Distribution.dirac(c2))       # three-state cycle
        b.act(c1, Distribution.dirac(hub))
        b.act(c2, Distribution.dirac(c3))
        b.act(c3, Distribution.dirac(hub))
        entries.append(hub)
    root = _tree_internal(b, n, entries)
    return b.build(root), {}


def tree_mul_compl_sec(n: int = 1) -> Generated:
    """Binary tree over leaf gadgets mixing internal cycle choice with a
    Minimizer exit threat.

    In each leaf, a Maximizer hub picks one of two cycles through
    Minimizer states; the first cycle's Minimizer state may leave to an
    absorbing state whose reward exceeds every gadget reward, so staying
    is preferred and the leaf value is the better cycle average."""
    _require(n >= 1, "n must be >= 1")
    b = _Builder()
    entries = []
    for j in range(2 ** n):
        r0, r1 = _leaf_rewards(j)
        r2 = float((7 * j + 2) % 11)
        r3 = float((7 * j + 6) % 11)
        escape = b.absorbing(MAX, 12.0)
        hub = b.add(MAX, r0)
        c1 = b.add(MIN, r1)
        c2 = b.add(MIN, r2)
        c3 = b.add(MAX, r3)
        b.act(hub, Distribution.dirac(c1))
        b.act(hub, Distribution.dirac(c2))
        b.act(c1, Distribution.dirac(hub))
        b.act(c1, Distribution.dirac(escape))
        b.act(c2, Distribution.dirac(c3))
        b.act(c3, Distribution.dirac(hub))
        entries.append(hub)
    root = _tree_internal(b, n, entries)
    return b.build(root), {}


def dice_race(target: int = 3) -> Generated:
    """Alternating race to ``target`` points.

    Player A (Maximizer) and player B (Minimizer) take turns; on each turn
    the mover picks a safe die (always +1) or a risky die (uniformly +0,
    +2 or +3).  Whoever reaches ``target`` first wins; A winning is the
    ``goal`` label, B winning the ``lose`` label.  The game has no end
    components besides the two outcomes, so it stresses plain iteration
    and guided simulation rather than deflation."""
    _require(target >= 1, "target must be >= 1")
    b = _Builder()
    index = {}
    for a in range(target):
        for bb in range(target):
            for turn in (0, 1):
                owner = MAX if turn == 0 else MIN
                index[(a, bb, turn)] = b.add(owner, 0.0)
    win = b.absorbing(MAX, 1.0)
    lose = b.absorbing(MAX, 0.0)

    def dest(a: int, bb: int, turn: int) -> int:
        if a >= target:
            return win
        if bb >= target:
            return lose
        return index[(a, bb, turn)]

    for a in range(target):
        for bb in range(target):
            s0 = index[(a, bb, 0)]
            b.act(s0, Distribution.dirac(dest(a + 1, bb, 1)))
            b.act(s0, Distribution.of(
                [(dest(a, bb, 1), 1 / 3), (dest(a + 2, bb, 1), 1 / 3),
                 (dest(a + 3, bb, 1), 1 / 3)]
            ))
            s1 = index[(a, bb, 1)]
            b.act(s1, Distribution.dirac(dest(a, bb + 1, 0)))
            b.act(s1, Distribution.of(
                [(dest(a, bb, 0), 1 / 3), (dest(a, bb + 2, 0), 1 / 3),
                 (dest(a, bb + 3, 0), 1 / 3)]
            ))
    model = b.build(index[(0, 0, 0)])
    return model, {"goal": frozenset({win}), "lose": frozenset({lose})}


GENERATORS: dict[str, tuple[Callable[..., Generated], tuple[str, ...]]] = {
    "fig1left": (fig1_left, ()),
    "fig1right": (fig1_right, ()),
    "fig2chain": (fig2_chain, ("k",)),
    "treemulmec": (tree_mul_mec, ("n",)),
    "treemulsec": (tree_mul_sec, ("n",)),
    "treebigmec": (tree_big_mec, ("n",)),
    "treemulcomplmec": (tree_mul_compl_mec, ("n",)),
    "treemulcomplsec": (tree_mul_compl_sec, ("n",)),
    "dicerace": (dice_race, ("target",)),
}


def generate(name: str, **params: int) -> Generated:
    if name not in GENERATORS:
        raise ParameterOutOfRange(f"unknown generator {name!r}")
    func, expected = GENERATORS[name]
    unknown = set(params) - set(expected)
    if unknown:
        raise ParameterOutOfRange(f"unknown parameter(s) {sorted(unknown)} for {name}")
    return func(**params)
