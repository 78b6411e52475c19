"""Line-oriented explicit game format.

Example document::

    sg-explicit 1
    states 4
    initial 0
    state 0 MAX reward=0.0
    action -> 1:0.5 2:0.5
    action -> 0:1.0
    state 1 MIN reward=2.0
    action -> 3:1.0
    state 2 MAX reward=0.0
    action -> 2:1.0
    state 3 MAX reward=1.0
    action -> 3:1.0
    label goal = {2, 3}

Blank lines and ``#`` comments are ignored.  The targets of an action may
come in any order, and a target's repeated probabilities are summed.
``parse`` of ``serialize`` is the identity on (model, labels); floats are
written with ``repr`` so the round trip is bit-exact.
"""

from __future__ import annotations

import math
import re
from typing import NoReturn, Optional, TextIO

from .model import Distribution, GameModel, ModelError, Player, build_game

FORMAT_NAME = "sg-explicit"
FORMAT_VERSION = 1

_OWNER_NAMES = {"MAX": Player.MAXIMIZER, "MIN": Player.MINIMIZER}
_OWNER_WORDS = {Player.MAXIMIZER: "MAX", Player.MINIMIZER: "MIN"}

_LABEL_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*\Z")


class ExplicitSyntaxError(Exception):
    """Parse failure, carrying a 1-based line and column."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _fail(line: int, message: str, column: int = 1) -> NoReturn:
    raise ExplicitSyntaxError(line, column, message)


def _expect(kind: type, token: str, line: int, what: str):
    """``kind(token)``, an ``int`` or a ``float``, or a syntax error."""
    try:
        return kind(token)
    except ValueError:
        _fail(line, f"expected {what}, got {token!r}")


def _state_error(parts: list[str], line: int, owners: list[Optional[Player]]) -> NoReturn:
    """Raise the error of the first check that a bad state line fails."""
    if len(parts) != 4:
        _fail(line, "expected 'state <id> <MAX|MIN> reward=<value>'")
    sid = _expect(int, parts[1], line, "state id")
    if not 0 <= sid < len(owners):
        _fail(line, f"state id {sid} out of range")
    if owners[sid] is not None:
        _fail(line, f"state {sid} declared twice")
    if parts[2] not in _OWNER_NAMES:
        _fail(line, f"unknown owner {parts[2]!r}, expected MAX or MIN")
    if not parts[3].startswith("reward="):
        _fail(line, "expected reward=<value>")
    reward = _expect(float, parts[3][len("reward="):], line, "reward")
    _fail(line, f"reward must be finite, got {reward!r}")


def _action_error(parts: list[str], line: int, num_states: int) -> NoReturn:
    """Raise the error of the first bad token of a bad action line."""
    for token in parts[2:]:
        if ":" not in token:
            _fail(line, f"expected target:prob, got {token!r}")
        target_text, prob_text = token.split(":", 1)
        target = _expect(int, target_text, line, "target state")
        if not 0 <= target < num_states:
            _fail(line, f"target state {target} out of range")
        prob = _expect(float, prob_text, line, "probability")
        if not 0.0 < prob < math.inf:
            _fail(line, f"probability must be positive and finite, got {prob!r}")


def parse(text: str) -> tuple[GameModel, dict[str, frozenset[int]]]:
    raw = text.splitlines()
    head: list[tuple[int, list[str]]] = []  # the first three non-blank lines
    for number, line in enumerate(raw, 1):
        parts = line.split("#", 1)[0].split()
        if parts:
            head.append((number, parts))
            if len(head) == 3:
                break

    if not head:
        _fail(1, "empty document")
    number, parts = head[0]
    if len(parts) != 2 or parts[0] != FORMAT_NAME:
        _fail(number, f"expected header {FORMAT_NAME!r} <version>")
    if _expect(int, parts[1], number, "format version") != FORMAT_VERSION:
        _fail(number, f"unsupported format version {parts[1]}")

    if len(head) < 2:
        _fail(number, "missing 'states' declaration")
    number, parts = head[1]
    if len(parts) != 2 or parts[0] != "states":
        _fail(number, "expected 'states <count>'")
    num_states = _expect(int, parts[1], number, "state count")
    if num_states < 1:
        _fail(number, "state count must be positive")
    # Every state needs a line of its own, so a larger count cannot be
    # right; rejecting it here keeps the per-state lists below small.
    if num_states > len(raw):
        _fail(number, f"state count {num_states} exceeds the document's {len(raw)} lines")

    if len(head) < 3:
        _fail(number, "missing 'initial' declaration")
    number, parts = head[2]
    if len(parts) != 2 or parts[0] != "initial":
        _fail(number, "expected 'initial <state>'")
    initial = _expect(int, parts[1], number, "initial state")
    if not 0 <= initial < num_states:
        _fail(number, f"initial state {initial} out of range")

    owners: list[Optional[Player]] = [None] * num_states
    rewards: list[float] = [0.0] * num_states
    action_lists: list[list[Distribution]] = [[] for _ in range(num_states)]
    labels: dict[str, frozenset[int]] = {}
    current: Optional[int] = None

    # Each line is converted in one ``try``; a line that fails any check
    # is scanned again by a helper that raises the first check's error.
    for number, line in enumerate(raw[number:], number + 1):  # after 'initial'
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
        keyword = parts[0]
        if keyword == "action":
            if current is None:
                _fail(number, "action before any state declaration")
            if len(parts) < 3 or parts[1] != "->":
                _fail(number, "expected 'action -> target:prob ...'")
            pairs = []
            ascending = True
            last = -1
            try:
                for token in parts[2:]:
                    target_text, _, prob_text = token.partition(":")
                    target = int(target_text)
                    prob = float(prob_text)
                    if not (0 <= target < num_states and 0.0 < prob < math.inf):
                        raise ValueError
                    if target <= last:
                        ascending = False
                    last = target
                    pairs.append((target, prob))
            except ValueError:
                _action_error(parts, number, num_states)
            # Strictly ascending targets are already the support that
            # ``Distribution.of`` would build; others it merges and sorts.
            action_lists[current].append(
                Distribution(tuple(pairs)) if ascending else Distribution.of(pairs)
            )
        elif keyword == "state":
            try:
                _, sid_text, owner, reward_text = parts
                sid = int(sid_text)
                reward = float(reward_text[len("reward="):])
                if not (0 <= sid < num_states and owners[sid] is None and owner in _OWNER_NAMES
                        and reward_text.startswith("reward=") and -math.inf < reward < math.inf):
                    raise ValueError
            except ValueError:
                _state_error(parts, number, owners)
            owners[sid] = _OWNER_NAMES[owner]
            rewards[sid] = reward
            current = sid
        elif keyword == "label":
            match = re.match(r"label\s+(\S+)\s*=\s*\{(.*)\}\s*\Z", line.strip())
            if match is None:
                _fail(number, "expected 'label <name> = {id, ...}'")
            name = match.group(1)
            if not _LABEL_NAME.match(name):
                _fail(number, f"invalid label name {name!r}")
            if name in labels:
                _fail(number, f"label {name!r} defined twice")
            members: set[int] = set()
            body = match.group(2).strip()
            tokens = [t.strip() for t in body.split(",")] if body else []
            for token in tokens:
                if not token:
                    _fail(number, "empty entry in label set")
                if token in labels:
                    members |= labels[token]
                elif _LABEL_NAME.match(token):
                    _fail(number, f"undefined label reference {token!r}")
                else:
                    sid = _expect(int, token, number, "label state")
                    if not 0 <= sid < num_states:
                        _fail(number, f"label state {sid} out of range")
                    members.add(sid)
            labels[name] = frozenset(members)
        else:
            _fail(number, f"unknown directive {keyword!r}")

    for sid in range(num_states):
        if owners[sid] is None:
            _fail(len(raw) or 1, f"state {sid} never declared")
        if not action_lists[sid]:
            _fail(len(raw) or 1, f"state {sid} has no actions")

    try:
        model = build_game(owners, action_lists, rewards, initial)
    except ModelError as exc:
        _fail(len(raw) or 1, str(exc))
    return model, labels


def serialize(model: GameModel, labels: Optional[dict[str, frozenset[int]]] = None) -> str:
    out = [f"{FORMAT_NAME} {FORMAT_VERSION}"]
    out.append(f"states {model.num_states}")
    out.append(f"initial {model.initial}")
    for s in model.states():
        owner = _OWNER_WORDS[model.owner(s)]
        out.append(f"state {s} {owner} reward={model.rewards[s]!r}")
        for dist in model.actions[s]:
            entries = " ".join(f"{t}:{p!r}" for t, p in dist.support)
            out.append(f"action -> {entries}")
    for name in sorted(labels or {}):
        members = ", ".join(str(s) for s in sorted(labels[name]))
        out.append(f"label {name} = {{{members}}}")
    return "\n".join(out) + "\n"


def load(fp: TextIO) -> tuple[GameModel, dict[str, frozenset[int]]]:
    return parse(fp.read())
