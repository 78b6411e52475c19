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

Blank lines and ``#`` comments are ignored.  ``parse`` of ``serialize``
is the identity on (model, labels); floats are written with ``repr`` so
the round trip is bit-exact.
"""

from __future__ import annotations

import math
import re
from typing import Optional, TextIO

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


class _Lines:
    def __init__(self, text: str):
        self.raw = text.splitlines()
        self.pos = 0

    def next(self) -> Optional[tuple[int, str]]:
        while self.pos < len(self.raw):
            number = self.pos + 1
            line = self.raw[self.pos]
            self.pos += 1
            stripped = line.split("#", 1)[0].strip()
            if stripped:
                return number, stripped
        return None


def _fail(line: int, message: str, column: int = 1):
    raise ExplicitSyntaxError(line, column, message)


def _expect_int(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        _fail(line, f"expected {what}, got {token!r}")


def _expect_float(token: str, line: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        _fail(line, f"expected {what}, got {token!r}")


def parse(text: str) -> tuple[GameModel, dict[str, frozenset[int]]]:
    lines = _Lines(text)

    item = lines.next()
    if item is None:
        _fail(1, "empty document")
    number, header = item
    parts = header.split()
    if len(parts) != 2 or parts[0] != FORMAT_NAME:
        _fail(number, f"expected header {FORMAT_NAME!r} <version>")
    if _expect_int(parts[1], number, "format version") != FORMAT_VERSION:
        _fail(number, f"unsupported format version {parts[1]}")

    item = lines.next()
    if item is None:
        _fail(number, "missing 'states' declaration")
    number, line = item
    parts = line.split()
    if len(parts) != 2 or parts[0] != "states":
        _fail(number, "expected 'states <count>'")
    num_states = _expect_int(parts[1], number, "state count")
    if num_states < 1:
        _fail(number, "state count must be positive")
    # Every state needs a line of its own, so a larger count cannot be
    # right; rejecting it here keeps the per-state lists below small.
    if num_states > len(lines.raw):
        _fail(number, f"state count {num_states} exceeds the document's {len(lines.raw)} lines")

    item = lines.next()
    if item is None:
        _fail(number, "missing 'initial' declaration")
    number, line = item
    parts = line.split()
    if len(parts) != 2 or parts[0] != "initial":
        _fail(number, "expected 'initial <state>'")
    initial = _expect_int(parts[1], number, "initial state")
    if not 0 <= initial < num_states:
        _fail(number, f"initial state {initial} out of range")

    owners: list[Optional[Player]] = [None] * num_states
    rewards: list[float] = [0.0] * num_states
    action_lists: list[list[Distribution]] = [[] for _ in range(num_states)]
    labels: dict[str, frozenset[int]] = {}
    current: Optional[int] = None

    while True:
        item = lines.next()
        if item is None:
            break
        number, line = item
        parts = line.split()
        keyword = parts[0]
        if keyword == "state":
            if len(parts) != 4:
                _fail(number, "expected 'state <id> <MAX|MIN> reward=<value>'")
            sid = _expect_int(parts[1], number, "state id")
            if not 0 <= sid < num_states:
                _fail(number, f"state id {sid} out of range")
            if owners[sid] is not None:
                _fail(number, f"state {sid} declared twice")
            if parts[2] not in _OWNER_NAMES:
                _fail(number, f"unknown owner {parts[2]!r}, expected MAX or MIN")
            if not parts[3].startswith("reward="):
                _fail(number, "expected reward=<value>")
            owners[sid] = _OWNER_NAMES[parts[2]]
            reward = _expect_float(parts[3][len("reward="):], number, "reward")
            if not math.isfinite(reward):
                _fail(number, f"reward must be finite, got {reward!r}")
            rewards[sid] = reward
            current = sid
        elif keyword == "action":
            if current is None:
                _fail(number, "action before any state declaration")
            if len(parts) < 3 or parts[1] != "->":
                _fail(number, "expected 'action -> target:prob ...'")
            pairs = []
            for token in parts[2:]:
                if ":" not in token:
                    _fail(number, f"expected target:prob, got {token!r}")
                target_text, prob_text = token.split(":", 1)
                target = _expect_int(target_text, number, "target state")
                if not 0 <= target < num_states:
                    _fail(number, f"target state {target} out of range")
                prob = _expect_float(prob_text, number, "probability")
                if not 0.0 < prob < math.inf:
                    _fail(number, f"probability must be positive and finite, got {prob!r}")
                pairs.append((target, prob))
            action_lists[current].append(Distribution.of(pairs))
        elif keyword == "label":
            match = re.match(r"label\s+(\S+)\s*=\s*\{(.*)\}\s*\Z", line)
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
                    sid = _expect_int(token, number, "label state")
                    if not 0 <= sid < num_states:
                        _fail(number, f"label state {sid} out of range")
                    members.add(sid)
            labels[name] = frozenset(members)
        else:
            _fail(number, f"unknown directive {keyword!r}")

    for sid in range(num_states):
        if owners[sid] is None:
            _fail(len(lines.raw) or 1, f"state {sid} never declared")
        if not action_lists[sid]:
            _fail(len(lines.raw) or 1, f"state {sid} has no actions")

    try:
        model = build_game(owners, action_lists, rewards, initial)
    except ModelError as exc:
        _fail(len(lines.raw) or 1, str(exc))
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
