"""Explicit-format parsing, serialization and the round-trip property."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_game
from sgsolve.explicit import ExplicitSyntaxError, parse, serialize

DOC = """\
# a small example
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
label also_goal = {goal}
"""


def test_parse_example_document():
    model, labels = parse(DOC)
    assert model.num_states == 4
    assert model.initial == 0
    assert model.rewards[1] == 2.0
    assert model.num_actions(0) == 2
    assert model.distribution(0, 0).support == ((1, 0.5), (2, 0.5))
    assert labels["goal"] == frozenset({2, 3})
    assert labels["also_goal"] == frozenset({2, 3})


def test_serialize_parse_round_trip_on_example():
    model, labels = parse(DOC)
    again, labels2 = parse(serialize(model, labels))
    assert again == model
    assert labels2 == labels


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_is_identity_on_random_games(seed):
    import random

    model = random_game(random.Random(seed))
    labels = {"goal": frozenset({0}), "rest": frozenset(range(1, model.num_states))}
    again, labels2 = parse(serialize(model, labels))
    assert again == model
    assert labels2 == labels


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty document"),
        ("wrong 1\n", "expected header"),
        ("sg-explicit 2\n", "unsupported format version"),
        ("sg-explicit 1\ninitial 0\n", "expected 'states"),
        ("sg-explicit 1\nstates 0\n", "state count must be positive"),
        ("sg-explicit 1\nstates 1\nstates 1\n", "expected 'initial"),
        ("sg-explicit 1\nstates 1\ninitial 4\n", "out of range"),
        (
            "sg-explicit 1\nstates 1\ninitial 0\naction -> 0:1.0\n",
            "action before any state",
        ),
        (
            "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX reward=0\n"
            "action -> 0:0.0\n",
            "probability must be positive",
        ),
        (
            "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX reward=0\n"
            "action -> 0:nan\n",
            "probability must be positive and finite",
        ),
        (
            "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX reward=0\n"
            "action -> 0:inf\n",
            "probability must be positive and finite",
        ),
        (
            "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX reward=nan\n",
            "reward must be finite",
        ),
        (
            "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX reward=inf\n",
            "reward must be finite",
        ),
        (
            "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX reward=0\n"
            "action -> 5:1.0\n",
            "target state 5 out of range",
        ),
        (
            "sg-explicit 1\nstates 1\ninitial 0\nstate 0 BOTH reward=0\n",
            "unknown owner",
        ),
        (
            "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX reward=0\n"
            "action -> 0:1.0\nlabel g = {missing}\n",
            "undefined label reference",
        ),
        (
            "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX reward=0\n"
            "action -> 0:1.0\nfrobnicate\n",
            "unknown directive",
        ),
        (
            "sg-explicit 1\nstates 2\ninitial 0\nstate 0 MAX reward=0\n"
            "action -> 0:1.0\n",
            "state 1 never declared",
        ),
        (
            "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX reward=0\n"
            "state 0 MAX reward=0\n",
            "declared twice",
        ),
        (
            "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX reward=0\n"
            "action -> 0:0.5\n",
            "sums to",
        ),
        # The fragments below give the line, as the message starts with it.
        ("sg-explicit 1\nstates abc\n", "line 2, column 1: expected state count, got 'abc'"),
        ("sg-explicit 1\n", "line 1, column 1: missing 'states' declaration"),
        ("sg-explicit 1\nstates 1\n", "line 2, column 1: missing 'initial' declaration"),
        (
            "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX\n",
            "line 4, column 1: expected 'state <id> <MAX|MIN> reward=<value>'",
        ),
        (
            "sg-explicit 1\nstates 1\ninitial 0\nstate 9 MAX reward=0\n",
            "line 4, column 1: state id 9 out of range",
        ),
        (
            "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX 0\n",
            "line 4, column 1: expected reward=<value>",
        ),
        (
            "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX reward=0\naction 0:1\n",
            "line 5, column 1: expected 'action -> target:prob ...'",
        ),
        (
            "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX reward=0\naction -> 0\n",
            "line 5, column 1: expected target:prob, got '0'",
        ),
        (
            "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX reward=0\n"
            "action -> 0:1.0\nlabel g 0\n",
            "line 6, column 1: expected 'label <name> = {id, ...}'",
        ),
        (
            "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX reward=0\n"
            "action -> 0:1.0\nlabel 1x = {0}\n",
            "line 6, column 1: invalid label name '1x'",
        ),
        (
            "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX reward=0\n"
            "action -> 0:1.0\nlabel g = {0}\nlabel g = {}\n",
            "line 7, column 1: label 'g' defined twice",
        ),
        (
            "sg-explicit 1\nstates 2\ninitial 0\nstate 0 MAX reward=0\n"
            "action -> 0:1.0\nlabel g = {0,,1}\n",
            "line 6, column 1: empty entry in label set",
        ),
        (
            "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX reward=0\n"
            "action -> 0:1.0\nlabel g = {1}\n",
            "line 6, column 1: label state 1 out of range",
        ),
        # A label id is an integer the way a target id is; a digit that
        # int() does not read is a syntax error at its line.
        (
            "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX reward=0\n"
            "action -> 0:1.0\nlabel g = {\u00b2}\n",
            "line 6, column 1: expected label state, got '\u00b2'",
        ),
        (
            "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX reward=0\n"
            "action -> 0:1.0\nlabel g = {\u2460}\n",
            "line 6, column 1: expected label state, got '\u2460'",
        ),
        (
            "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX reward=0\n"
            "action -> 0:1.0\nlabel g = {--1}\n",
            "line 6, column 1: expected label state, got '--1'",
        ),
        # A count above the line count is rejected before anything is
        # allocated for it, also one beyond a machine word.
        (
            "sg-explicit 1\nstates 5\ninitial 0\nstate 0 MAX reward=0\n",
            "line 2, column 1: state count 5 exceeds the document's 4 lines",
        ),
        (
            "sg-explicit 1\nstates 9223372036854775808\ninitial 0\n",
            "line 2, column 1: state count 9223372036854775808 exceeds",
        ),
        # Errors found after the last line report the last line.
        (
            "sg-explicit 1\nstates 2\ninitial 0\nstate 0 MAX reward=0\n"
            "action -> 0:1.0\nstate 1 MIN reward=0\n",
            "line 6, column 1: state 1 has no actions",
        ),
    ],
)
def test_syntax_errors(text, fragment):
    with pytest.raises(ExplicitSyntaxError) as info:
        parse(text)
    assert fragment in str(info.value)


def test_error_carries_line_number():
    text = "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX reward=oops\n"
    with pytest.raises(ExplicitSyntaxError) as info:
        parse(text)
    assert info.value.line == 4


def test_comments_and_blank_lines_ignored():
    text = "\n# leading comment\nsg-explicit 1  # trailing\n\nstates 1\ninitial 0\n"
    text += "state 0 MIN reward=1.5\naction -> 0:1.0\n"
    model, labels = parse(text)
    assert model.num_states == 1
    assert labels == {}
