"""Explicit-format parsing, serialization and the round-trip property."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_game, relabelled
from sgsolve import generators
from sgsolve.explicit import ExplicitSyntaxError, parse, serialize
from sgsolve.model import Distribution

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


@pytest.mark.parametrize("name", ["has space", "1abc"])
def test_serialize_rejects_a_label_name_parse_rejects(name):
    model, _ = generators.fig1_right()
    with pytest.raises(ValueError, match="label name"):
        serialize(model, {name: frozenset({0})})


@pytest.mark.parametrize("state", [99, -1])
def test_serialize_rejects_a_label_state_the_model_lacks(state):
    model, _ = generators.fig1_right()
    assert model.num_states == 4
    with pytest.raises(ValueError, match="lacks"):
        serialize(model, {"goal": frozenset({0, state})})


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
        # A line with several bad tokens reports the first one.
        *(
            ("sg-explicit 1\nstates 2\ninitial 0\nstate 0 MAX reward=0\n" + line + "\n",
             "line 5, column 1: " + message)
            for line, message in [
                ("action -> 0:abc x:0.5", "expected probability, got 'abc'"),
                ("action -> 0:0.5 x:abc 1", "expected target state, got 'x'"),
                ("action -> 0:0.5 1 x:abc", "expected target:prob, got '1'"),
                ("action -> 1:0.5 0:-1 7:0.5", "probability must be positive and finite, got -1.0"),
                ("action -> 1:0.5 7:0.5 0:-1", "target state 7 out of range"),
                ("state x BOTH reward=nan", "expected state id, got 'x'"),
                ("state 0 BOTH reward=nan", "state 0 declared twice"),
                ("state 1 BOTH reward=nan", "unknown owner 'BOTH', expected MAX or MIN"),
                ("state 1 MIN cost=oops", "expected reward=<value>"),
                ("state 1 MIN reward=oops", "expected reward, got 'oops'"),
                ("state 1 MIN reward=-inf", "reward must be finite, got -inf"),
            ]
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


def exact(model, labels):
    """Everything ``parse`` builds, with every float as ``float.hex``."""
    return (
        model.owners,
        [r.hex() for r in model.rewards],
        model.initial,
        [[[(t, p.hex()) for t, p in d.support] for d in dists] for dists in model.actions],
        labels,
    )


ONE_STATE = "sg-explicit 1\nstates 2\ninitial 0\nstate 0 MAX reward=0\n"


@pytest.mark.parametrize(
    "entries",
    ["1:0.25 0:0.5 1:0.25", "1:0.5 0:0.5", "0:0.5 0:0.5", "0:0.125 1:0.375 1:0.5"],
)
def test_unsorted_and_duplicate_targets_merge_as_distribution_of_does(entries):
    model, _ = parse(ONE_STATE + f"action -> {entries}\nstate 1 MIN reward=0\naction -> 1:1.0\n")
    pairs = [(int(t), float(p)) for t, p in (token.split(":") for token in entries.split())]
    support = Distribution.of(pairs).support
    assert [(t, p.hex()) for t, p in model.distribution(0, 0).support] == [
        (t, p.hex()) for t, p in support
    ]
    assert [t for t, _ in support] == sorted({t for t, _ in pairs})


# The families and tiny sizes of the benchmark's workloads.
WORKLOAD_GAMES = [
    ("dicerace", {"target": 6}),
    ("treemulsec", {"n": 3}),
    ("treebigmec", {"n": 3}),
    ("fig2chain", {"k": 3}),
]


@pytest.mark.parametrize("seed", [1, 7, 11])
@pytest.mark.parametrize("family, params", WORKLOAD_GAMES, ids=[f for f, _ in WORKLOAD_GAMES])
def test_round_trip_is_bit_exact_on_relabelled_workload_games(family, params, seed):
    model, labels = relabelled(*generators.generate(family, **params), seed)
    assert exact(*parse(serialize(model, labels))) == exact(model, labels)


def test_a_distribution_sum_error_reports_the_last_line():
    text = ONE_STATE + "action -> 1:0.5\nstate 1 MIN reward=0\naction -> 1:1.0\n"
    text += "label g = {1}\n\n# the end\n"
    with pytest.raises(ExplicitSyntaxError) as info:
        parse(text)
    assert info.value.line == 10
    assert str(info.value) == "line 10, column 1: distribution of state 0, action 0 sums to 0.5"
