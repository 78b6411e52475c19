"""Command-line interface: JSON output and exit codes."""

import json

import pytest

from conftest import chain_model
from sgsolve.cli import run
from sgsolve.explicit import serialize


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_generator_mean_payoff_ce(capsys):
    code, doc = run_json(
        capsys,
        ["--generate", "fig1left", "--objective", "mean-payoff", "--mode", "ce"],
    )
    assert code == 0
    assert doc["mode"] == "ce"
    assert doc["objective"] == "mean-payoff"
    assert doc["value"] == pytest.approx(5.0, abs=1e-6)
    assert doc["lower"] <= doc["value"] <= doc["upper"]
    assert doc["upper"] - doc["lower"] < 2 * doc["precision"]
    assert doc["seed"] is None


def test_generator_reach_pe(capsys):
    code, doc = run_json(
        capsys,
        [
            "--generate", "fig2chain", "--param", "k=2",
            "--objective", "reach", "--goal", "goal",
            "--mode", "pe", "--seed", "11",
        ],
    )
    assert code == 0
    assert doc["mode"] == "pe"
    assert doc["seed"] == 11
    assert doc["value"] == pytest.approx(0.25, abs=1e-6)


def test_goal_as_state_ids(capsys):
    code, doc = run_json(
        capsys,
        [
            "--generate", "fig1right",
            "--objective", "reach", "--goal", "1",
            "--mode", "ce",
        ],
    )
    assert code == 0
    assert doc["value"] == pytest.approx(0.0, abs=1e-6)


def test_safety_objective(capsys):
    code, doc = run_json(
        capsys,
        [
            "--generate", "fig1right",
            "--objective", "safety", "--unsafe", "x_region",
            "--mode", "ce",
        ],
    )
    assert code == 0
    assert doc["objective"] == "safety"
    # Minimizer (trying to reach the unsafe region after dualization)
    # moves to it immediately.
    assert doc["value"] == pytest.approx(0.0, abs=1e-6)


def test_model_file(tmp_path, capsys):
    path = tmp_path / "chain.sg"
    path.write_text(serialize(chain_model(), {"goal": frozenset({2})}))
    code, doc = run_json(
        capsys,
        ["--model", str(path), "--objective", "reach", "--goal", "goal"],
    )
    assert code == 0
    assert doc["value"] == pytest.approx(1.0, abs=1e-6)


def test_non_finite_reward_is_input_error(tmp_path, capsys):
    path = tmp_path / "inf.sg"
    path.write_text(
        "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX reward=inf\n"
        "action -> 0:1.0\n"
    )
    code = run(["--model", str(path), "--objective", "mean-payoff", "--mode", "ce",
                "--max-iterations", "10"])
    assert code == 1
    assert "reward must be finite" in capsys.readouterr().err


def test_huge_state_count_is_input_error(tmp_path, capsys):
    path = tmp_path / "huge.sg"
    path.write_text("sg-explicit 1\nstates 9223372036854775808\ninitial 0\n")
    code = run(["--model", str(path), "--goal", "goal"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2") and "Traceback" not in err


def test_unreadable_label_id_is_input_error(tmp_path, capsys):
    path = tmp_path / "label.sg"
    path.write_text(
        "sg-explicit 1\nstates 1\ninitial 0\nstate 0 MAX reward=0\n"
        "action -> 0:1.0\nlabel goal = {\u00b2}\n",
        encoding="utf-8",
    )
    code = run(["--model", str(path), "--goal", "goal"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 6") and "Traceback" not in err


def test_nan_precision_is_usage_error(capsys):
    code = run(["--generate", "fig2chain", "--param", "k=2", "--goal", "goal",
                "--mode", "ce", "--precision", "nan", "--max-iterations", "10"])
    assert code == 1
    assert "epsilon must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["ce", "pe"])
def test_infinite_precision_is_usage_error(capsys, mode):
    """An infinite epsilon would make every interval "converged"."""
    code = run(["--generate", "fig2chain", "--param", "k=2", "--goal", "goal",
                "--mode", mode, "--precision", "inf"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "epsilon must be positive and finite" in captured.err


def test_missing_file_is_usage_error(capsys):
    code = run(["--model", "/nonexistent.sg", "--objective", "mean-payoff"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_generator_parameter(capsys):
    code = run(["--generate", "fig2chain", "--param", "k=zero",
                "--objective", "mean-payoff"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_repeated_generator_parameter(capsys):
    code = run(["--generate", "treemulsec", "--param", "n=3", "--param", "n=4",
                "--objective", "mean-payoff"])
    assert code == 1
    assert "parameter 'n' is given more than once" in capsys.readouterr().err


def test_generator_parameter_without_value(capsys):
    code = run(["--generate", "treemulsec", "--param", "n", "--objective", "mean-payoff"])
    assert code == 1
    assert "expected name=value, got 'n'" in capsys.readouterr().err


def test_unknown_label(capsys):
    code = run(["--generate", "fig1left", "--objective", "reach",
                "--goal", "nosuchlabel"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["ce", "pe"])
def test_unknown_state_id(capsys, mode):
    code = run(["--generate", "fig2chain", "--param", "k=2",
                "--objective", "reach", "--goal", "99", "--mode", mode])
    assert code == 1
    assert "unknown state 99" in capsys.readouterr().err


def usage_error_code(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        run(argv)
    assert capsys.readouterr().err
    return exited.value.code


def test_reach_requires_goal(capsys):
    assert usage_error_code(capsys, ["--generate", "fig1left", "--objective", "reach"]) == 1


def test_safety_requires_unsafe(capsys):
    assert usage_error_code(capsys, ["--generate", "fig1left", "--objective", "safety"]) == 1


def test_unparsable_precision_is_usage_error(capsys):
    argv = ["--generate", "fig1left", "--objective", "mean-payoff", "--precision", "abc"]
    assert usage_error_code(capsys, argv) == 1


def test_missing_source_is_usage_error(capsys):
    assert usage_error_code(capsys, ["--objective", "mean-payoff"]) == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exited:
        run(["--help"])
    assert exited.value.code == 0
    assert "usage: sgsolve" in capsys.readouterr().out


def test_budget_exhaustion_exit_code(capsys):
    code, doc = run_json(
        capsys,
        [
            "--generate", "fig2chain", "--param", "k=3",
            "--objective", "reach", "--goal", "goal",
            "--mode", "ce", "--max-iterations", "1",
        ],
    )
    assert code == 2
    assert doc["lower"] <= 0.125 <= doc["upper"]


@pytest.mark.parametrize("mode", ["ce", "pe"])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_is_usage_error(capsys, mode, budget):
    code = run(["--generate", "fig2chain", "--param", "k=3", "--goal", "goal",
                "--mode", mode, "--max-iterations", budget])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least 1" in captured.err


def test_json_schema(capsys):
    _, doc = run_json(
        capsys,
        ["--generate", "fig1left", "--objective", "mean-payoff", "--mode", "ce"],
    )
    assert set(doc) == {
        "value", "lower", "upper", "precision", "mode", "objective",
        "states_explored", "iterations", "time_ms", "seed",
    }
