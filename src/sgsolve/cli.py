"""Command-line interface.

Reads a game from an explicit-format file or a built-in generator, solves
it with the chosen strategy, and prints a single JSON object with the
value, the certified bounds and run statistics.

Exit codes: 0 on success (``--help`` included), 1 on usage/input errors
(a flag the objective or source would ignore among them), 2 when the
iteration budget was exhausted before convergence (bounds are still
printed and valid).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from . import explicit, generators
from .ce import solve_ce
from .model import ModelError
from .objectives import LabelMismatch, Objective
from .pe import solve_pe


def _parse_params(pairs: list[str]) -> dict[str, int]:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"expected name=value, got {pair!r}")
        name, value = pair.split("=", 1)
        name = name.strip()
        if name in params:
            raise ValueError(f"parameter {name!r} is given more than once")
        try:
            params[name] = int(value)
        except ValueError:
            raise ValueError(f"parameter {name!r} must be an integer, got {value!r}")
    return params


def _resolve_label(labels: dict[str, frozenset[int]], text: str) -> frozenset[int]:
    """A label argument is either a label name from the model or a comma
    separated list of state ids."""
    if text in labels:
        return labels[text]
    try:
        return frozenset(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise LabelMismatch(f"unknown label {text!r}")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, the code of an exhausted budget.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sgsolve",
        description="Certified interval-iteration solver for stochastic games.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", metavar="FILE", help="explicit-format game file")
    source.add_argument(
        "--generate", metavar="FAMILY",
        help=f"built-in family: {', '.join(sorted(generators.GENERATORS))}",
    )
    parser.add_argument(
        "--param", action="append", default=[], metavar="NAME=VALUE",
        help="generator parameter (repeatable)",
    )
    parser.add_argument(
        "--objective", choices=["reach", "safety", "mean-payoff"],
        default="reach",
    )
    parser.add_argument("--goal", help="goal label name or comma-separated state ids")
    parser.add_argument("--avoid", help="states to avoid while reaching the goal")
    parser.add_argument("--unsafe", help="unsafe states for the safety objective")
    parser.add_argument("--mode", choices=["ce", "pe"], default="pe")
    parser.add_argument("--precision", type=float, default=1e-6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--max-iterations", type=int, default=None,
        help="round (ce) or path (pe) budget",
    )
    return parser


def run(argv: Optional[list[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    reads = {"reach": ("goal", "avoid"), "safety": ("unsafe",)}.get(args.objective, ())
    for flag in ("goal", "avoid", "unsafe"):
        if getattr(args, flag) is not None and flag not in reads:
            parser.error(f"--{flag} does not apply to --objective {args.objective}")
    if args.model is not None and args.param:
        parser.error("--param applies to --generate only")
    try:
        if args.model is not None:
            with open(args.model) as fp:
                model, labels = explicit.load(fp)
        else:
            params = _parse_params(args.param)
            model, labels = generators.generate(args.generate, **params)

        if args.objective == "reach":
            if args.goal is None:
                parser.error("--objective reach requires --goal")
            goal = _resolve_label(labels, args.goal)
            avoid = _resolve_label(labels, args.avoid) if args.avoid else frozenset()
            objective = Objective.reachability(goal, avoid)
        elif args.objective == "safety":
            if args.unsafe is None:
                parser.error("--objective safety requires --unsafe")
            objective = Objective.safety(_resolve_label(labels, args.unsafe))
        else:
            objective = Objective.mean_payoff(model)

        start = time.perf_counter()
        if args.mode == "ce":
            kwargs = {}
            if args.max_iterations is not None:
                kwargs["max_sweeps"] = args.max_iterations
            result = solve_ce(model, objective, args.precision, **kwargs)
        else:
            kwargs = {}
            if args.max_iterations is not None:
                kwargs["max_paths"] = args.max_iterations
            result = solve_pe(model, objective, args.precision, seed=args.seed, **kwargs)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
    except (OSError, ValueError, ModelError, LabelMismatch,
            explicit.ExplicitSyntaxError, generators.ParameterOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    seed = args.seed if args.mode == "pe" else None
    json.dump(result.to_json_dict(elapsed_ms, seed), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if result.converged else 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
