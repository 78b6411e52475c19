"""Recompute ``references.json``: a value interval for every game the
benchmark solves, at every scale.

treemulsec has a closed form (the leaf gadgets' reward means, combined by
the alternating max/min layers of the tree above them) and fig2chain has
the value 2**-k; both get an interval of +-1e-12, the floating-point slack
the acceptance tests allow.  dicerace and treebigmec get the interval of a
complete-exploration solve at epsilon 1e-9 on the unpermuted game,
intersected over the workload's objectives.

Usage, from the root of a checkout: ``python3 perfbench/make_references.py``
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import WORKLOADS, Instance  # noqa: E402

FLOAT_SLACK = 1e-12


def treemulsec_value(n: int) -> float:
    # Leaf j cycles between rewards (3j) % 11 and (3j + 5) % 11; internal
    # layers pair neighbours, Maximizer at the root, owners alternating.
    layer = [((3 * j) % 11 + (3 * j + 5) % 11) / 2.0 for j in range(2 ** n)]
    level = n - 1
    while len(layer) > 1:
        pick = max if level % 2 == 0 else min
        layer = [pick(layer[i], layer[i + 1]) for i in range(0, len(layer), 2)]
        level -= 1
    return layer[0]


def reference(inst: Instance) -> dict:
    from sgsolve import Objective, generate, solve_ce

    params = dict(inst.params)
    if inst.family == "treemulsec":
        value, source = treemulsec_value(params["n"]), "closed form"
    elif inst.family == "fig2chain":
        value, source = 2.0 ** -params["k"], "closed form 2**-k"
    else:
        model, labels = generate(inst.family, **params)
        lower, upper = float("-inf"), float("inf")
        for kind in inst.objectives:
            objective = (
                Objective.reachability(labels["goal"]) if kind == "reach"
                else Objective.mean_payoff(model)
            )
            result = solve_ce(model, objective, 1e-9)
            if not result.converged:
                raise RuntimeError(f"{inst.name}: reference solve did not converge")
            lower, upper = max(lower, result.lower), min(upper, result.upper)
        return {"lower": lower, "upper": upper, "source": "solve_ce at epsilon 1e-9"}
    return {"lower": value - FLOAT_SLACK, "upper": value + FLOAT_SLACK, "source": source}


def main() -> None:
    instances = {
        inst.name: inst
        for scales in WORKLOADS.values()
        for insts in scales.values()
        for inst in insts
    }
    refs = {name: reference(inst) for name, inst in sorted(instances.items())}
    (HERE / "references.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
