"""The measured process of the benchmark.

Reads one job as JSON on standard input: explicit-format model texts, the
solves to run on each, reference intervals, the precision, the time to
measure and whether to trace.  Runs passes until the time is up (a pass
parses every text, builds its objectives and runs every solve once),
checks every returned interval and prints one JSON object with the
per-pass timings, the failures and the peak RSS.  It imports nothing but
the standard library and sgsolve, so its RSS is that of parsing and
solving.

With tracing, passes alternate untraced and traced, so that both see the
same machine conditions and the tracing overhead can be measured.
"""

from __future__ import annotations

import gc
import inspect
import json
import resource
import sys
import time
import traceback

from sgsolve import ce, explicit, pe
from sgsolve.objectives import Objective

from tracing import Tracer


def _objective(kind: str, model, labels) -> Objective:
    if kind == "reach":
        return Objective.reachability(labels["goal"])
    if kind == "mean-payoff":
        return Objective.mean_payoff(model)
    raise ValueError(f"unknown objective {kind!r}")


def _verdict(result, reference: list[float], epsilon: float) -> str | None:
    """Why a returned interval is not an accepted certificate, or None."""
    lo, hi = reference
    if not result.converged:
        return "budget exhausted"
    if result.upper - result.lower >= 2.0 * epsilon:
        return f"interval [{result.lower!r}, {result.upper!r}] wider than 2*epsilon"
    if result.upper < lo or result.lower > hi:
        return (
            f"interval [{result.lower!r}, {result.upper!r}] excludes the "
            f"reference [{lo!r}, {hi!r}]"
        )
    return None


class _GapTrace:
    """Partial-exploration hook: counts the paths after which the gap at
    the initial state shrank."""

    def __init__(self, tracer: Tracer, objective: Objective):
        self.tracer = tracer
        self.gap = objective.value_ceiling() - objective.value_floor()

    def __call__(self, iteration, model, part) -> None:
        gap = part.bounds.ub[model.initial] - part.bounds.lb[model.initial]
        if gap < self.gap:
            self.tracer.add("pe.useful_paths", 1)
        self.gap = gap


def _run_pass(job: dict, tracer: Tracer | None, gap_trace: bool, failures: list[str]) -> dict:
    epsilon = job["epsilon"]
    setup_s = solve_s = 0.0
    parsed = 0
    for item in job["models"]:
        parsed += len(item["text"])
        start = time.perf_counter()
        model, labels = explicit.parse(item["text"])
        objectives = [_objective(s["objective"], model, labels) for s in item["solves"]]
        setup_s += time.perf_counter() - start
        for spec, objective in zip(item["solves"], objectives):
            options = {}
            if spec["mode"] == "pe":
                solver = pe.solve_pe
                options["seed"] = spec["seed"]
                if tracer is not None and gap_trace:
                    options["instrument"] = _GapTrace(tracer, objective)
            else:
                solver = ce.solve_ce
            label = f"{item['name']} {spec['mode']} {spec['objective']}"
            start = time.perf_counter()
            try:
                result = solver(model, objective, epsilon, **options)
            except Exception:  # a failed solve is counted, not fatal
                solve_s += time.perf_counter() - start
                failures.append(f"{label}: raised\n{traceback.format_exc()}")
                continue
            solve_s += time.perf_counter() - start
            problem = _verdict(result, spec["reference"], epsilon)
            if problem is not None:
                failures.append(f"{label}: {problem}")
            if tracer is not None:
                key = "ce" if spec["mode"] == "ce" else "pe"
                tracer.add(f"{key}.iterations", result.iterations)
                tracer.add(f"{key}.states_explored", result.states_explored)
                if "working_states" in result.stats:
                    tracer.add("ce.working_states", result.stats["working_states"])
    return {
        "setup_s": setup_s, "solve_s": solve_s, "bytes": parsed, "traced": tracer is not None,
    }


def main() -> int:
    job = json.load(sys.stdin)
    tracer = None
    gap_trace = "instrument" in inspect.signature(pe.solve_pe).parameters
    if job["trace"]:
        tracer = Tracer()
        tracer.patch_layers()
        if not gap_trace:
            tracer.absent.append("sgsolve.pe.solve_pe(instrument=)")
    failures: list[str] = []
    passes: list[dict] = []
    start = time.perf_counter()
    # An untraced and a traced pass at least when tracing, one pass otherwise.
    minimum = 2 if tracer is not None else 1
    while len(passes) < minimum or time.perf_counter() - start < job["seconds"]:
        gc.collect()
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.pass_id = len(passes)
            tracer.install()
        try:
            passes.append(_run_pass(job, tracer if traced else None, gap_trace, failures))
        finally:
            if traced:
                tracer.uninstall()
    report = {
        "passes": passes,
        "attempted": len(passes) * sum(len(m["solves"]) for m in job["models"]),
        "failures": failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        layers = tracer.layer_times()
        for i, p in enumerate(passes):
            if p["traced"]:
                p["layers"] = layers.get(i, {})
                p["counts"] = dict(tracer.counters.get(i, {}))
        report["absent"] = tracer.absent
        tracer.write(job["spans_path"])
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
