"""sgsolve benchmark: certified solves of fixed games, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ce-dice --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

A workload is a list of generated games and the solves to run on each, at
epsilon 1e-6 (the workload list is ``WORKLOADS``; why each was chosen is
in ``BENCHMARK.json``).  The seed permutes the state ids of every game at
random, because the generators number states bottom-up, which lets
Gauss-Seidel finish the trees in two sweeps where a user's model gets no
such help; it is also the partial-exploration seed.  This process
generates the games and serializes them to the explicit format; a
separate single-threaded worker process (``worker.py``) receives only that
text and runs passes in a closed loop for ``--seconds`` seconds.  A pass
parses every text, builds the objectives and solves each once.

Every solve is checked: it fails if it raises, runs out of budget,
returns an interval of width 2*epsilon or more, or an interval disjoint
from the reference in ``references.json`` (made by ``make_references.py``;
relabelling states does not change a value, so one reference per game
serves every seed).

With ``--trace 0`` the end-to-end metrics are printed: ``solve_s`` (median
over passes of the summed solver wall time), ``setup_s`` (median over
passes of parse plus objective construction) and ``peak_rss_mb`` (peak RSS
of the worker).  ``failed_frac`` is printed on its own line; it is 0 when
the code is correct, and the ``failed`` and ``attempted`` fields of the
result carry it.  With ``--trace 1`` passes alternate untraced and traced
(``tracing.py`` wraps sgsolve's layer functions) and the per-layer metrics
are printed, each a median over traced passes of a per-pass total.
Metric names, units and directions are those of ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every solve passed its check.  Per-pass figures, failures and
run metadata go to ``.perfbench/<workload>-trace<0|1>.json``; traced runs
also write every span to ``.perfbench/<workload>.spans.json.gz``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
EPSILON = 1e-6
# Every run, with its set-up, must end within 180 seconds.
DEADLINE_S = 170.0


class Instance(NamedTuple):
    family: str
    params: tuple[tuple[str, int], ...]
    mode: str  # "ce" or "pe"
    objectives: tuple[str, ...]  # "reach" (label goal) or "mean-payoff"

    @property
    def name(self) -> str:
        return " ".join([self.family] + [f"{k}={v}" for k, v in self.params])


CE, PE = "ce", "pe"
REACH, MP = "reach", "mean-payoff"

# Per workload, the full size and a tiny one for the benchmark's own tests.
WORKLOADS: dict[str, dict[str, tuple[Instance, ...]]] = {
    "ce-dice": {
        "full": (Instance("dicerace", (("target", 45),), CE, (REACH, MP)),),
        "tiny": (Instance("dicerace", (("target", 6),), CE, (REACH, MP)),),
    },
    "ce-trees": {
        "full": (
            Instance("treemulsec", (("n", 11),), CE, (MP,)),
            Instance("treebigmec", (("n", 9),), CE, (MP,)),
        ),
        "tiny": (
            Instance("treemulsec", (("n", 3),), CE, (MP,)),
            Instance("treebigmec", (("n", 3),), CE, (MP,)),
        ),
    },
    "pe-ec": {
        "full": (
            Instance("treemulsec", (("n", 7),), PE, (MP,)),
            Instance("fig2chain", (("k", 10),), PE, (REACH,)),
        ),
        "tiny": (
            Instance("treemulsec", (("n", 3),), PE, (MP,)),
            Instance("fig2chain", (("k", 3),), PE, (REACH,)),
        ),
    },
}


def permuted(model, labels, rng: random.Random):
    """The same game with its state ids shuffled."""
    from sgsolve.model import Distribution, build_game

    n = model.num_states
    new_id = list(range(n))
    rng.shuffle(new_id)
    old_id = [0] * n
    for old, new in enumerate(new_id):
        old_id[new] = old
    actions = [
        [Distribution.of((new_id[t], p) for t, p in d.support) for d in model.actions[old]]
        for old in old_id
    ]
    game = build_game(
        [model.owners[old] for old in old_id],
        actions,
        [model.rewards[old] for old in old_id],
        new_id[model.initial],
    )
    return game, {name: frozenset(new_id[s] for s in states) for name, states in labels.items()}


def make_job(workload: str, scale: str, seed: int, seconds: float, trace: bool) -> dict:
    from sgsolve import explicit, generators

    references = json.loads((HERE / "references.json").read_text())
    rng = random.Random(seed)
    models = []
    for inst in WORKLOADS[workload][scale]:
        model, labels = generators.generate(inst.family, **dict(inst.params))
        model, labels = permuted(model, labels, rng)
        reference = references[inst.name]
        models.append({
            "name": inst.name,
            "text": explicit.serialize(model, labels),
            "solves": [
                {"mode": inst.mode, "objective": o, "seed": seed,
                 "reference": [reference["lower"], reference["upper"]]}
                for o in inst.objectives
            ],
        })
    return {
        "epsilon": EPSILON,
        "seconds": seconds,
        "trace": trace,
        "spans_path": str(OUT / f"{workload}.spans.json.gz"),
        "models": models,
    }


def run_worker(job: dict, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, env=env,
        timeout=timeout, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout)


def _span(name: str, field: str) -> Callable[[dict], float]:
    return lambda p: p["layers"].get(name, {}).get(field, 0)


def _count(key: str) -> Callable[[dict], float]:
    return lambda p: p["counts"].get(key, 0)


def _ratio(num: Callable[[dict], float], den: Callable[[dict], float]) -> Callable[[dict], float]:
    return lambda p: num(p) / den(p) if den(p) else 0.0


# Per traced pass; ``trace.overhead`` compares traced and untraced passes.
PER_LAYER: dict[str, Callable[[dict], float]] = {
    "explicit.parse.s": _span("explicit.parse", "s"),
    "explicit.parse.bytes": lambda p: p["bytes"],
    **{
        f"{span}.{field}": _span(span, field)
        for span in (
            "model.build_game", "model.collapse", "graph.qualitative_reach",
            "graph.mec_decompose", "graph.scc_decompose", "bounds.state_update",
            "bounds.optimal_actions", "ecsolve.process", "ecsolve.sec_candidates",
            "ecsolve.staying_bounds", "pe.sample_path", "pe.refresh",
        )
        for field in ("calls", "s")
    },
    "graph.mec_decompose.mecs": _count("graph.mec_decompose.mecs"),
    "ecsolve.process.self_s": _span("ecsolve.process", "self_s"),
    "ecsolve.deflate.calls": _span("ecsolve.deflate", "calls"),
    "ecsolve.deflate.changed_ratio": _ratio(
        _count("ecsolve.deflate.changed"), _span("ecsolve.deflate", "calls")),
    "ecsolve.inflate.calls": _span("ecsolve.inflate", "calls"),
    "ecsolve.inflate.changed_ratio": _ratio(
        _count("ecsolve.inflate.changed"), _span("ecsolve.inflate", "calls")),
    "ecsolve.split_candidates.calls": _span("ecsolve.split_candidates", "calls"),
    "ce.solve.s": _span("ce.solve", "s"),
    "ce.self_s": _span("ce.solve", "self_s"),
    "ce.sweeps": _count("ce.iterations"),
    "ce.working_states": _count("ce.working_states"),
    "pe.solve.s": _span("pe.solve", "s"),
    "pe.self_s": _span("pe.solve", "self_s"),
    "pe.paths": _count("pe.iterations"),
    "pe.states_explored": _count("pe.states_explored"),
    "pe.sample_path.steps": _count("pe.sample_path.steps"),
    "pe.sample_path.looped": _count("pe.sample_path.looped"),
    "pe.useful_path_ratio": _ratio(_count("pe.useful_paths"), _count("pe.iterations")),
}


def metrics_of(report: dict, trace: bool) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, number of samples it summarizes)."""
    untraced = [p for p in report["passes"] if not p["traced"]]
    if not trace:
        return {
            "solve_s": (statistics.median([p["solve_s"] for p in untraced]), len(untraced)),
            "setup_s": (statistics.median([p["setup_s"] for p in untraced]), len(untraced)),
            "peak_rss_mb": (report["peak_rss_kb"] / 1024.0, 1),
        }
    traced = [p for p in report["passes"] if p["traced"]]
    out = {name: (statistics.median([get(p) for p in traced]), len(traced)) for name, get in PER_LAYER.items()}
    overhead = statistics.median([p["solve_s"] for p in traced]) / statistics.median([p["solve_s"] for p in untraced]) - 1.0
    out["trace.overhead"] = (overhead, len(traced) + len(untraced))
    return out


def _git_sha() -> str | None:
    """HEAD of the checkout's own git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(seed: int, scale: str) -> dict:
    versions = {}
    for package in ("numpy", "scipy", "networkx"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "epsilon": EPSILON,
        "seed": seed,
        "scale": scale,
        "src_lines": sum(
            len(path.read_text().splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))
        ),
    }


def run_workload(workload: str, args, declared: dict[str, dict], deadline: float) -> dict:
    job = make_job(workload, args.scale, args.seed, args.seconds, bool(args.trace))
    report = run_worker(job, timeout=max(1.0, deadline - time.monotonic()))
    metrics = metrics_of(report, bool(args.trace))
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(declared)}")
    attempted, failed = report["attempted"], len(report["failures"])
    print(f"{workload}: {attempted} solves, scale {args.scale}, seed {args.seed}")
    for name, entry in declared.items():
        value, samples = metrics[name]
        print(f"  {name:32s} {value!r} {entry['unit']}  (n={samples})")
    print(f"  {'failed_frac':32s} {failed / attempted!r} ratio  ({failed} of {attempted})")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    for name in report.get("absent", []):
        print(f"  absent: {name} (its metrics read 0)")
    meta = metadata(args.seed, args.scale)
    print(f"  meta {json.dumps(meta)}")
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload,
        "meta": meta,
        "metrics": {k: {"value": v, "samples": n} for k, (v, n) in metrics.items()},
        **report,
    }
    (OUT / f"{workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    if not (ROOT / "src" / "sgsolve" / "__init__.py").is_file():
        print(f"no sgsolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in benchmark[group]}

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        results[workload] = run_workload(
            workload, args, declared, started + DEADLINE_S * (len(results) + 1)
        )

    def key(workload: str, name: str) -> str:
        return name if args.workload != "all" else f"{workload}.{name}"

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key(w, name): {"value": r["metrics"][name][0], "unit": declared[name]["unit"]}
            for w, r in results.items()
            for name in declared
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
