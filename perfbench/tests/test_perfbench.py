"""The benchmark's own checks, on the tiny instances of every workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("ce-dice", "ce-trees", "pe-ec")
EPSILON = 1e-6


def bench(root: Path, *args: str) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--scale", "tiny", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, done.stdout


def declared(group: str) -> dict[str, str]:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in benchmark[group]}


def test_smoke_prints_every_metric_with_its_unit():
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        code, out = bench(ROOT, "--seed", "3", "--seconds", "0.3", "--trace", trace)
        assert code == 0, out
        result = json.loads(out.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        units = declared(group)
        assert set(result["metrics"]) == {f"{w}.{m}" for w in WORKLOADS for m in units}
        for key, metric in result["metrics"].items():
            assert metric["unit"] == units[key.split(".", 1)[1]]
        lines = [line.split() for line in out.splitlines()[:-1]]
        for name, unit in [*units.items(), ("failed_frac", "ratio")]:
            printed = [fields for fields in lines if fields and fields[0] == name]
            assert len(printed) == len(WORKLOADS), name
            assert all(fields[2] == unit for fields in printed), name


def test_shifted_reference_fails_every_solve(tmp_path):
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    references = tmp_path / "perfbench" / "references.json"
    shifted = {
        name: dict(ref, lower=ref["lower"] + 10 * EPSILON, upper=ref["upper"] + 10 * EPSILON)
        for name, ref in json.loads(references.read_text()).items()
    }
    references.write_text(json.dumps(shifted))
    code, out = bench(tmp_path, "--seed", "3", "--seconds", "0.1", "--trace", "0")
    assert code != 0
    result = json.loads(out.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    fractions = [line.split()[1] for line in out.splitlines() if line.split()[:1] == ["failed_frac"]]
    assert fractions == ["1.0"] * len(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ce-dice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_traced_counts_repeat_for_a_seed():
    runs = []
    for _ in range(2):
        code, out = bench(ROOT, "--seed", "5", "--seconds", "0.3", "--trace", "1")
        assert code == 0, out
        runs.append(json.loads(out.splitlines()[-1])["metrics"])
    names = [n for n in declared("per_layer") if n.endswith(".calls")] + ["ce.sweeps", "pe.paths"]
    counts = [f"{w}.{n}" for w in WORKLOADS for n in names]
    assert {k: runs[0][k] for k in counts} == {k: runs[1][k] for k in counts}
    assert all(runs[0][f"{w}.{n}"]["value"] > 0 for w, n in
               (("ce-dice", "ce.sweeps"), ("ce-trees", "ce.sweeps"), ("pe-ec", "pe.paths")))
