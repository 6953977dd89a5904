"""The benchmark's own test: a cut-down run of every workload.

Run from the repository root (it is not part of the tier-1 suite)::

    python3 -m pytest -q benchmarks/test_benchmark.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
with open(os.path.join(HERE, "layers.json")) as fh:
    LAYER_MAP = json.load(fh)["layers"]


def bench(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(m) for m in tracing.LAYER_METRICS]
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    mapped = set()
    for layer in LAYER_MAP:
        assert set(layer["metrics"]) <= per_layer
        assert set(layer["should_move"]) <= end_to_end
        assert set(layer["heavy_on"] + layer["light_on"]) <= set(WORKLOADS)
        mapped |= set(layer["metrics"])
    assert mapped == per_layer


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_cut_down_run(workload):
    untraced = result_of(bench(workload, 0))
    assert units(untraced) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    first, second = (result_of(bench(workload, 1)) for _ in range(2))
    layer_units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units(first) == units(second) == layer_units
    counts = [n for n, u in layer_units.items() if u in tracing.COUNT_UNITS]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts}

    for result in (first, second):
        m = {n: v["value"] for n, v in result["metrics"].items()}
        assert sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) <= m["trace.run_s"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns(".work", ".state", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("pde1-sweep", 0, cwd=tmp_path, script=str(tmp_path / "benchmarks" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
