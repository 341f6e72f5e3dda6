"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs once untraced and once traced on tiny inputs; each must
emit every metric BENCHMARK.json names, with its unit, and fail nothing.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import workloads
from tracer import PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_and_nothing_fails(workload, trace):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], done.stdout
    spec = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec}


def test_spec_matches_the_code():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()
    }
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench(tmp_path, "two-weight-2d", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_nested_calls_count_once_in_self_time():
    sys.path.insert(0, str(ROOT / "src"))
    from wharm import operators
    from wharm.grid import Grid, GridFunction

    grid = Grid(1, 1.0, 16)
    b = GridFunction(grid, grid.axis_coords(0))
    tracer = Tracer()
    with tracer.installed():
        # a commutator apply makes two inner Riesz applies
        operators.apply(operators.commutator(b, operators.riesz("neumann", 1)), b)
    assert operators.apply.__name__ == "apply" and not hasattr(operators.apply, "__wrapped__")
    names = [span[0] for span in tracer.spans]
    assert tracer.calls["operators.apply"] == names.count("operators.apply") >= 3
    root = tracer.spans[0]
    assert root[0] == "pass" and root[3] == -1
    total = sum(tracer.self_s.values())
    assert total == pytest.approx(root[2] - root[1], rel=1e-9)


def test_scaled_pass_takes_each_operations_median():
    seconds = [{"a": 1.0, "b": 4.0}, {"a": 3.0, "b": 2.0}, {"a": 2.0, "b": 9.0}]
    scales = [{"a": 1.0, "b": 1.0}, {"a": 0.5, "b": 2.0}, {"a": 1.0, "b": 1.0}]
    # a: median(1.0, 1.5, 2.0) = 1.5; b: median(4.0, 4.0, 9.0) = 4.0
    assert run.scaled_pass(seconds, scales) == pytest.approx(5.5)


def test_kernel_time_during_an_operation_is_taken_off():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    att = workloads.Attempts()
    att.call("busy", busy, 1.0)
    # about five runs of the kernel, some 4 ms each, fell inside the second
    assert 0.9 < att.seconds["busy"] < 1.0 - 0.005
    assert 0.1 < att.scale["busy"] < 10


def test_compare_tolerance():
    assert workloads.compare({"a": [1.0, True]}, {"a": [1.0 + 1e-7, True]}) is None
    assert workloads.compare({"a": [1.0, True]}, {"a": [1.0 + 1e-5, True]})
    assert workloads.compare({"pass": 1}, {"pass": True})
    assert workloads.compare({"a": 1.0}, {"b": 1.0})
