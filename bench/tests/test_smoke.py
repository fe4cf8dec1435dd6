"""Toy-size smoke test of the benchmark itself.

Run from the root of the repository:

    python -m pytest -q bench/tests

It checks that every metric declared in BENCHMARK.json is printed, by name
and with its unit, on every workload in both modes, and that a planted
wrong output is counted as failed.  Timings are not checked here.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run_cli(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, result = _run_cli(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.startswith(f"{metric['name']} ") and line.endswith(f" {metric['unit']}")
                   for line in lines[:-1])


@pytest.mark.parametrize("workload,label,wrong", [
    ("products", "x*", lambda out: out + out.pres.gen(out.pres.n)),
    ("steenrod", "", lambda out: out + out.pres.unit()),
    ("pieces", "basis", lambda out: out + [((), 99)]),
    ("cli", "cli present", lambda out: (out[0], out[1] + "x", out[2])),
])
def test_corrupted_output_counts_as_failed(workload, label, wrong):
    def corrupt(built):
        op = next(op for op in built.ops if op.label.startswith(label))
        for attr in ("run", "inproc"):
            original = getattr(op, attr)
            if original is not None:
                setattr(op, attr, lambda original=original: wrong(original()))

    result = run.run(workload, 3, 0.2, trace=False, toy=True, corrupt=corrupt)
    assert result["failed"] >= 1 and result["correct"] is False


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "products", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or not proc.stdout.strip().splitlines()[-1].startswith("{")
