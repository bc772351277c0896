"""Self-test of the benchmark on the bottom rungs of every workload.

    python3 -m pytest -q perfbench

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the traced layers' self times fit inside the traced pass, and that a
blanket tolerance of -1 makes checks fail, so the gate can fail.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--bottom", "--seconds", "0",
         *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    # one result per workload, then the combined one
    assert len(results) == len(WORKLOADS) + 1, proc.stdout + proc.stderr
    return proc, lines, results


def assert_metrics(lines, result, spec_metrics):
    for m in spec_metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   for line in lines), m["name"]


def test_end_to_end_metrics_printed_with_units():
    proc, lines, results = bench("--trace", "0")
    assert proc.returncode == 0, proc.stderr
    for result in results[:-1]:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] > 0
        assert_metrics(lines, result, SPEC["end_to_end"])
    assert sum(line.split()[:1] == ["failed_ratio"] for line in lines) == len(WORKLOADS)


def test_traced_self_times_fit_in_traced_pass():
    proc, lines, results = bench("--trace", "1")
    assert proc.returncode == 0, proc.stderr
    for result in results[:-1]:
        assert_metrics(lines, result, SPEC["per_layer"])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert self_sum <= metrics["trace.sweep_s"]


def test_negative_tolerance_fails_the_gate():
    proc, _, results = bench("--trace", "0", "--tolerance", "-1")
    assert proc.returncode != 0
    for result in results:
        assert not result["correct"]
        assert result["failed"] > 0
