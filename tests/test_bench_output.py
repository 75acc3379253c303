"""The benchmark's result line: in both trace modes, a short `wide` run ends
with strict JSON that holds every metric BENCHMARK.json names for that mode.
A program change that drops a metric (for example by changing what a traced
function returns) fails here before it fails a benchmark run."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _reject(constant):
    raise ValueError(f"{constant} is not strict JSON")


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_wide_run_reports_every_declared_metric(trace, section):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide", "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True
    assert result["failed"] == 0
    missing = [m["name"] for m in BENCHMARK[section] if m["name"] not in result["metrics"]]
    assert missing == []
