"""The benchmark runs in the test suite, so it cannot stop working
unnoticed: its self-check, one short round of each workload and a traced
round of the checked ones, whose output checks also guard the
verification pass and the log checkers end to end."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_bench(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "bench.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def test_bench_self_check_passes():
    proc = run_bench("--self-check")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "self-check: ok"


def test_bench_round_reports_correct():
    assert_round_correct("compare-zipf")


@pytest.mark.parametrize("workload", ["verify-zipf", "scan-file"])
def test_bench_checked_round_reports_correct(workload):
    assert_round_correct(workload)


@pytest.mark.parametrize("workload", ["verify-zipf", "scan-file"])
def test_bench_traced_round_reports_correct(workload):
    # the traced round runs run_lockstep and the three log checkers, and
    # counts any finding of theirs as a failure
    assert_round_correct(workload, trace=True)


def assert_round_correct(workload, trace=False):
    proc = run_bench("--workload", workload, "--seconds", "1", "--trace", str(int(trace)))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout + proc.stderr
    assert result["attempted"] >= 1
    assert result["failed"] == 0
