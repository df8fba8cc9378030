"""Tier-1 smoke for the end-to-end benchmark (tiny sizes, a few seconds).

Checks the machinery, not the numbers: every name ``BENCHMARK.json``
declares is printed with its declared unit and a finite value, names are
well-formed, and a deliberately wrong reference answer fails the command.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", *args],
        cwd=REPO, capture_output=True, text=True, timeout=120,
    )


def _check_result(done: subprocess.CompletedProcess, declared: list[dict]) -> None:
    assert done.returncode == 0, done.stdout[-1500:] + done.stderr[-1500:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        reported = result["metrics"][entry["name"]]
        assert reported["unit"] == entry["unit"], entry["name"]
        assert math.isfinite(reported["value"]), entry["name"]
        # ... and by name, with its unit, in the human-readable table.
        assert re.search(
            rf"^\s+{re.escape(entry['name'])}\s+\S+\s+{re.escape(entry['unit'])}$",
            done.stdout, re.MULTILINE,
        ), entry["name"]


def test_declared_names_are_well_formed():
    names = [e["name"] for e in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += WORKLOADS
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert DECLARED["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    _check_result(_run("--workload", workload, "--trace", "0"), DECLARED["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    _check_result(_run("--workload", workload, "--trace", "1"), DECLARED["per_layer"])


def test_wrong_reference_answer_fails_the_command():
    done = _run("--workload", "descent_hot", "--corrupt-oracle")
    assert done.returncode != 0
