"""The wave floor of ``benchmarks/bench_hot.py``.

A width-8 wave (one ``BatchEvaluator.run``) is timed against the same
eight plans run one after another, under every lean pass the process
has; ``wave_floor_failures`` gates the width-8 rows only.  The timings
themselves are not asserted here (they depend on the host): these tests
pin the rows' shape, the answers-and-stats check the benchmark makes
before timing, and which rows the floor reads.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

from repro.hype.api import ALGORITHMS
from repro.workloads import HospitalConfig, generate_hospital_document

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_hot.py"


@pytest.fixture(scope="module")
def bench_hot():
    """``benchmarks/bench_hot.py`` as a module (it is a script, not part
    of a package)."""
    spec = importlib.util.spec_from_file_location("bench_hot", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(bench_hot, ratio: float, width: int) -> dict:
    entry = {"wave_ratio": ratio}
    return {
        algorithm: [{"width": width, **dict.fromkeys(bench_hot.PASSES, entry)}]
        for algorithm in ALGORITHMS
    }


def test_wave_rows_cover_every_algorithm_width_and_pass(bench_hot):
    tree = generate_hospital_document(HospitalConfig(num_patients=4, seed=3))
    wave = bench_hot.bench_wave_scaling(tree, repeats=1)
    assert set(wave) == set(ALGORITHMS)
    for rows in wave.values():
        assert [row["width"] for row in rows] == list(bench_hot.WAVE_WIDTHS)
        for row in rows:
            for name in bench_hot.PASSES:
                timed = row[name]
                assert timed["wave_s"] > 0 and timed["lanes_s"] > 0
                assert math.isclose(
                    timed["wave_ratio"], timed["lanes_s"] / timed["wave_s"]
                )


def test_a_width_8_wave_under_the_floor_fails_naming_its_pass(bench_hot):
    below = _rows(bench_hot, bench_hot.WAVE_FLOOR * 0.9, bench_hot.WAVE_FLOOR_WIDTH)
    failures = bench_hot.wave_floor_failures(below)
    assert len(failures) == len(ALGORITHMS) * len(bench_hot.PASSES)
    for algorithm in ALGORITHMS:
        for name in bench_hot.PASSES:
            assert any(f"({algorithm}, {name} pass)" in f for f in failures)
    at_floor = _rows(bench_hot, bench_hot.WAVE_FLOOR, bench_hot.WAVE_FLOOR_WIDTH)
    assert bench_hot.wave_floor_failures(at_floor) == []


@pytest.mark.parametrize("width", [1, 2, 4, 16])
def test_other_widths_are_not_gated(bench_hot, width):
    assert width != bench_hot.WAVE_FLOOR_WIDTH
    assert bench_hot.wave_floor_failures(_rows(bench_hot, 0.01, width)) == []
