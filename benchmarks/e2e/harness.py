"""The measurement protocol: calibrated set-up and calibrated blocks.

Timed phase: blocks run back to back until ``--seconds`` is used up.  A
block is one pass over the workload's fixed operation list, executed in
``SLICES`` equal slices; a short reference pass (:mod:`calib`) runs
before the block and after every slice, so the host's speed is sampled
nine times across each block and not only at its ends (a busy
hyper-thread sibling comes and goes within milliseconds).  The block's
speed factor is the mean of its passes over the reference; its
wall-clock time is divided by that factor, and each latency sample by
the factor of its own slice.  Every reported timing is therefore "at
reference host speed"; the raw values are printed as ``host.*``.
``gc.collect()`` precedes each block; GC otherwise stays on.  A block
during which the passes swung by more than ``MAX_SWING`` is discarded
(no single factor describes it) and counted in ``host.blocks_retried``.

Set-up is measured the same way, ``workload.setups`` times over (build,
warm-up blocks, tear down), and the median is reported: set-up is a
single sub-two-second interval, and one such interval does not repeat.
"""

from __future__ import annotations

import atexit
import gc
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from calib import Calibrator, speed_factor

REPO = Path(__file__).resolve().parents[2]

#: Fewest kept blocks a run may report on.
MIN_BLOCKS = 4

#: Slices per block (reference passes: one more).
SLICES = 8

#: Discard a block whose slowest reference pass took this many times its
#: fastest.
MAX_SWING = 2.0

#: Give up extending a run (host too unsteady to keep blocks) after this
#: many times the requested measuring time.
MAX_OVERRUN = 2.5


@dataclass
class Timed:
    """Everything the timed phase measured."""

    ops_per_block: int
    #: Adjusted seconds per kept block.
    block_seconds: list[float] = field(default_factory=list)
    #: Raw wall-clock seconds per kept block.
    raw_seconds: list[float] = field(default_factory=list)
    #: Speed factor per kept block.
    factors: list[float] = field(default_factory=list)
    #: Adjusted per-sample latencies pooled over kept blocks (seconds).
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    blocks_retried: int = 0
    problems: list[str] = field(default_factory=list)


def percentile(sorted_values: list[float], share: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    if not sorted_values:
        return math.nan
    position = share * (len(sorted_values) - 1)
    low = math.floor(position)
    high = min(low + 1, len(sorted_values) - 1)
    weight = position - low
    return sorted_values[low] * (1 - weight) + sorted_values[high] * weight


def make_work_dir() -> Path:
    """This run's scratch directory inside the checkout, removed at exit."""
    root = REPO / ".bench_e2e_work" / f"run-{os.getpid()}"
    if not root.is_dir():
        root.mkdir(parents=True)
        atexit.register(shutil.rmtree, root, ignore_errors=True)
    return root


def print_table(title: str, rows: list[tuple[str, float, str]]) -> None:
    print(f"\n{title}")
    width = max(len(name) for name, _value, _unit in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")


def result_line(
    metrics: dict, declared: list[dict], correct: bool, attempted: int, failed: int
) -> str:
    """The machine-read last line: exactly the declared metrics."""
    out = {}
    for entry in declared:
        value = metrics[entry["name"]]
        if not math.isfinite(value):
            raise RuntimeError(f"metric {entry['name']} is not finite: {value}")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": out,
        }
    )


def slices(ops: list) -> list[list]:
    """``ops`` cut into ``SLICES`` near-equal runs (fewer if it is short)."""
    count = min(SLICES, len(ops))
    return [
        ops[len(ops) * i // count : len(ops) * (i + 1) // count]
        for i in range(count)
    ]


async def measure_setup(workload, calibrator: Calibrator) -> list[float]:
    """Adjusted seconds of each full set-up; the last one stays up."""
    seconds = []
    for attempt in range(workload.setups):
        if attempt:
            await workload.teardown()
        gc.collect()
        passes = [calibrator.measure(4)]
        started = time.perf_counter()
        await workload.setup()
        wall = time.perf_counter() - started
        passes.append(calibrator.measure(4))
        for _ in range(workload.warmup_blocks):
            started = time.perf_counter()
            ops = workload.prepare()
            block = await workload.block(ops)
            problems = workload.finish(ops)
            wall += time.perf_counter() - started
            passes.append(calibrator.measure(4))
            if workload.check(block) or problems:
                raise RuntimeError(
                    f"warm-up block failed its checks: {problems or 'wrong answers'}"
                )
        seconds.append(wall / speed_factor(passes))
    return seconds


async def measure_blocks(workload, calibrator: Calibrator, seconds: float) -> Timed:
    """The timed phase: calibrated blocks for ``seconds`` of wall clock."""
    timed = Timed(workload.ops_per_block)
    counters_before = workload.counters()
    phase_started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - phase_started
        kept = len(timed.block_seconds)
        if elapsed >= seconds and kept >= MIN_BLOCKS:
            break
        if elapsed >= MAX_OVERRUN * seconds:
            if not kept:
                raise RuntimeError(
                    f"host too unsteady: no block kept in {elapsed:.0f} s"
                )
            timed.problems.append(
                f"host too unsteady: only {kept} block(s) kept in {elapsed:.0f} s"
            )
            break
        ops = workload.prepare()
        gc.collect()
        passes = [calibrator.measure()]
        walls = []
        blocks = []
        for part in slices(ops):
            started = time.perf_counter()
            blocks.append(await workload.block(part))
            walls.append(time.perf_counter() - started)
            passes.append(calibrator.measure())
        # Untimed from here: answers against the oracle, per-block rails.
        timed.attempted += workload.ops_per_block
        timed.failed += sum(workload.check(block) for block in blocks)
        timed.problems += workload.finish(ops)
        if max(passes) > MAX_SWING * min(passes):
            timed.blocks_retried += 1
            continue
        factor = speed_factor(passes)
        timed.block_seconds.append(sum(walls) / factor)
        timed.raw_seconds.append(sum(walls))
        timed.factors.append(factor)
        for block, before, after in zip(blocks, passes, passes[1:]):
            local = speed_factor((before, after))
            timed.latencies += [sample / local for sample in block.latencies]
    timed.problems += workload.guard_rails(counters_before, workload.counters())
    return timed
