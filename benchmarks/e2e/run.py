"""End-to-end + per-layer benchmark of the SMOQE serving stack.

    python3 benchmarks/e2e/run.py --workload NAME [--seed S] [--seconds N]
                                  [--trace 0|1] [--trace-out FILE] [--smoke]

One workload per fresh interpreter.  Prints every metric by name with
its unit, checks every answer against the paper's oracle, and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}`` (the
end-to-end metrics of ``BENCHMARK.json``, or with ``--trace 1`` its
per-layer metrics).  Exits non-zero on any wrong answer, failed
operation or violated guard rail.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse
import asyncio
import gc
import json
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]

#: The seed used when ``--seed`` is not given.
DEFAULT_SEED = 20070415

WORKLOAD_NAMES = (
    "descent_hot",
    "wave_skew",
    "request_overhead",
    "plan_churn",
    "doc_churn",
)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="wall-clock seconds to measure for (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: per-layer run (spans around each layer's entry point)",
    )
    parser.add_argument(
        "--trace-out", default=None,
        help="keep the traced run's span file (JSONL) at this path",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs, one set-up: checks the machinery, not the numbers",
    )
    parser.add_argument(
        "--corrupt-oracle", action="store_true",
        help="self-test: shift every reference id so the run must fail",
    )
    return parser.parse_args(argv)


def _declared() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def _bootstrap_program() -> None:
    """Put the program under test (``src/``) on ``sys.path``.

    The benchmark is only meaningful inside a checkout that holds the
    program; anywhere else it must fail without printing a result.
    """
    src = REPO / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"error: {src / 'repro'} not found - run from a checkout that "
            "holds the program under test",
            file=sys.stderr,
        )
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


async def _end_to_end(args, workload, calibrator, import_seconds: float) -> int:
    import harness

    setups = await harness.measure_setup(workload, calibrator)
    timed = await harness.measure_blocks(workload, calibrator, args.seconds)
    await workload.teardown()

    block_median = statistics.median(timed.block_seconds)
    latencies = sorted(timed.latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": import_seconds + statistics.median(setups),
        "throughput_ops_s": timed.ops_per_block / block_median,
        "latency_p50_ms": harness.percentile(latencies, 0.50) * 1e3,
        "latency_p95_ms": harness.percentile(latencies, 0.95) * 1e3,
        "peak_rss_mb": rss_mb,
    }
    declared = _declared()["end_to_end"]
    harness.print_table(
        f"end to end - {workload.name} (operation = {workload.operation}; "
        f"closed loop, 1 connection; timings at reference host speed)",
        [(e["name"], metrics[e["name"]], e["unit"]) for e in declared],
    )
    factors = sorted(timed.factors)
    harness.print_table(
        "diagnostics (not gated)",
        [
            ("blocks.kept", len(timed.block_seconds), "count"),
            ("latency.samples", len(latencies), "count"),
            ("latency.p90_ms", harness.percentile(latencies, 0.90) * 1e3, "ms"),
            ("latency.mean_ms", statistics.mean(latencies) * 1e3, "ms"),
            ("ops.attempted", timed.attempted, "count"),
            ("ops.succeeded", timed.attempted - timed.failed, "count"),
            ("ops.failed", timed.failed, "count"),
            ("failed_share", timed.failed / timed.attempted, "ratio"),
            ("setup.import_s", import_seconds, "s"),
            ("setup.runs", len(setups), "count"),
            ("host.speed_factor_p50", statistics.median(factors), "ratio"),
            ("host.speed_factor_spread", factors[-1] / factors[0] - 1.0, "ratio"),
            ("host.blocks_retried", timed.blocks_retried, "count"),
            (
                "host.raw_throughput_ops_s",
                timed.ops_per_block / statistics.median(timed.raw_seconds),
                "1/s",
            ),
            (
                "host.run_wall_s",
                time.perf_counter() - _PROCESS_STARTED,
                "s",
            ),
        ],
    )
    for problem in timed.problems:
        print(f"GUARD RAIL VIOLATED: {problem}")
    correct = timed.failed == 0 and not timed.problems
    print()
    print(harness.result_line(metrics, declared, correct, timed.attempted, timed.failed))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    _bootstrap_program()
    declared = _declared()
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])
    if args.smoke:
        args.seconds = min(args.seconds, 0.5)

    import harness
    from calib import Calibrator, pin_to_one_cpu, speed_factor

    pin_to_one_cpu()
    with Calibrator() as calibrator:
        before = calibrator.measure(4)
        import_started = time.perf_counter()
        import workloads  # imports the whole program under test

        imported = time.perf_counter() - import_started
        # Interpreter start-up up to here is Python's own; the program's
        # share of "start -> first block" begins with its imports.
        import_seconds = imported / speed_factor((before, calibrator.measure(4)))

        workload = workloads.build(
            args.workload, args.seed, args.smoke, harness.make_work_dir()
        )
        if args.corrupt_oracle:
            for oracle in workload.documents:
                oracle.corrupt()
        # The benchmark's own long-lived heap (inputs, reference trees)
        # must not lengthen the program's garbage collections.
        for oracle in workload.documents:
            oracle.view
        gc.collect()
        gc.freeze()
        if args.trace:
            from layers import traced_run

            return asyncio.run(traced_run(args, workload, calibrator, declared))
        return asyncio.run(_end_to_end(args, workload, calibrator, import_seconds))


if __name__ == "__main__":
    raise SystemExit(main())
