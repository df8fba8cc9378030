"""Does the benchmark repeat?  Two interleaved sets of runs, same code.

    python3 benchmarks/e2e/repeat.py [--sets 2] [--runs 10] [--workloads a,b]

Runs the whole benchmark ``--sets`` times over, interleaved in time (run
1 of every set, then run 2 of every set, ...) so all sets see the same
host drift, every run on its own seed.  Per workload x end-to-end
metric it prints each set's median and quartile spread (IQR / median,
``statistics.quantiles(n=4)``), how much worse the later set's median is
than the first's, the metric's bound from ``BENCHMARK.json`` and a
verdict:

    FAIL   a spread (``setup_s`` excepted) or the disagreement exceeds the bound
    tight  a spread exceeds a third of the bound, or the disagreement half of it
    ok     otherwise

Exits non-zero on any FAIL.  A ``tight`` row is to be fixed in the
measurement (block size, warm-up), not by widening its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]


def _run(workload: str, seed: int, seconds: float | None) -> tuple[dict, float]:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", "0",
    ]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=REPO, capture_output=True, text=True)
    wall = time.perf_counter() - started
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1]), wall


def _spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--out", default=None, help="write every run's result here (JSON)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")

    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    values: dict = {}  # (workload, metric) -> per-set lists
    walls: list[float] = []
    records = []
    for run in range(args.runs):
        for group in range(args.sets):
            seed = args.seed_base + group * args.runs + run
            for name in names:
                result, wall = _run(name, seed, args.seconds)
                walls.append(wall)
                records.append(
                    {"set": group, "run": run, "seed": seed, "workload": name,
                     "wall_s": wall, **result}
                )
                for metric, entry in result["metrics"].items():
                    values.setdefault(
                        (name, metric), [[] for _ in range(args.sets)]
                    )[group].append(entry["value"])
                print(
                    f"run {run + 1}/{args.runs} set {group + 1} {name:<17} "
                    f"seed {seed}  {wall:5.1f} s",
                    flush=True,
                )
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1))

    failures = 0
    header = (
        f"{'workload':<17} {'metric':<17} "
        + " ".join(f"{f'median {g + 1}':>11} {f'spread {g + 1}':>9}" for g in range(args.sets))
        + f" {'worse by':>9} {'bound':>6}  verdict"
    )
    print("\n" + header)
    for name in names:
        for entry in declared["end_to_end"]:
            metric, bound = entry["name"], entry["bound"]
            sets = values[(name, metric)]
            medians = [statistics.median(s) for s in sets]
            spreads = [_spread(s) for s in sets]
            sign = 1.0 if entry["better"] == "lower" else -1.0
            worse = max(
                (sign * (later - medians[0]) / medians[0] for later in medians[1:]),
                default=0.0,
            )
            gated_spread = 0.0 if metric == "setup_s" else max(spreads)
            if gated_spread > bound or worse > bound:
                verdict = "FAIL"
                failures += 1
            elif max(spreads) > bound / 3 or worse > bound / 2:
                verdict = "tight"
            else:
                verdict = "ok"
            print(
                f"{name:<17} {metric:<17} "
                + " ".join(f"{m:>11.5g} {s:>9.2%}" for m, s in zip(medians, spreads))
                + f" {worse:>+9.2%} {bound:>6.0%}  {verdict}"
            )
    budget = 4 + 22 * len(declared["workloads"])
    print(
        f"\n{len(walls)} runs, mean {statistics.mean(walls):.1f} s, "
        f"max {max(walls):.1f} s; the driver's {budget} runs at this mean "
        f"take {budget * statistics.mean(walls):.0f} s of its 3420 s"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
