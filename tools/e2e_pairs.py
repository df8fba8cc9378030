"""Alternating parent/change pairs of the end-to-end benchmark.

    python tools/e2e_pairs.py --parent CHECKOUT --workload NAME
                              [--pairs 10] [--seed S] [--smoke]

The measuring protocol of a performance claim (``choosing-metrics``
guide, section 8): run ``benchmarks/e2e/run.py`` once in the parent
checkout and once in this one, ``--pairs`` times over, alternating which
side goes first so both see the same host drift.  Prints every run as it
finishes, then per end-to-end metric of ``BENCHMARK.json`` each side's
median and quartiles, the parent's own spread (IQR), and in how many
pairs the change read better, tied or worse.  The verdict column applies
the rule a claim has to meet: ahead in at least nine tenths of the pairs
(ties count for neither side) and medians apart by more than the
parent's IQR.

Exits non-zero if any run of either side is not ``correct`` or reports
a failed operation.  ``--smoke`` passes the runner's tiny-input mode
through: it checks this script, not the numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
RUNNER = Path("benchmarks") / "e2e" / "run.py"


def run_once(checkout: Path, workload: str, seed: int | None, smoke: bool) -> dict:
    """One run of the benchmark in ``checkout``; its final JSON line."""
    command = [sys.executable, str(RUNNER), "--workload", workload]
    if seed is not None:
        command += ["--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"{checkout}: {workload} printed no result line")
    result["exit"] = done.returncode
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(metric: dict, parent: list[float], change: list[float]) -> str:
    """One table row: medians, quartiles, parent IQR, wins and verdict."""
    lower = metric["better"] == "lower"
    p1, p2, p3 = quartiles(parent)
    c1, c2, c3 = quartiles(change)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    losses = len(parent) - wins - ties
    gain = (p2 - c2) if lower else (c2 - p2)
    iqr = p3 - p1
    if len(parent) < 2:
        verdict = "n/a"  # one pair has no spread to judge against
    elif wins >= 0.9 * len(parent) and gain > iqr:
        verdict = "better"
    elif losses >= 0.9 * len(parent) and -gain > iqr:
        verdict = "WORSE"
    else:
        verdict = "unresolved"
    delta = 100.0 * (c2 - p2) / p2 if p2 else 0.0
    return (
        f"{metric['name']:<18} {p2:>10.3f} [{p1:.3f} {p3:.3f}]"
        f" {c2:>10.3f} [{c1:.3f} {c3:.3f}] {delta:>+7.1f}%"
        f"  iqr {iqr:.3f}  {wins}/{ties}/{losses}  {verdict}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    parent = Path(args.parent).resolve()
    if not (parent / RUNNER).is_file():
        parser.error(f"{parent} holds no {RUNNER}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    declared = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": parent, "change": REPO}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    bad = 0
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, args.seed, args.smoke)
            values = {m["name"]: result["metrics"][m["name"]]["value"] for m in declared}
            runs[side].append(values)
            ok = result.get("correct") and not result.get("failed") and not result["exit"]
            bad += not ok
            print(
                f"pair {pair + 1:>2} {side:<6} {'ok ' if ok else 'BAD'} "
                + " ".join(f"{name}={value:.3f}" for name, value in values.items()),
                flush=True,
            )
    print(
        f"\n{args.workload}: {args.pairs} pair(s), seed "
        f"{'default' if args.seed is None else args.seed}"
        f"{', smoke' if args.smoke else ''}\n"
        f"{'metric':<18} {'parent median [q1 q3]':>26} {'change median [q1 q3]':>26}"
        f" {'delta':>8}  parent-iqr  win/tie/loss  verdict"
    )
    for metric in declared:
        name = metric["name"]
        print(
            summarise(
                metric,
                [run[name] for run in runs["parent"]],
                [run[name] for run in runs["change"]],
            )
        )
    if bad:
        print(f"{bad} run(s) not correct or with failed operations", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
