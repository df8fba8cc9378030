"""The host-speed yardstick: a fixed reference pass and the speed factor.

FROZEN: never edit this file after the PR that added it.  Every timing
the benchmark reports is divided by how slow the host ran this pass
right around the measurement, so changing the pass (or ``CALIB_REF_S``)
silently rescales every number ever recorded.

Why it exists: on the shared 2-core sizing host the same code swings
between speeds ~1.5x apart (a busy hyper-thread sibling), for
milliseconds or for minutes, and raw wall-clock medians of identical
runs disagree by 8-30 %.  Short reference passes interleaved with the
measured work (one before a block, one after each eighth of it) sample
those swings; dividing by their mean removes most of them.

What the pass does: the serving path is Python bytecode, JSON and
loopback socket calls, so one iteration is one reply-sized JSON round
trip, one small table-driven walk (dict probes, a stack, int packing)
and one send/recv over a socket pair, all on the calling thread.
Candidates that were tried and tracked the swings worse: a pure
arithmetic loop, a memory-walk loop (least sensitive of all), and a
pass that hands each walk to a worker thread (cross-CPU wake-ups slow
down up to 5x when the host is busy, far more than the program does).
The pass imports nothing from the program under test.

``pin_to_one_cpu`` belongs to the same yardstick: the process and its
threads run on one CPU, because those cross-CPU wake-ups were the
largest single source of run-to-run disagreement and a GIL-bound
process gains nothing from a second CPU.
"""

from __future__ import annotations

import gc
import json
import os
import socket
import time

#: Seconds one reference pass takes at *reference host speed* — the
#: sizing host's usual (slower) speed, recorded once when the benchmark
#: was sized.  ``speed factor = measured pass / CALIB_REF_S``: 1.0 means
#: "as fast as the reference", 1.2 means the host is running 20 % slow.
CALIB_REF_S = 0.0125

#: Iterations per pass (sized so a pass is ~12.5 ms at reference speed).
PASS_ITERATIONS = 220

_REPLY = {
    "ok": True,
    "tenant": "inst-0",
    "query": "patient[record/diagnosis/text() = 'heart disease']",
    "view": "research-0",
    "algorithm": "opthype",
    "document": "0" * 64,
    "count": 100,
    "ids": list(range(17, 3017, 30)),
    "wave": {"size": 1, "lanes": 1, "visited": 4211, "saved": 0},
    "id": "c123",
}

_LABELS = 24
_CFGS = 97
_TRANS = {
    (cfg, label): ((cfg * 7 + label * 13) % _CFGS) << 2 | ((cfg + label) & 3)
    for cfg in range(_CFGS)
    for label in range(_LABELS)
    if (cfg + 2 * label) % 5
}
_KIDS = [(i * 11) % _LABELS for i in range(256)]


def _walk(start: int) -> int:
    """A small table-driven descent: dict probes, a stack, int packing."""
    trans = _TRANS
    kids = _KIDS
    cfg = start % _CFGS
    stack: list[int] = []
    acc = 0
    for step in range(160):
        word = trans.get((cfg, kids[(start + step) & 255]), 5)
        cfg = (word >> 2) % _CFGS
        if word & 1:
            stack.append(cfg)
        elif stack and word & 2:
            acc += stack.pop()
    return acc + len(stack)


_WIRE = (json.dumps(_REPLY) + "\n").encode()


def pin_to_one_cpu() -> int | None:
    """Confine this process to the last CPU it may run on; returns it
    (``None`` where affinity cannot be set)."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class Calibrator:
    """Owns the socket pair the reference pass talks over."""

    def __init__(self) -> None:
        self._near, self._far = socket.socketpair()
        self.passes = 0

    def close(self) -> None:
        self._near.close()
        self._far.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def measure(self, passes: int = 1) -> float:
        """Run ``passes`` reference passes back to back; return the mean
        wall-clock seconds of one."""
        send, recv = self._near.sendall, self._far.recv
        dumps, loads = json.dumps, json.loads
        acc = 0
        # The pass allocates; a collection it triggered would cost in
        # proportion to the *program's* heap, which is not host speed.
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            for i in range(passes * PASS_ITERATIONS):
                acc += loads(dumps(_REPLY))["count"]
                acc += _walk(i)
                send(_WIRE)
                acc += len(recv(4096))
            elapsed = time.perf_counter() - started
        finally:
            if collecting:
                gc.enable()
        self.passes += passes
        return elapsed / passes


def speed_factor(passes) -> float:
    """Host slowness over the given passes (mean pass / reference)."""
    return (sum(passes) / len(passes)) / CALIB_REF_S


