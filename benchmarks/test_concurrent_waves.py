"""Concurrent waves: the pool lets independent waves overlap end to end.

The seed serialised every evaluation behind one global service lock, so a
client (or a one-wave-at-a-time dispatcher) serving two independent waves
paid the full serialised sum: each wave's admission window *plus* its
evaluation, one after the other.  With thread-safe compiled plans and the
bounded :class:`repro.serve.pool.ExecutionPool`, wave B's admission
window, dispatch and evaluation all proceed while wave A is still
evaluating.

What is measured (and what is honest about it on a GIL build):

* ``serialised sum`` — two waves driven through the admission controller
  one at a time (submit wave A, await all its answers, then wave B):
  wall ≈ (window + eval_A) + (window + eval_B).
* ``concurrent`` — wave B's burst arrives while wave A evaluates: wall ≈
  window + eval_A + eval_B.  The saved window is *real* overlap of
  admission/IO with evaluation.  The two evaluations are also genuinely
  in flight at once — asserted via the pool's ``peak_in_flight`` gauge,
  a state unreachable under the seed's global lock — but on a GIL build
  they interleave rather than parallelise, so their CPU time still sums;
  on a free-threaded build the same code parallelises outright.

Protocol: both modes run five times and the minima are compared (the
standard noise-resistant benchmark comparison), with the GC paused over
the measured region; the window is calibrated from the warm wave time so
the test scales across machine speeds.

Answers are checked request-for-request against sequential per-request
``QueryService.submit`` evaluation — identical ids and identical
:class:`repro.hype.core.HyPEStats`.
"""

from __future__ import annotations

import asyncio
import gc
import time

import pytest

from repro.serve.admission import AdmissionConfig, AdmissionController
from repro.serve.service import QueryRequest, QueryService
from repro.views import sigma0
from repro.workloads import (
    FIG8,
    FIG9,
    VIEW_QUERIES,
    HospitalConfig,
    generate_hospital_document,
)
from repro.workloads.scales import scale_factor

#: Ratio the concurrent run must beat (acceptance: < 0.9x serialised sum).
TARGET_RATIO = 0.9

#: Full serial+concurrent comparisons before declaring failure (one noisy
#: scheduling burst must not flake the suite).
ATTEMPTS = 2

#: Runs per mode per attempt; minima are compared.
RUNS = 5

#: Warm wave-A evaluation (seconds) the document is grown to reach, so
#: that evaluation dominates the fixed GIL hand-off slop.
MIN_WAVE_EVAL = 0.25

#: Most the document grows (a multiple of its base patient count) on the
#: way to ``MIN_WAVE_EVAL``; bounds the fixture's memory.
MAX_GROWTH = 2.5

_VIEW_SORTED = sorted(VIEW_QUERIES.values())

#: Two independent waves: disjoint query sets, disjoint tenants.
WAVE_A = [("admin", q) for q in sorted(FIG8.values())] + [
    ("institute", q) for q in _VIEW_SORTED[:3]
]
WAVE_B = [("auditor", q) for q in sorted(FIG9.values())] + [
    ("clinic", q) for q in _VIEW_SORTED[3:7]
]


@pytest.fixture(scope="module")
def waves_doc():
    """A document big enough that wave evaluation dominates dispatch
    overhead (the window calibration assumes eval >> timer slop).

    Wave B reaches the pool ~40 ms later than the timers say (GIL
    hand-offs to the loop, the executor and the pool thread while wave A
    computes), and overlapped evaluations lose a little to interleaving;
    both are fixed costs, so the window that satisfies the overlap AND
    the < 0.9x ratio only exists once a wave evaluates for ~0.2-0.3 s
    (much past that, two interleaved evaluations over a large document
    evict each other's caches, and the overlapped wall grows faster than
    the saved window).

    How many patients that takes depends on the host and on whether the
    compiled passes loaded (with them, 2000 patients evaluate wave A in
    ~0.1 s), so the base document is timed and, when wave A's warm
    evaluation falls short of ``MIN_WAVE_EVAL``, regenerated that much
    larger (at most ``MAX_GROWTH`` times).
    """
    patients = max(4, int(2000 * scale_factor()))
    document = generate_hospital_document(
        HospitalConfig(num_patients=patients, seed=2007)
    )
    with _build_service(document, pool_size=1) as probe:
        # Best of four timed waves: a noisy host only ever slows a wave.
        eval_a = min(_warm(probe)[0], _warm(probe)[0])
    growth = min(MAX_GROWTH, MIN_WAVE_EVAL / eval_a)
    if growth <= 1.0:
        return document
    return generate_hospital_document(
        HospitalConfig(num_patients=int(patients * growth), seed=2007)
    )


def _requests(wave):
    return [QueryRequest(tenant, query) for tenant, query in wave]


def _build_service(document, pool_size: int) -> QueryService:
    service = QueryService(document, pool_size=pool_size)
    service.register_view("research", sigma0())
    service.register_tenant("admin", None)
    service.register_tenant("auditor", None)
    service.register_tenant("institute", "research")
    service.register_tenant("clinic", "research")
    return service


def _warm(service: QueryService) -> tuple[float, float]:
    """Warm plans and memo tables; return warm (eval_A, eval_B) times."""
    service.submit_wave(_requests(WAVE_A))
    service.submit_wave(_requests(WAVE_B))
    times = []
    for wave in (WAVE_A, WAVE_B):
        best = float("inf")
        for _ in range(2):
            started = time.perf_counter()
            service.submit_wave(_requests(wave))
            best = min(best, time.perf_counter() - started)
        times.append(best)
    return times[0], times[1]


def _measure_serial(service: QueryService, window: float):
    """Waves one at a time through the controller: the serialised sum."""

    async def main():
        controller = AdmissionController(
            service, AdmissionConfig(max_wave=32, max_wait=window)
        )
        started = time.perf_counter()
        answers_a = await asyncio.gather(
            *[controller.submit(r) for r in _requests(WAVE_A)]
        )
        answers_b = await asyncio.gather(
            *[controller.submit(r) for r in _requests(WAVE_B)]
        )
        return time.perf_counter() - started, answers_a, answers_b

    return asyncio.run(main())


def _measure_concurrent(service: QueryService, window: float):
    """Wave B arrives while wave A evaluates; both stay separate waves."""

    async def main():
        controller = AdmissionController(
            service, AdmissionConfig(max_wave=32, max_wait=window)
        )
        started = time.perf_counter()
        burst_a = asyncio.gather(
            *[controller.submit(r) for r in _requests(WAVE_A)]
        )
        # Once wave A has closed and is evaluating (in the pool), wave B
        # arrives: it forms its own wave, waits out its own window and
        # dispatches — all inside wave A's evaluation.
        while service.pool.in_flight == 0 and not burst_a.done():
            await asyncio.sleep(0.001)
        burst_b = asyncio.gather(
            *[controller.submit(r) for r in _requests(WAVE_B)]
        )
        answers_a = await burst_a
        answers_b = await burst_b
        return time.perf_counter() - started, answers_a, answers_b

    return asyncio.run(main())


def test_concurrent_waves_beat_serialised_sum(waves_doc):
    serial_service = _build_service(waves_doc, pool_size=1)
    concurrent_service = _build_service(waves_doc, pool_size=2)

    eval_a, _eval_b = _warm(serial_service)
    _warm(concurrent_service)
    # Calibration: wave B's evaluation starts one window after wave A's
    # and must land inside it, so the window must stay below eval_A;
    # 0.7x leaves 0.3x eval_A (~75 ms on the document the fixture sizes)
    # for the GIL hand-off slop and for runs that evaluate faster than
    # the warm-up did, while the saved window stays a large slice of
    # the serialised sum: the overlapped run may cost up to ~15 % more
    # than the two evaluations back to back and still beat 0.9x.
    window = min(0.5, max(0.03, 0.7 * eval_a))

    ratios = []
    concurrent_outcomes = None
    for _attempt in range(ATTEMPTS):
        waves_before = concurrent_service.metrics_snapshot().waves
        serial_walls = []
        concurrent_walls = []
        gc.collect()
        gc.disable()
        try:
            for _run in range(RUNS):
                serial_wall, _sa, _sb = _measure_serial(
                    serial_service, window
                )
                serial_walls.append(serial_wall)
                concurrent_wall, ca, cb = _measure_concurrent(
                    concurrent_service, window
                )
                concurrent_walls.append(concurrent_wall)
                concurrent_outcomes = (ca, cb)
        finally:
            gc.enable()
        # Wave B never coalesced into wave A: two real waves per run.
        waves_delta = concurrent_service.metrics_snapshot().waves - waves_before
        assert waves_delta == 2 * RUNS, waves_delta
        ratios.append(min(concurrent_walls) / min(serial_walls))
        if ratios[-1] < TARGET_RATIO:
            break
    assert min(ratios) < TARGET_RATIO, (
        f"concurrent wall-clock never beat {TARGET_RATIO}x the serialised "
        f"sum: ratios {[f'{r:.3f}' for r in ratios]} (window {window:.3f}s, "
        f"eval_A {eval_a:.3f}s, {waves_doc.size} nodes)"
    )

    # The overlap is real: both waves' evaluations were in flight at
    # once — impossible under the seed's global evaluation lock.
    assert concurrent_service.pool.peak_in_flight >= 2, (
        "the two waves' evaluations never overlapped "
        f"(peak in flight {concurrent_service.pool.peak_in_flight}; window "
        f"{window:.3f}s, eval_A {eval_a:.3f}s, {waves_doc.size} nodes)"
    )

    # Answers (ids AND stats) are identical to sequential per-request
    # evaluation, wave overlap or not.
    reference = _build_service(waves_doc, pool_size=1)
    ca, cb = concurrent_outcomes
    for wave, outcomes in ((WAVE_A, ca), (WAVE_B, cb)):
        for (tenant, query), admitted in zip(wave, outcomes):
            expected = reference.submit(tenant, query)
            assert admitted.answer.ids() == expected.ids()
            assert admitted.answer.stats == expected.stats


def test_pool_of_one_still_serialises(waves_doc):
    """Bounding sanity: a size-1 pool never overlaps evaluations, so the
    peak gauge stays at 1 even under concurrent wave submission."""
    service = _build_service(waves_doc, pool_size=1)
    service.submit_wave(_requests(WAVE_A))  # warm plans

    async def main():
        controller = AdmissionController(
            service, AdmissionConfig(max_wave=32, max_wait=0.02)
        )
        burst_a = asyncio.gather(
            *[controller.submit(r) for r in _requests(WAVE_A)]
        )
        await asyncio.sleep(0.03)
        burst_b = asyncio.gather(
            *[controller.submit(r) for r in _requests(WAVE_B)]
        )
        await burst_a
        await burst_b

    asyncio.run(main())
    assert service.pool.peak_in_flight == 1
