"""Concurrent evaluation: one shared CompiledPlan, many threads.

The plan/run-state split's contract is that a :class:`CompiledPlan` is
immutable after warmup — its memo tables only gain entries and its
interned-set ids are minted under a lock — so any number of threads may
run it at once and every run is *observationally identical* to a serial
run (same answers, same :class:`HyPEStats`).  These tests hammer that
contract: a mixed ``submit``/``submit_wave`` stress over one service (all
requests resolving to the same shared plans) and a two-thread warmup race
on a completely cold plan.
"""

from __future__ import annotations

import threading

import pytest

from repro.automata.compile import compile_query
from repro.hype.core import CompiledPlan
from repro.serve.service import QueryRequest, QueryService
from repro.workloads import FIG8, VIEW_QUERIES
from repro.xpath.parser import parse_query

from .conftest import ids

#: Source queries with filters (gate failures) so deaths/phase-2 run too.
STRESS_QUERIES = sorted(FIG8.values())
VIEW_STRESS = sorted(VIEW_QUERIES.values())[:3]

THREADS = 8
ROUNDS = 4


@pytest.fixture()
def stress_service(hospital_doc, sigma0_spec):
    svc = QueryService(hospital_doc, pool_size=4)
    svc.register_view("research", sigma0_spec)
    # Every tenant shares the view, so all of them resolve a given query
    # to ONE CachedPlan and therefore one shared CompiledPlan.
    for i in range(THREADS):
        svc.register_tenant(f"tenant-{i}", "research")
    svc.register_tenant("admin", None)
    return svc


def _serial_reference(hospital_doc, sigma0_spec):
    """Answers + full stats of every stress query from a fresh service."""
    svc = QueryService(hospital_doc, pool_size=1)
    svc.register_view("research", sigma0_spec)
    svc.register_tenant("ref", "research")
    svc.register_tenant("admin", None)
    reference = {}
    for query in VIEW_STRESS:
        answer = svc.submit("ref", query)
        reference[("research", query)] = (ids(answer.nodes), answer.stats)
    for query in STRESS_QUERIES:
        answer = svc.submit("admin", query)
        reference[(None, query)] = (ids(answer.nodes), answer.stats)
    return reference


class TestSharedPlanStress:
    def test_mixed_submit_and_waves_match_serial_run(
        self, stress_service, hospital_doc, sigma0_spec
    ):
        """>= 8 threads, mixed submit/submit_wave, one set of shared
        plans: every answer and every HyPEStats must equal the serial
        run exactly."""
        reference = _serial_reference(hospital_doc, sigma0_spec)
        barrier = threading.Barrier(THREADS)
        failures: list[str] = []
        errors: list[BaseException] = []

        def check(view, query, answer):
            want_ids, want_stats = reference[(view, query)]
            if ids(answer.nodes) != want_ids:
                failures.append(f"answers diverged for {query!r}")
            if answer.stats != want_stats:
                failures.append(
                    f"stats diverged for {query!r}: "
                    f"{answer.stats} != {want_stats}"
                )

        def worker(thread_idx: int) -> None:
            tenant = f"tenant-{thread_idx}"
            try:
                barrier.wait(timeout=30)
                for round_idx in range(ROUNDS):
                    if (thread_idx + round_idx) % 2 == 0:
                        query = VIEW_STRESS[round_idx % len(VIEW_STRESS)]
                        answer = stress_service.submit(tenant, query)
                        check("research", query, answer)
                    else:
                        requests = [
                            QueryRequest(tenant, q) for q in VIEW_STRESS
                        ] + [QueryRequest("admin", q) for q in STRESS_QUERIES]
                        result = stress_service.submit_wave(requests)
                        for request, outcome in zip(
                            requests, result.outcomes
                        ):
                            view = (
                                None if request.tenant == "admin"
                                else "research"
                            )
                            check(view, request.query, outcome)
            except BaseException as error:  # pragma: no cover - diagnostics
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert not failures, failures[:5]
        # All tenants shared the view: each stress query compiled once.
        snapshot = stress_service.metrics_snapshot()
        assert snapshot.cache.misses == len(VIEW_STRESS) + len(STRESS_QUERIES)
        assert snapshot.peak_in_flight >= 1

    def test_interning_stays_injective_under_stress(
        self, stress_service
    ):
        """After concurrent warmup every interned set still has a unique
        id and maps to its own canonical object (an id collision would
        corrupt every keyed cache)."""
        for _ in range(2):
            stress_service.submit_wave(
                [QueryRequest("tenant-0", q) for q in VIEW_STRESS]
            )
        for key in stress_service.cache.keys():
            plan = stress_service.cache.get(key)
            for compiled in plan.executables():
                entries = list(compiled._set_ids.items())
                minted = [entry_id for _, (_, entry_id) in entries]
                assert len(set(minted)) == len(minted)
                for fs, (canonical, _entry_id) in entries:
                    assert canonical == fs


class TestColdPlanWarmupRace:
    def test_two_threads_filling_child_cache_agree_with_serial(
        self, hospital_doc
    ):
        """Two threads racing phase-1 cache fills on a COLD plan must
        both produce the serial result, and the plan's tables must end
        up consistent (unique ids, canonical objects)."""
        query = parse_query(sorted(FIG8.values())[0])
        serial = CompiledPlan(compile_query(query)).run(hospital_doc.root)

        plan = CompiledPlan(compile_query(query))  # cold: empty tables
        barrier = threading.Barrier(2)
        results: list = [None, None]
        errors: list[BaseException] = []

        def racer(slot: int) -> None:
            try:
                barrier.wait(timeout=30)
                results[slot] = plan.run(hospital_doc.root)
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=racer, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        for result in results:
            assert result is not None
            assert ids(result.answers) == ids(serial.answers)
            assert result.stats == serial.stats
        minted = [entry_id for _, entry_id in plan._set_ids.values()]
        assert len(set(minted)) == len(minted)
        for fs, (canonical, _entry_id) in plan._set_ids.items():
            assert canonical == fs
        # The run after the race still agrees (tables are warm now).
        again = plan.run(hospital_doc.root)
        assert ids(again.answers) == ids(serial.answers)
        assert again.stats == serial.stats
