"""Serving throughput: batched multi-MFA evaluation vs. sequential passes.

The batched evaluator runs one lean pass per lane, so a wave of distinct
plans visits exactly what N sequential passes visit; the service saves
visits only where requests of one plan share a lane.  This benchmark
measures both modes on the multi-tenant hospital traffic workload, with
answers identical.
"""

from __future__ import annotations

import pytest

from repro.serve.batch import BatchEvaluator
from repro.serve.service import QueryRequest, QueryService
from repro.workloads import (
    FIG8,
    FIG9,
    TrafficConfig,
    generate_traffic,
    register_tenants,
    waves,
)
from repro.automata.compile import compile_query
from repro.hype.core import CompiledPlan
from repro.xpath.parser import parse_query

#: A wave of concurrent source queries (N = 6 >= 4).
WAVE = sorted(FIG8.values()) + sorted(FIG9.values())


def _sequential(mfas, root):
    return [CompiledPlan(mfa).run(root) for mfa in mfas]


def test_batched_pass_visits_fewer_elements(benchmark, bench_doc):
    """N >= 4 distinct plans: the wave visits what its lanes visit, the
    sum of the sequential passes (no plan is shared, so nothing is
    saved)."""
    mfas = [compile_query(parse_query(q)) for q in WAVE]
    assert len(mfas) >= 4
    sequential = _sequential(mfas, bench_doc.root)
    plans = [CompiledPlan(mfa) for mfa in mfas]
    batch_result = benchmark.pedantic(
        lambda: BatchEvaluator(plans).run(bench_doc.root),
        rounds=3,
        iterations=1,
    )
    total_sequential = sum(r.stats.visited_elements for r in sequential)
    assert batch_result.stats.sequential_visited == total_sequential
    assert batch_result.stats.visited_elements == total_sequential
    benchmark.extra_info.update(
        {
            "lanes": batch_result.stats.lanes,
            "batch_visited": batch_result.stats.visited_elements,
            "sequential_visited": total_sequential,
            "saved_visits": batch_result.stats.saved_visits,
        }
    )
    # Node-for-node identical answers.
    for seq, bat in zip(sequential, batch_result.results):
        assert {n.node_id for n in bat.answers} == {
            n.node_id for n in seq.answers
        }


def test_sequential_baseline(benchmark, bench_doc):
    """The N-passes baseline the batch is compared against."""
    mfas = [compile_query(parse_query(q)) for q in WAVE]
    results = benchmark.pedantic(
        lambda: _sequential(mfas, bench_doc.root), rounds=3, iterations=1
    )
    benchmark.extra_info["sequential_visited"] = sum(
        r.stats.visited_elements for r in results
    )


def test_service_traffic_batched_vs_sequential(benchmark, bench_doc):
    """End-to-end service throughput on the multi-tenant traffic stream."""
    config = TrafficConfig(num_tenants=4, num_requests=24, seed=41)
    traffic = generate_traffic(config)
    request_waves = [
        [QueryRequest(r.tenant, r.query) for r in wave]
        for wave in waves(traffic, 8)
    ]

    service = QueryService(bench_doc)
    register_tenants(service, config)
    # Warm the plan cache so the benchmark isolates evaluation cost.
    sequential_answers = [service.submit(r.tenant, r.query) for r in traffic]

    def run_batched():
        return [service.submit_many(wave) for wave in request_waves]

    outcomes = benchmark.pedantic(run_batched, rounds=3, iterations=1)
    batched_answers = [a for answers, _stats in outcomes for a in answers]
    assert [a.ids() for a in batched_answers] == [
        a.ids() for a in sequential_answers
    ]
    snapshot = service.metrics_snapshot()
    assert snapshot.batch_visited < snapshot.sequential_visited
    benchmark.extra_info.update(
        {
            "batch_visited": snapshot.batch_visited,
            "sequential_visited": snapshot.sequential_visited,
            "cache_hit_rate": round(snapshot.cache.hit_rate, 3),
        }
    )
