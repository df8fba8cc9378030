"""Metrics tests: latency sentinels, rejection kinds, wave counters."""

import math
import re

import pytest

from repro.serve.cache import CacheStats
from repro.serve.metrics import LatencyStats, ServiceMetrics


class TestLatencyStats:
    def test_empty_stats_report_zero_not_inf(self):
        """Regression: ``min`` stayed ``float("inf")`` with no records."""
        empty = LatencyStats()
        assert empty.min == 0.0
        assert empty.max == 0.0
        assert empty.mean == 0.0
        snap = empty.snapshot()
        assert snap.min == 0.0 and math.isfinite(snap.min)

    def test_min_max_after_records(self):
        stats = LatencyStats()
        stats.record(0.5)
        assert stats.min == 0.5 and stats.max == 0.5
        stats.record(0.2)
        stats.record(0.9)
        assert stats.min == 0.2 and stats.max == 0.9
        assert stats.mean == (0.5 + 0.2 + 0.9) / 3

    def test_empty_tenant_latency_renders_finite(self):
        """The rendered payload and summary carry no inf."""
        import json

        metrics = ServiceMetrics()
        metrics.record_request("t", 0.0, 0.001, answers=1)
        snap = metrics.snapshot(CacheStats(), pool_size=1)
        rendered = json.dumps(snap.as_dict()) + snap.describe()
        assert "inf" not in rendered.lower()


class TestQueueWaitSplit:
    def test_queue_wait_and_evaluate_recorded_separately(self):
        """Regression: the old recorder timed the global evaluation
        lock's wait inside "latency"; the two must stay apart so pool
        overlap is measurable."""
        metrics = ServiceMetrics()
        metrics.record_request("t", 0.010, 0.002, answers=1)
        metrics.record_request("t", 0.030, 0.004, answers=0)
        snap = metrics.snapshot()
        assert snap.latency.count == 2
        assert snap.latency.max == 0.004
        assert snap.queue_wait.count == 2
        assert snap.queue_wait.min == 0.010
        assert snap.queue_wait.max == 0.030
        # Per-tenant latency tracks evaluation only.
        assert snap.tenants["t"].latency.max == 0.004

    def test_pool_gauges_flow_into_snapshot(self):
        metrics = ServiceMetrics()
        snap = metrics.snapshot(in_flight=3, peak_in_flight=5, pool_size=8)
        assert snap.in_flight_evaluations == 3
        assert snap.peak_in_flight == 5
        assert snap.pool_size == 8
        assert "evaluation pool: size 8, 3 in flight (peak 5)" in snap.describe()

    def test_no_pool_no_pool_line(self):
        snap = ServiceMetrics().snapshot()
        assert "evaluation pool" not in snap.describe()


class TestRejectionKinds:
    def test_rejections_classified(self):
        metrics = ServiceMetrics()
        metrics.record_rejection("authorization")
        metrics.record_rejection("authorization")
        metrics.record_rejection("invalid-query")
        metrics.record_rejection()  # default kind
        snap = metrics.snapshot()
        assert snap.rejected == 4
        assert snap.rejected_kinds == {
            "authorization": 2,
            "invalid-query": 1,
            "service": 1,
        }
        assert "2 authorization" in snap.describe()

    def test_describe_without_rejections(self):
        snap = ServiceMetrics().snapshot()
        assert "0 rejected" in snap.describe()


class TestWaveCounters:
    def test_record_wave_accumulates(self):
        metrics = ServiceMetrics()
        metrics.record_wave(4, admitted=4)
        metrics.record_wave(6, admitted=5)
        metrics.record_wave(2, admitted=2)
        snap = metrics.snapshot()
        assert snap.waves == 3
        assert snap.wave_requests == 12
        assert snap.wave_admitted == 11
        assert snap.largest_wave == 6
        assert snap.mean_wave_size == 4.0
        assert "admission: 12 request(s) in 3 wave(s)" in snap.describe()

    def test_no_waves_no_admission_line(self):
        snap = ServiceMetrics().snapshot()
        assert snap.mean_wave_size == 0.0
        assert "admission" not in snap.describe()


class TestAsDict:
    def test_snapshot_as_dict_is_json_shaped(self):
        import json

        metrics = ServiceMetrics()
        metrics.record_request("t", 0.001, 0.002, answers=3)
        metrics.record_wave(2, admitted=2)
        metrics.record_rejection("authorization")
        payload = metrics.snapshot(
            CacheStats(hits=1, misses=2),
            in_flight=1,
            peak_in_flight=2,
            pool_size=4,
        ).as_dict()
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["requests"] == 1
        assert round_tripped["rejected_kinds"] == {"authorization": 1}
        assert round_tripped["waves"] == 1
        assert round_tripped["cache"]["misses"] == 2
        assert round_tripped["tenants"]["t"]["answers"] == 3
        assert round_tripped["latency"]["min"] == 0.002
        assert round_tripped["queue_wait"]["max"] == 0.001
        assert round_tripped["in_flight_evaluations"] == 1
        assert round_tripped["pool"] == {"size": 4, "peak_in_flight": 2}


class TestPlanTierSplit:
    def test_tier_counters_surface_in_snapshot(self):
        metrics = ServiceMetrics()
        snap = metrics.snapshot(CacheStats(hits=3, misses=2, l2_hits=4))
        assert snap.plan_l1_hits == 3
        assert snap.plan_l2_hits == 4
        assert snap.plan_misses == 2
        assert snap.cache.total_hits == 7
        assert snap.cache.hit_rate == (3 + 4) / (3 + 4 + 2)

    def test_describe_renders_both_tiers(self):
        metrics = ServiceMetrics()
        snap = metrics.snapshot(CacheStats(hits=3, misses=2, l2_hits=4))
        assert "plan cache: 3 L1 + 4 L2 hit(s), 2 miss(es)" in snap.describe()

    def test_as_dict_exposes_tier_and_compile_counters(self):
        import json

        from repro.compile.pipeline import CompileMetrics

        compile_metrics = CompileMetrics()
        compile_metrics.record("rewrite", 0.004)
        compile_metrics.record("rewrite", 0.006)
        compile_metrics.record("trim", 0.001)
        metrics = ServiceMetrics()
        payload = metrics.snapshot(
            CacheStats(hits=1, misses=2, l2_hits=3),
            compile=compile_metrics.snapshot(),
        ).as_dict()
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["plan_l1_hits"] == 1
        assert round_tripped["plan_l2_hits"] == 3
        assert round_tripped["plan_misses"] == 2
        assert round_tripped["cache"]["l2_hits"] == 3
        assert round_tripped["compile"]["rewrite"]["count"] == 2
        assert round_tripped["compile"]["rewrite"]["seconds"] > 0.009
        assert round_tripped["compile"]["trim"]["count"] == 1
        assert round_tripped["compile"]["parse"]["count"] == 0

    def test_describe_lists_only_stages_that_ran(self):
        from repro.compile.pipeline import CompileMetrics

        compile_metrics = CompileMetrics()
        compile_metrics.record("translate", 0.002)
        metrics = ServiceMetrics()
        text = metrics.snapshot(
            CacheStats(), compile=compile_metrics.snapshot()
        ).describe()
        assert "compile stages: translate 1x" in text
        assert "rewrite" not in text

    def test_no_compile_activity_no_stage_line(self):
        snap = ServiceMetrics().snapshot(CacheStats())
        assert "compile stages" not in snap.describe()


class TestStoreStatsSurface:
    def test_store_counters_flow_into_snapshot(self):
        from repro.compile.store import StoreStats

        metrics = ServiceMetrics()
        snap = metrics.snapshot(
            CacheStats(), store=StoreStats(hits=2, misses=1, corrupt=3, errors=1)
        )
        assert "plan store: 2 hit(s), 1 miss(es)" in snap.describe()
        assert "3 CORRUPT" in snap.describe()
        assert "1 I/O error(s)" in snap.describe()
        payload = snap.as_dict()
        assert payload["plan_store"] == {
            "hits": 2,
            "misses": 1,
            "corrupt": 3,
            "stores": 0,
            "errors": 1,
            "gc_removed": 0,
        }

    def test_no_store_no_line_and_null_payload(self):
        snap = ServiceMetrics().snapshot(CacheStats())
        assert "plan store" not in snap.describe()
        assert snap.as_dict()["plan_store"] is None


class TestTenantRejections:
    def test_rejections_attributed_to_their_tenant(self):
        metrics = ServiceMetrics()
        metrics.record_request("good", 0.0, 0.001, answers=1)
        metrics.record_rejection("authorization", tenant="bad")
        metrics.record_rejection("overloaded", tenant="bad")
        metrics.record_rejection("invalid-query", tenant="good")
        snap = metrics.snapshot()
        assert snap.rejected == 3
        assert snap.tenants["bad"].rejections == 2
        assert snap.tenants["bad"].requests == 0
        assert snap.tenants["good"].rejections == 1

    def test_anonymous_rejection_stays_global_only(self):
        """No tenant (e.g. a malformed request before tenant resolution)
        still counts globally without inventing a tenant row."""
        metrics = ServiceMetrics()
        metrics.record_rejection("invalid-query")
        snap = metrics.snapshot()
        assert snap.rejected == 1
        assert snap.tenants == {}

    def test_rejections_rendered_in_payload(self):
        metrics = ServiceMetrics()
        metrics.record_request("t", 0.0, 0.001, answers=1)
        metrics.record_rejection("authorization", tenant="t")
        snap = metrics.snapshot(CacheStats())
        assert snap.as_dict()["tenants"]["t"]["rejections"] == 1


class TestLatencyPercentiles:
    def test_latency_as_dict_carries_percentiles(self):
        stats = LatencyStats()
        for ms in range(1, 101):
            stats.record(ms / 1000.0)
        payload = stats.as_dict()
        assert set(payload) == {
            "count", "mean", "min", "max", "p50", "p95", "p99",
        }
        assert payload["p50"] <= payload["p95"] <= payload["p99"] <= payload["max"]
        assert payload["p50"] == stats.hist.p50

    def test_snapshot_preserves_the_histogram(self):
        stats = LatencyStats()
        stats.record(0.005)
        snap = stats.snapshot()
        stats.record(5.0)  # must not bleed into the snapshot
        assert snap.hist.count == 1
        assert snap.p99 == pytest.approx(0.005)

    def test_describe_quotes_the_same_percentiles_as_as_dict(self):
        """Parity: the human and machine surfaces must agree."""
        metrics = ServiceMetrics()
        for ms in (1, 2, 3, 50, 400):
            metrics.record_request("t", 0.0, ms / 1000.0, answers=1)
        snap = metrics.snapshot(CacheStats(), pool_size=2)
        text = snap.describe()
        payload = snap.as_dict()
        for q in ("p50", "p95", "p99"):
            assert f"{payload['latency'][q] * 1000:.2f}" in text


class TestDeclarationTable:
    """One declaration per counter: a field of its block plus (for the
    unlabelled Prometheus families) one ``FAMILIES`` row.  Walking the
    table replaces the hand-kept parity lists."""

    @pytest.fixture(scope="class")
    def snapshot(self):
        from repro.serve.service import QueryRequest, QueryService
        from repro.views.samples import sigma0
        from repro.workloads.hospital import (
            HospitalConfig,
            generate_hospital_document,
        )

        doc = generate_hospital_document(HospitalConfig(num_patients=6, seed=3))
        with QueryService(doc) as service:
            service.register_view("research", sigma0())
            service.register_tenant("institute", "research")
            service.register_tenant("twin", "research")
            service.submit_wave(
                [
                    QueryRequest("institute", "patient"),
                    QueryRequest("twin", "patient/parent"),
                    QueryRequest("twin", "]][["),
                ]
            )
            return service.metrics_snapshot()

    def test_every_declaration_reaches_payload_and_exposition(self, snapshot):
        from dataclasses import fields

        from repro.obs.export import (
            FAMILIES,
            merge_expositions,
            render_prometheus,
            resolve,
        )
        from repro.serve.metrics import ServiceCounters

        payload = snapshot.as_dict()
        single = render_prometheus(snapshot)
        merged = merge_expositions(
            [
                render_prometheus(snapshot, worker="w0"),
                render_prometheus(snapshot, worker="w1"),
            ]
        )
        assert len({row.family for row in FAMILIES}) == len(FAMILIES)
        for row in FAMILIES:
            value = resolve(snapshot, row.attribute)
            assert resolve(payload, row.attribute) == value, row
            assert parse_value(single, row.family) == value, row
            assert parse_value(merged, row.family, 'worker="w1"') == value, row
        for text in (single, merged):
            types = dict(re.findall(r"^# TYPE (\S+) (\S+)$", text, flags=re.M))
            for row in FAMILIES:
                assert types[f"repro_{row.family}"] == row.kind, row
        # A field added to any block reaches ``as_dict`` with no edit.
        for f in fields(ServiceCounters):
            assert payload[f.name] == getattr(snapshot, f.name), f.name
        assert snapshot.wave_admitted == 2 and snapshot.rejected == 1
        for key, block in (
            ("cache", snapshot.cache),
            ("plan_store", snapshot.store),
            ("doc_store", snapshot.doc_store),
            ("pool", snapshot.pool),
        ):
            if block is None:
                assert payload[key] is None
                continue
            for f in fields(block):
                assert payload[key][f.name] == getattr(block, f.name), (key, f.name)


def parse_value(text: str, family: str, labels: str = "") -> float:
    from repro.obs.export import parse_exposition

    return parse_exposition(text)[f"repro_{family}"][labels]
