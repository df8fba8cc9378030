"""Tracing tests: span trees, ambient no-ops, sampling, propagation.

The end-to-end acceptance tests live at the bottom: a traced request
through the real front-end must yield ONE trace whose span tree covers
frontend → admission → plan/compile → doc-store → queue-wait →
evaluation with child durations summing within the root; and concurrent
traced waves must never attach a span to the wrong trace.
"""

import asyncio
import contextvars
import threading
import time

import pytest

from repro.obs.trace import (
    Span,
    TraceStore,
    Tracer,
    add_span,
    current_span,
    span,
    span_roots,
)
from repro.serve.pool import ExecutionPool


class TestAmbientHelpers:
    def test_no_ops_outside_any_trace(self):
        assert current_span() is None
        with span("orphan") as child:
            assert child is None
        assert add_span("orphan", 0.0, 1.0) is None

    def test_nested_spans_form_a_tree(self):
        tracer = Tracer(sample_rate=1.0)
        with tracer.trace("request") as root:
            with span("plan", tier="l1") as plan:
                assert current_span() is plan
                with span("compile.parse"):
                    pass
            with span("evaluate"):
                pass
        [trace] = tracer.store.recent()
        roots = span_roots(trace)
        assert len(roots) == 1
        tree = roots[0]
        assert tree["name"] == "request"
        assert [c["name"] for c in tree["children"]] == ["plan", "evaluate"]
        plan_node = tree["children"][0]
        assert plan_node["attributes"] == {"tier": "l1"}
        assert [c["name"] for c in plan_node["children"]] == ["compile.parse"]
        assert root.span_id == tree["span_id"]

    def test_span_error_marks_and_propagates(self):
        tracer = Tracer(sample_rate=0.0)  # errored traces kept anyway
        with pytest.raises(RuntimeError):
            with tracer.trace("request"):
                with span("evaluate"):
                    raise RuntimeError("boom")
        [trace] = tracer.store.recent()
        assert trace["kept"] == "error"
        errors = {s["name"]: s["error"] for s in trace["spans"]}
        assert "RuntimeError: boom" in errors["evaluate"]
        assert "RuntimeError: boom" in errors["request"]

    def test_add_span_records_out_of_band_interval(self):
        tracer = Tracer(sample_rate=1.0)
        with tracer.trace("request"):
            t0 = time.perf_counter()
            child = add_span("queue.wait", t0, t0 + 0.25, wave=3)
            assert child is not None
            assert child.duration == pytest.approx(0.25)
        [trace] = tracer.store.recent()
        waits = [s for s in trace["spans"] if s["name"] == "queue.wait"]
        assert len(waits) == 1
        assert waits[0]["duration_ms"] == pytest.approx(250.0)
        assert waits[0]["attributes"] == {"wave": 3}

    def test_nested_trace_degrades_to_child_span(self):
        """A traced layer calling another traced layer must not fork a
        second root."""
        tracer = Tracer(sample_rate=1.0)
        with tracer.trace("outer"):
            with tracer.trace("inner") as inner:
                assert isinstance(inner, Span)
        assert len(tracer.store.recent()) == 1
        [trace] = tracer.store.recent()
        assert trace["root"] == "outer"
        assert {s["name"] for s in trace["spans"]} == {"outer", "inner"}


class TestRetention:
    def test_sampling_is_probabilistic_and_seeded(self):
        tracer = Tracer(sample_rate=0.5, seed=42)
        for _ in range(200):
            with tracer.trace("request"):
                pass
        kept = tracer.store.kept
        assert 0 < kept < 200
        # Same seed → same decisions.
        repeat = Tracer(sample_rate=0.5, seed=42)
        for _ in range(200):
            with repeat.trace("request"):
                pass
        assert repeat.store.kept == kept

    def test_zero_rate_keeps_nothing_ordinary(self):
        tracer = Tracer(sample_rate=0.0)
        with tracer.trace("request"):
            pass
        assert tracer.store.kept == 0
        assert tracer.started == 1

    def test_slow_traces_always_kept(self):
        tracer = Tracer(sample_rate=0.0, slow_seconds=0.0)
        with tracer.trace("request"):
            pass
        [trace] = tracer.store.recent()
        assert trace["kept"] == "slow"

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ValueError):
            Tracer(slow_seconds=-1.0)
        with pytest.raises(ValueError):
            TraceStore(capacity=0)

    def test_ring_buffer_bounds_memory(self):
        tracer = Tracer(sample_rate=1.0, capacity=5)
        for i in range(12):
            with tracer.trace("request", serial=i):
                pass
        assert len(tracer.store) == 5
        assert tracer.store.kept == 12
        assert tracer.store.dropped == 7
        serials = [
            t["spans"][0]["attributes"]["serial"]
            for t in tracer.store.recent()
        ]
        assert serials == [11, 10, 9, 8, 7]  # newest first


class TestPropagation:
    def test_pool_worker_inherits_the_dispatching_trace(self):
        tracer = Tracer(sample_rate=1.0)
        with ExecutionPool(2) as pool:
            with tracer.trace("request"):
                def work():
                    with span("evaluate", where="worker"):
                        return threading.current_thread().name
                outcome = pool.execute(work)
        assert "repro-eval" in outcome.result
        [trace] = tracer.store.recent()
        names = {s["name"] for s in trace["spans"]}
        assert "evaluate" in names

    def test_plain_thread_does_not_inherit(self):
        """ThreadPoolExecutor/threading alone must not leak the trace —
        propagation is an explicit copy_context() handoff."""
        tracer = Tracer(sample_rate=1.0)
        seen = []
        with tracer.trace("request"):
            thread = threading.Thread(
                target=lambda: seen.append(current_span())
            )
            thread.start()
            thread.join()
        assert seen == [None]

    def test_copied_context_attaches_spans_to_its_trace(self):
        tracer = Tracer(sample_rate=1.0)
        with tracer.trace("request"):
            ctx = contextvars.copy_context()
        # The trace is finished, but the copied context still targets it:
        # exactly how admission mirrors shared-pass spans post-hoc.
        ctx.run(add_span, "admission.hold", 0.0, 0.010)
        [trace] = tracer.store.recent()
        # The mirrored span missed the export (trace already retained) —
        # live mirroring happens before the root finishes; assert the
        # context at least resolved the right parent rather than None.
        recorded = ctx.run(current_span)
        assert recorded is not None and recorded.name == "request"
        assert trace["root"] == "request"

    def test_concurrent_traces_stay_separate_across_pool_threads(self):
        """Stress: N traced requests dispatch pool work concurrently;
        every span must land in its own request's trace."""
        tracer = Tracer(sample_rate=1.0)
        n = 16

        def one_request(serial: int) -> None:
            with tracer.trace("request", serial=serial):
                with ExecutionPool(2) as pool:
                    def work():
                        with span("evaluate", serial=serial):
                            time.sleep(0.001)
                    futures = [pool.dispatch(work) for _ in range(3)]
                    for future in futures:
                        future.result()

        threads = [
            threading.Thread(target=one_request, args=(i,)) for i in range(n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        traces = tracer.store.recent()
        assert len(traces) == n
        for trace in traces:
            root_serial = next(
                s["attributes"]["serial"]
                for s in trace["spans"]
                if s["name"] == "request"
            )
            evaluates = [
                s for s in trace["spans"] if s["name"] == "evaluate"
            ]
            assert len(evaluates) == 3
            assert all(
                s["attributes"]["serial"] == root_serial for s in evaluates
            ), "span attached to the wrong trace"


def _front_service(patients: int = 12):
    from repro.serve.service import QueryService
    from repro.workloads.hospital import (
        HospitalConfig,
        generate_hospital_document,
    )
    from repro.workloads.traffic import TrafficConfig, register_tenants

    tree = generate_hospital_document(
        HospitalConfig(num_patients=patients, seed=3)
    )
    service = QueryService(tree)
    register_tenants(service, TrafficConfig(num_tenants=2, seed=3))
    return service


class TestFrontendEndToEnd:
    STAGES = ("admission.hold", "plan", "queue.wait", "docstore.resolve", "evaluate")

    def test_single_request_yields_one_complete_span_tree(self):
        """The PR's acceptance shape: one traced request → one trace whose
        tree covers every serving tier, children summing within the root,
        plan span annotated with its cache tier, cold compile visible as
        per-stage child spans."""
        from repro.serve.frontend import FrontendClient, QueryFrontend

        service = _front_service()
        tracer = Tracer(sample_rate=1.0)

        async def scenario():
            frontend = QueryFrontend(service, tracer=tracer)
            host, port = await frontend.start("127.0.0.1", 0)
            client = await FrontendClient.connect(host, port)
            try:
                tenant = service.tenants()[0]
                reply = await client.query(tenant, "//patient")
                assert reply["ok"] is True
                traced = await client.trace()
                assert traced["ok"] is True
                return traced["traces"]
            finally:
                await client.aclose()
                await frontend.close()

        traces = asyncio.run(scenario())
        service.close()
        assert len(traces) == 1
        trace = traces[0]
        roots = span_roots(trace)
        assert len(roots) == 1
        root = roots[0]
        assert root["name"] == "request"
        names = {s["name"] for s in trace["spans"]}
        for stage in self.STAGES:
            assert stage in names, f"missing {stage} span"
        # Cold boot: the plan span compiled, with stage children (tenant
        # bindings arrive pre-normalized, so translate is the stage that
        # runs inside plan()).
        plan = next(s for s in trace["spans"] if s["name"] == "plan")
        assert plan["attributes"]["tier"] == "compile"
        compile_stages = {
            s["name"] for s in trace["spans"] if s["name"].startswith("compile.")
        }
        assert "compile.translate" in compile_stages
        # Direct children are sequential phases: their durations must sum
        # to at most the root's (small float tolerance).
        child_total = sum(c["duration_ms"] for c in root["children"])
        assert child_total <= root["duration_ms"] * 1.001
        # Every span closed (duration present) and belongs to this trace.
        assert all(s["trace_id"] == trace["trace_id"] for s in trace["spans"])

    def test_traced_burst_feeds_all_three_obs_surfaces(self):
        """The observability smoke: one seeded burst through a traced,
        access-logged front-end must show up consistently on the trace
        op, the ``prometheus`` op and the access log."""
        import io
        import json

        from repro.obs.export import parse_exposition
        from repro.obs.log import AccessLogger, StructuredLog
        from repro.serve.frontend import FrontendClient, QueryFrontend
        from repro.workloads.traffic import TrafficConfig, generate_traffic

        service = _front_service()
        tracer = Tracer(sample_rate=1.0, slow_seconds=None)
        log_buffer = io.StringIO()
        access_log = AccessLogger(
            StructuredLog(log_buffer), slow_seconds=0.0, access=True
        )
        burst = [
            {"tenant": r.tenant, "query": r.query, "limit": 0}
            for r in generate_traffic(
                TrafficConfig(num_tenants=2, num_requests=8, seed=5)
            )
            if r.tenant in service.tenants()
        ]

        async def scenario():
            frontend = QueryFrontend(
                service, tracer=tracer, access_log=access_log
            )
            host, port = await frontend.start("127.0.0.1", 0)
            client = await FrontendClient.connect(host, port)
            try:
                replies = await client.query_many(burst)
                traced = await client.trace()
                prom = await client.prometheus()
                return replies, traced, prom
            finally:
                await client.aclose()
                await frontend.close()

        replies, traced, prom = asyncio.run(scenario())
        service.close()
        assert burst and all(reply.get("ok") for reply in replies), replies
        traces = traced["traces"]
        assert traced["ok"] is True and len(traces) == len(burst)
        for trace in traces:
            (root,) = span_roots(trace)
            assert root["name"] == "request"
            assert set(self.STAGES) <= {s["name"] for s in trace["spans"]}
            child_total = sum(c["duration_ms"] for c in root["children"])
            assert child_total <= root["duration_ms"] * 1.001
        # Plan spans carry their cache tier; a repeated query hits L1.
        tiers = {
            s["attributes"].get("tier")
            for trace in traces
            for s in trace["spans"]
            if s["name"] == "plan"
        }
        assert tiers <= {"l1", "l2", "compile"} and "l1" in tiers, tiers
        # The wire exposition parses and keeps the histogram invariant.
        assert prom["ok"] is True
        samples = parse_exposition(prom["prometheus"])
        requests_total = samples["repro_requests_total"][""]
        buckets = samples["repro_request_latency_seconds_bucket"]
        assert buckets['le="+Inf"'] == requests_total == len(burst)
        # One NDJSON access-log entry per request, each correlated to a
        # retained trace and carrying its stage annotations.
        entries = [
            json.loads(line) for line in log_buffer.getvalue().splitlines()
        ]
        assert len(entries) == len(burst)
        trace_ids = {trace["trace_id"] for trace in traces}
        assert all(entry.get("trace_id") in trace_ids for entry in entries)
        assert all(entry.get("stages") for entry in entries)

    def test_concurrent_waves_no_cross_trace_spans(self):
        """Stress satellite: a pipelined burst (several waves, shared
        evaluation passes) must attribute every span to its own request's
        trace — tenants differ per request, so a leaked span would show a
        mismatched tenant."""
        from repro.serve.frontend import FrontendClient, QueryFrontend

        service = _front_service()
        tracer = Tracer(sample_rate=1.0)

        async def scenario():
            frontend = QueryFrontend(service, tracer=tracer)
            host, port = await frontend.start("127.0.0.1", 0)
            client = await FrontendClient.connect(host, port)
            try:
                tenants = [t for t in service.tenants() if t != "admin"]
                burst = [
                    {
                        "tenant": tenants[i % len(tenants)],
                        "query": q,
                        "limit": 0,
                    }
                    for i, q in enumerate(
                        ["//patient", "*", "//ward", "//patient/name"] * 4
                    )
                ]
                replies = await client.query_many(burst)
                assert all(r.get("ok") for r in replies), replies
                traced = await client.trace()
                return burst, traced["traces"]
            finally:
                await client.aclose()
                await frontend.close()

        burst, traces = asyncio.run(scenario())
        service.close()
        assert len(traces) == len(burst)
        for trace in traces:
            roots = span_roots(trace)
            assert len(roots) == 1, "exactly one root per trace"
            root = roots[0]
            child_names = [c["name"] for c in root["children"]]
            for stage in self.STAGES:
                assert stage in child_names
            # Exactly one of each serving phase: a leaked span from a
            # neighbouring request in the same wave would double one up.
            for stage in self.STAGES:
                assert child_names.count(stage) == 1
            assert all(
                s["trace_id"] == trace["trace_id"] for s in trace["spans"]
            )
        # Waves actually coalesced (the stress is real, not sequential).
        wave_sizes = {
            s["attributes"].get("wave")
            for trace in traces
            for s in trace["spans"]
            if s["name"] == "evaluate"
        }
        assert any(size and size > 1 for size in wave_sizes)
