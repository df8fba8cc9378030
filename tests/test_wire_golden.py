"""Golden wire shapes and metric names: "unchanged" is proved, not asserted.

One scripted scenario drives every op and every rejection kind through a
real :class:`QueryFrontend` socket and a one-worker fleet acceptor, and
records

* per reply: the exact key set, the ``error`` kind, the ``wave`` sub-keys;
* the key tree of :meth:`MetricsSnapshot.as_dict` after the scenario;
* the Prometheus family names and types of ``render_prometheus`` (single
  server and fleet-merged);
* the span names and attribute keys a traced request carries.

``tests/golden/wire.json`` was generated from the commit *before* the
serving stack was folded onto the wave path (PR 16) and must stay
byte-identical (one deliberate edit since: PR 18 removed the
``metrics_tree.tenants.stranger`` key — an unregistered tenant's
rejection no longer mints a metrics row); regenerate only for a
deliberate protocol change::

    PYTHONPATH=src python tests/test_wire_golden.py > tests/golden/wire.json

The acceptor's oversize-line reply is deliberately absent: it changed in
PR 16 (``bad-request`` → the documented ``invalid-request``) and is
pinned by ``benchmarks/test_fleet.py`` and ``tests/test_serve_lines.py``.
"""

from __future__ import annotations

import asyncio
import json
import re
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.compile.store import PlanStore
from repro.docstore.store import DocumentStore
from repro.errors import DeadlineError
from repro.obs.export import render_prometheus
from repro.obs.trace import Tracer
from repro.serve.admission import AdmissionConfig
from repro.serve.fleet import FleetSpec, start_fleet
from repro.serve.frontend import FrontendClient, QueryFrontend
from repro.serve.service import QueryRequest, QueryService
from repro.views.samples import sigma0
from repro.workloads.adversarial import bomb_family
from repro.workloads.hospital import HospitalConfig, generate_hospital_document

GOLDEN = Path(__file__).parent / "golden" / "wire.json"

FLEET_CONFIG = {"patients": 6, "terms": 8, "chain_depth": 3, "tenants": 2}


def reply_shape(reply: dict) -> dict:
    shape: dict = {"keys": sorted(reply)}
    if "error" in reply:
        shape["error"] = reply["error"]
    if "wave" in reply:
        shape["wave"] = sorted(reply["wave"])
    return shape


def key_tree(value):
    if isinstance(value, dict):
        return {key: key_tree(value[key]) for key in sorted(value)}
    return None


def prometheus_families(text: str) -> dict[str, str]:
    return dict(re.findall(r"^# TYPE (\S+) (\S+)$", text, flags=re.M))


def build_service(work: Path) -> QueryService:
    doc = generate_hospital_document(HospitalConfig(num_patients=6, seed=3))
    service = QueryService(
        doc,
        plan_store=PlanStore(str(work / "plans")),
        document_store=DocumentStore(index_dir=str(work / "docs")),
    )
    service.compose = True  # the composed wave, compiled lean pass or not
    service.register_view("research", sigma0())
    service.register_tenant("institute", "research")
    service.register_tenant("twin", "research")
    service.register_tenant("admin", None)
    return service


async def raw_exchange(host: str, port: int, payload: bytes) -> dict:
    """One raw line on its own connection (malformed / oversize input)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(payload + b"\n")
        await writer.drain()
        return json.loads(await asyncio.wait_for(reader.readline(), 10))
    finally:
        writer.close()


async def frontend_shapes(service: QueryService) -> dict:
    shapes: dict[str, dict] = {}
    tracer = Tracer(sample_rate=1.0, slow_seconds=None)
    admission = AdmissionConfig(max_wave=8, max_wait=0.01)
    frontend = QueryFrontend(service, admission, tracer=tracer)
    host, port = await frontend.start("127.0.0.1", 0)
    client = await FrontendClient.connect(host, port)

    async def record(label: str, message: dict) -> dict:
        reply = await client.request(message)
        shapes[label] = reply_shape(reply)
        return reply

    def query(**fields) -> dict:
        return {"op": "query", "tenant": "institute", "query": "patient", **fields}

    try:
        await record("ping", {"op": "ping"})
        await record("ping+id:null", {"op": "ping", "id": None})
        opened = await record("open", {"op": "open", "tenant": "institute"})
        await record("query", query(id="q1", session=opened["session"]))
        await record("query:direct", query(tenant="admin", query="//doctor"))
        await record("close", {"op": "close", "session": opened["session"]})
        await record("documents", {"op": "documents"})
        await record("metrics", {"op": "metrics"})
        await record("prometheus", {"op": "prometheus"})
        await record("trace", {"op": "trace", "limit": 1})
        await record("bad-request:unknown-op", {"op": "teleport", "id": 7})
        await record("bad-request:missing-field", {"op": "open"})
        await record("bad-request:limit", query(limit="many"))
        await record("bad-request:deadline_ms", query(deadline_ms=-1))
        await record("authorization", query(tenant="stranger"))
        await record("document", query(document="no-such-hash"))
        await record("service:algorithm", query(algorithm="quantum"))
        await record("service:session", query(session="s-unknown"))
        await record("invalid-query", query(query="]][["))
        await record("deadline", query(deadline_ms=0.0001, id="late"))
        await record("query-too-complex", query(query=bomb_family(12)[-1]))
        shapes["bad-request:malformed-json"] = reply_shape(
            await raw_exchange(host, port, b"{not json")
        )
        shapes["bad-request:non-object"] = reply_shape(
            await raw_exchange(host, port, b"[1, 2]")
        )
        service.documents = lambda: 1 // 0  # handler bug → "internal"
        try:
            await record("internal", {"op": "documents", "id": "boom"})
        finally:
            del service.documents
        await frontend.drain()
        await record("draining", query(id="refused"))
        await record("draining:ping-passes", {"op": "ping"})
    finally:
        await client.aclose()
        await frontend.close()

    # Backpressure, the line cap and the tracing-off ``trace`` op need
    # their own server.
    capped = QueryFrontend(
        service,
        AdmissionConfig(max_wave=8, max_wait=0.2),
        max_pending=1,
        max_line_bytes=1024,
    )
    host, port = await capped.start("127.0.0.1", 0)
    client = await FrontendClient.connect(host, port)
    try:
        replies = await client.query_many(
            [{"tenant": "institute", "query": "patient"}] * 2
        )
        shapes["overloaded"] = reply_shape(
            next(reply for reply in replies if not reply["ok"])
        )
        await record("bad-request:trace-disabled", {"op": "trace"})
        shapes["invalid-request:oversize"] = reply_shape(
            await raw_exchange(host, port, b'{"op": "ping", "pad": "%s"}' % (b"x" * 4096))
        )
    finally:
        await client.aclose()
        await capped.close()

    spans: dict[str, set] = {}
    for trace in tracer.store.recent(None):
        for span in trace["spans"]:
            spans.setdefault(span["name"], set()).update(span["attributes"])
    return {
        "replies": shapes,
        "spans": {name: sorted(attrs) for name, attrs in sorted(spans.items())},
    }


async def acceptor_shapes(work: Path) -> dict:
    shapes: dict[str, dict] = {}
    spec = FleetSpec(
        config=FLEET_CONFIG,
        plan_dir=str(work / "fleet-plans"),
        doc_dir=str(work / "fleet-docs"),
        max_wait_ms=5.0,
    )
    acceptor = await start_fleet(spec, workers=1)
    client = await FrontendClient.connect(acceptor.host, acceptor.port)

    async def record(label: str, message: dict) -> dict:
        reply = await client.request(message)
        shapes[label] = reply_shape(reply)
        return reply

    try:
        await record("ping", {"op": "ping", "id": 1})
        await record("documents", {"op": "documents"})
        await record(
            "query", {"op": "query", "tenant": "inst-0", "query": "patient", "id": "q"}
        )
        await record(
            "authorization", {"op": "query", "tenant": "stranger", "query": "patient"}
        )
        await record("bad-request:sessions", {"op": "open", "tenant": "inst-0"})
        await record("bad-request:unknown-op", {"op": "teleport"})
        fleet = await record("fleet", {"op": "fleet"})
        metrics = await record("metrics", {"op": "metrics"})
        prometheus = await record("prometheus", {"op": "prometheus"})
        shapes["bad-request:malformed-json"] = reply_shape(
            await raw_exchange(acceptor.host, acceptor.port, b"{not json")
        )
        shapes["bad-request:non-object"] = reply_shape(
            await raw_exchange(acceptor.host, acceptor.port, b'"ping"')
        )
        acceptor.draining = True
        await record("draining", {"op": "ping", "id": "refused"})
    finally:
        await client.aclose()
        await acceptor.close()
    return {
        "replies": shapes,
        "fleet_tree": key_tree(fleet),
        "health_tree": key_tree(metrics["fleet"]),
        "prometheus": prometheus_families(prometheus["prometheus"]),
    }


def collect() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        service = build_service(work)
        try:
            # A composed width-2 wave first, so the composed-tier
            # counters and spans exist however the socket waves coalesce.
            service.submit_wave(
                [
                    QueryRequest("institute", "patient"),
                    QueryRequest("twin", "patient/parent"),
                ]
            )
            frontend = asyncio.run(frontend_shapes(service))
            snapshot = service.metrics_snapshot()
            golden = {
                "frontend": frontend,
                "metrics_tree": key_tree(snapshot.as_dict()),
                "prometheus": prometheus_families(render_prometheus(snapshot)),
                "prometheus_worker": prometheus_families(
                    render_prometheus(snapshot, worker="w0")
                ),
            }
        finally:
            service.close()
        golden["acceptor"] = asyncio.run(acceptor_shapes(work))
    return golden


def render(golden: dict) -> str:
    return json.dumps(golden, indent=1, sort_keys=True) + "\n"


def test_wire_and_metric_names_match_the_golden_file():
    assert render(collect()) == GOLDEN.read_text()


# ----------------------------------------------------------------------
# ``submit`` is a width-1 group now; its observable accounting is kept.
# ----------------------------------------------------------------------
def small_service() -> QueryService:
    doc = generate_hospital_document(HospitalConfig(num_patients=6, seed=3))
    service = QueryService(doc)
    service.register_view("research", sigma0())
    service.register_tenant("institute", "research")
    return service


def test_submit_accounts_one_request_and_no_batch():
    with small_service() as service:
        tracer = Tracer(sample_rate=1.0, slow_seconds=None)
        with tracer.trace("request"):
            answer = service.submit("institute", "patient")
        snap = service.metrics_snapshot()
        assert answer.ids() and answer.document == service.default_document_hash
        assert (snap.requests, snap.rejected) == (1, 0)
        assert (snap.batch_runs, snap.batched_queries, snap.waves) == (0, 0, 0)
        assert snap.latency.count == snap.queue_wait.count == 1
        assert snap.tenants["institute"].requests == 1
        (trace,) = tracer.store.recent(None)
        names = [span["name"] for span in trace["spans"]]
        # Recorded in the CALLER's context: one of each, under the root.
        for stage in ("plan", "docstore.resolve", "queue.wait", "evaluate"):
            assert names.count(stage) == 1, (stage, names)


def test_submit_deadline_expiry_is_counted_once():
    with small_service() as service:
        with pytest.raises(DeadlineError):  # expired before admission
            service.submit("institute", "patient", deadline_ms=0.0)
        # Admitted, then expired queued behind a full pool: ONE count each.
        blockers = [
            service.pool.dispatch(lambda: time.sleep(0.2))
            for _ in range(service.pool.size)
        ]
        with pytest.raises(DeadlineError):
            service.submit("institute", "patient", deadline_ms=50.0)
        for blocker in blockers:
            blocker.result(timeout=10)
        snap = service.metrics_snapshot()
        assert snap.rejected_kinds == {"deadline": 2}
        assert (snap.rejected, snap.requests) == (2, 0)


if __name__ == "__main__":
    sys.stdout.write(render(collect()))
