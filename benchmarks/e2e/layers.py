"""The traced run: per-layer numbers, measured from outside the program.

No span lives inside the program under test.  Layers are separated by
*onion differencing*: the same operation list is timed at each public
entry point in turn, warm state equal, and a layer's self time is its
level minus the level inside it:

    L0  FrontendClient.query / query_many     (socket, JSON, event loop)
    L1  AdmissionController.submit            (wave formation, executor hop)
    L2  QueryService.submit_wave              (authorize, plan, evaluate, account)
    L3  the service's own sequence, replayed by the benchmark from public
        calls: parse_query -> PlanCache.plan -> DocumentStore.resolve ->
        CachedPlan.compiled -> ExecutionPool.execute(BatchEvaluator.run)
    L4  BatchEvaluator.run on the caller's thread

Around L3/L4 sit direct probes of single layers (compile stages, the
document tier cold and warm, composed vs per-lane waves, a no-op pool
hop, a ping, the program's own tracer on and off).

Every measured interval is a *span* (name, start, end, parent, operation
id) kept in memory; every probe runs inside a *segment* bracketed by
reference passes (:mod:`calib`), which gives the segment's speed factor.
When the run ends the spans are written as JSONL and the printed table
is derived from that file alone (``derive``), so a kept ``--trace-out``
file reproduces the table.

Garbage collection is its own layer.  A full collection over a warm
service's heap takes ~100 ms and lands on whichever level happens to be
running, which would swamp differences of a few hundred microseconds; a
``gc.callbacks`` hook times every collection, each span records how much
of it was collector time, levels are compared net of it, and the
collector's share of L0 is reported as ``runtime.gc_us`` /
``budget.gc_share``.  (The end-to-end run leaves collections in its
latencies: a tenant feels them.)
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import json
import shutil
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

from repro.automata.compile import compile_query
from repro.compile.pipeline import QueryCompiler
from repro.compile.store import PlanStore
from repro.docstore.layout import DocumentLayout
from repro.docstore.store import DocumentStore
from repro.hype.api import ALGORITHMS
from repro.hype.core import CompiledPlan
from repro.hype.index import build_index
from repro.obs.trace import Tracer
from repro.rewrite.mfa_rewrite import rewrite_query
from repro.serve.batch import BatchEvaluator
from repro.serve.cache import ComposedCache
from repro.serve.frontend import FrontendClient, start_frontend
from repro.serve.service import QueryRequest
from repro.xpath.normalize import normal_form
from repro.xpath.parser import parse_query
from repro.xpath.unparse import unparse
from repro.xtree.parse import parse_xml

from calib import Calibrator, speed_factor
from harness import make_work_dir, print_table, result_line, slices
from workloads import DocChurn, DocQueries, SocketWorkload

clock = time.perf_counter


# ----------------------------------------------------------------------
# Span log
# ----------------------------------------------------------------------
class SpanLog:
    """In-memory spans, counts and calibrated segments; JSONL at the end."""

    def __init__(self, calibrator: Calibrator) -> None:
        self._calibrator = calibrator
        self._records: list[tuple] = []
        self._segment = -1
        self._segments: list[dict] = []
        self._counts: list[dict] = []
        self._last_pass = 0.0
        self._last_pass_at: float | None = None
        self._collections: list[tuple[float, float]] = []
        self._collecting_since = 0.0
        gc.callbacks.append(self._on_gc)

    def close(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._collecting_since = clock()
        else:
            self._collections.append((self._collecting_since, clock()))

    def _collector_seconds(self, start: float, end: float) -> float:
        """Collector time inside ``[start, end]`` (collections are in
        time order and never overlap: the collector holds the GIL)."""
        events = self._collections
        index = bisect.bisect_left(events, (start, start))
        total = 0.0
        if index and events[index - 1][1] > start:
            total += min(events[index - 1][1], end) - start
        while index < len(events) and events[index][0] < end:
            total += min(events[index][1], end) - events[index][0]
            index += 1
        return total

    @contextmanager
    def segment(self, label: str):
        """Bracket a probe with reference passes (its speed factor).

        Back-to-back segments share the pass between them."""
        self._segment = len(self._segments)
        if self._last_pass_at is not None and clock() - self._last_pass_at < 0.002:
            before = self._last_pass
        else:
            before = self._calibrator.measure()
        try:
            yield
        finally:
            after = self._last_pass = self._calibrator.measure()
            self._last_pass_at = clock()
            self._segments.append(
                {
                    "kind": "segment",
                    "seg": self._segment,
                    "label": label,
                    "calib_before": before,
                    "calib_after": after,
                    "factor": speed_factor((before, after)),
                }
            )

    def span(self, name, start, end, ops=1, parent=None, op=None) -> int:
        """Record one interval covering ``ops`` operations; returns its id."""
        self._records.append((name, start, end, ops, parent, op, self._segment))
        return len(self._records) - 1

    def count(self, name: str, value: float) -> None:
        self._counts.append({"kind": "count", "name": name, "value": value})

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for segment in self._segments:
                out.write(json.dumps(segment) + "\n")
            for ident, (name, start, end, ops, parent, op, seg) in enumerate(
                self._records
            ):
                out.write(
                    json.dumps(
                        {
                            "kind": "span",
                            "id": ident,
                            "name": name,
                            "start": start,
                            "end": end,
                            "gc": self._collector_seconds(start, end),
                            "ops": ops,
                            "parent": parent,
                            "op": op,
                            "seg": seg,
                        }
                    )
                    + "\n"
                )
            for count in self._counts:
                out.write(json.dumps(count) + "\n")


# ----------------------------------------------------------------------
# L3 / L4: the service's evaluation sequence, replayed from public calls
# ----------------------------------------------------------------------
def _compose_plan(service, lanes, meta, doc, composed):
    """Group lanes the way the service does when ``compose`` is on:
    families of (algorithm, view), members ordered by plan key."""
    if not service.compose or len(lanes) < 2:
        return [], None
    families: dict = {}
    for lane, (algorithm, view, _key) in enumerate(meta):
        families.setdefault((algorithm, view), []).append(lane)
    groups = []
    for members in families.values():
        if len(members) >= 2:
            members.sort(key=lambda lane: meta[lane][2][1:])
            groups.append(tuple(members))
    if not groups:
        return [], None
    meta_of = {id(lanes[lane]): meta[lane] for group in groups for lane in group}

    def composer(members):
        metas = [meta_of[id(plan)] for plan in members]
        return composed.kernel_for(
            members,
            tuple(m[2] for m in metas),
            metas[0][0],
            doc_key=doc.content_hash,
        )

    return groups, composer


def _discard(*_args) -> None:
    return None


def replay_wave(log, served, wave, op, level, composed=None, parent=None):
    """One wave through the service's sequence, each step a span.

    ``level`` 3 evaluates through the pool (as the service does);
    ``level`` 4 plans untimed and times only ``BatchEvaluator.run`` on
    this thread.  Returns the per-document :class:`BatchResult` list.
    """
    service = served.service
    cache = service.cache
    composed = composed if composed is not None else cache.composed
    timed = level == 3
    n = len(wave)
    span = log.span if log is not None else _discard
    started = clock()
    asts = [parse_query(r.query) for r in wave]
    parsed = clock()
    plans = [cache.plan(served.specs[r.tenant], a) for r, a in zip(wave, asts)]
    planned = clock()
    if timed:
        span("L3.parse", started, parsed, n, parent, op)
        span("L3.plan", parsed, planned, n, parent, op)
    by_doc: dict[int, list[int]] = {}
    for slot, request in enumerate(wave):
        by_doc.setdefault(request.doc, []).append(slot)
    results = []
    for doc_index, slots in by_doc.items():
        t0 = clock()
        doc = served.store.resolve(served.hashes[doc_index], uses=len(slots))
        t1 = clock()
        lanes, meta, seen = [], [], set()
        for slot in slots:
            request = wave[slot]
            algorithm = request.algorithm or service.default_algorithm
            compiled = plans[slot].compiled(algorithm, doc.tree, doc)
            if id(compiled) not in seen:
                seen.add(id(compiled))
                lanes.append(compiled)
                spec = served.specs[request.tenant]
                meta.append(
                    (
                        algorithm,
                        None if spec is None else spec.fingerprint(),
                        plans[slot].artifact.cache_key(),
                    )
                )
        groups, composer = _compose_plan(service, lanes, meta, doc, composed)
        t2 = clock()

        def evaluate():
            return BatchEvaluator(lanes, groups=groups, composer=composer).run(
                doc.tree.root, layout=doc.layout
            )

        if timed:
            pooled = service.pool.execute(evaluate)
            t3 = clock()
            span("L3.resolve", t0, t1, len(slots), parent, op)
            span("L3.compiled", t1, t2, len(slots), parent, op)
            span("L3.execute", t2, t3, len(slots), parent, op)
            span(
                "pool.queue_wait",
                pooled.enqueued,
                pooled.started,
                len(slots),
                parent,
                op,
            )
            results.append(pooled.result)
        else:
            result = evaluate()
            t3 = clock()
            span("L4.evaluate", t2, t3, len(slots), parent, op)
            results.append(result)
    if timed:
        span("L3.pass", started, clock(), n, parent, op)
    return results


def _requests(served, wave) -> list[QueryRequest]:
    return [
        QueryRequest(
            tenant=r.tenant,
            query=r.query,
            algorithm=r.algorithm,
            document=served.hashes[r.doc],
        )
        for r in wave
    ]


async def probe_levels(log: SpanLog, workload: SocketWorkload, rounds: int):
    """Time the operation list at L0..L4, ``rounds`` times over.

    The levels are interleaved slice by slice (L0..L4 of the first
    eighth, then of the second, ...), each slice inside its own
    calibrated segment: the differences between levels are taken between
    measurements made within a fraction of a second of each other.
    Returns ``(attempted, failed)`` of the L0 operations checked against
    the oracle; inner levels must at least report no rejection.
    """
    served = workload.served
    service = served.service
    admission = served.frontend.admission
    attempted = failed = 0
    for _ in range(rounds):
        # One operation list per level: a churn workload's must be fresh.
        per_level = [slices(workload.prepare()) for _level in range(5)]
        gc.collect()
        op = 0
        for index in range(len(per_level[0])):
            part = per_level[0][index]
            before = service.metrics_snapshot()
            with log.segment("L0"):
                block = await workload.block(part)
            for start, latency, wave in zip(block.starts, block.latencies, part):
                log.span("L0.client", start, start + latency, len(wave))
            _count_block(log, workload, block, before, service.metrics_snapshot())
            attempted += sum(len(wave) for wave in part)
            failed += workload.check(block)

            waves = [_requests(served, wave) for wave in per_level[1][index]]
            with log.segment("L1"):
                for offset, requests in enumerate(waves):
                    started = clock()
                    if len(requests) == 1:
                        await admission.submit(requests[0])
                    else:
                        await asyncio.gather(*map(admission.submit, requests))
                    log.span(
                        "L1.admission", started, clock(), len(requests), None, op + offset
                    )

            waves = [_requests(served, wave) for wave in per_level[2][index]]
            with log.segment("L2"):
                for offset, requests in enumerate(waves):
                    started = clock()
                    outcome = service.submit_wave(requests)
                    log.span(
                        "L2.service", started, clock(), len(requests), None, op + offset
                    )
                    failed += outcome.rejected

            with log.segment("L3"):
                for offset, wave in enumerate(per_level[3][index]):
                    replay_wave(log, served, wave, op + offset, level=3)

            with log.segment("L4"):
                for offset, wave in enumerate(per_level[4][index]):
                    replay_wave(log, served, wave, op + offset, level=4)
            op += len(part)
    return attempted, failed


def _count_block(log, workload, block, before, after) -> None:
    """Counters over one L0 block, from replies and ``metrics_snapshot``."""
    lookups = after.cache.lookups - before.cache.lookups
    log.count("cache.lookups", lookups)
    log.count("cache.l1_hits", after.cache.hits - before.cache.hits)
    log.count("cache.misses", after.cache.misses - before.cache.misses)
    log.count("cache.evictions", after.cache.evictions - before.cache.evictions)
    log.count("cache.composed_hits", after.composed_hits - before.composed_hits)
    log.count("cache.composed_builds", after.composed_builds - before.composed_builds)
    log.count("compose.fallbacks", after.composed_fallbacks - before.composed_fallbacks)
    log.count("compose.interned_ccfgs", after.interned_ccfgs)
    log.count("admission.waves", after.waves - before.waves)
    log.count("admission.wave_requests", after.wave_requests - before.wave_requests)
    log.count("service.rejected", after.rejected - before.rejected)
    log.count(
        "docstore.index_builds", after.doc_index_builds - before.doc_index_builds
    )
    log.count(
        "docstore.evictions",
        after.doc_store.evictions - before.doc_store.evictions,
    )
    partial = 0
    for _request, reply in block.replies:
        log.count("frontend.reply_bytes", len(json.dumps(reply)) + 1)
        partial += reply.get("wave", {}).get("size") != workload.burst
    log.count("admission.partial_waves", partial)


# ----------------------------------------------------------------------
# Single-layer probes
# ----------------------------------------------------------------------
def _distinct_queries(workload, limit: int) -> list:
    """One request per distinct (view or direct, query text), in op order."""
    distinct: dict = {}
    for wave in workload.prepare():
        for request in wave:
            if len(distinct) < limit:
                distinct.setdefault((request.on_view, request.query), request)
    return list(distinct.values())


def _chunks(items: list, size: int):
    """``(first index, chunk)`` runs of ``items``: one calibrated segment
    each, so no segment outlasts the host's mood."""
    for first in range(0, len(items), size):
        yield first, items[first : first + size]


def probe_descent(log: SpanLog, workload: SocketWorkload) -> None:
    """``CompiledPlan.run`` per request under each algorithm, warm; then
    the first run of a freshly built plan (cold)."""
    served = workload.served
    cache = served.service.cache
    requests = [r for wave in workload.prepare() for r in wave]
    elements = [
        sum(1 for node in oracle.tree.nodes if node.is_element)
        for oracle in workload.documents
    ]
    planned = []
    for request in requests:
        doc = served.store.resolve(served.hashes[request.doc])
        plan = cache.plan(served.specs[request.tenant], request.query)
        planned.append((request, doc, plan))
    for algorithm in ALGORITHMS:
        runs = [
            (plan.compiled(algorithm, doc.tree, doc), doc, request)
            for request, doc, plan in planned
        ]
        for compiled, doc, _request in runs:  # fill lazy tables, untimed
            compiled.run(doc.tree.root, layout=doc.layout)
        for first, chunk in _chunks(runs, 16):
            with log.segment(f"hype.{algorithm}"):
                for op, (compiled, doc, request) in enumerate(chunk, first):
                    started = clock()
                    result = compiled.run(doc.tree.root, layout=doc.layout)
                    log.span(f"hype.run.{algorithm}", started, clock(), 1, None, op)
                    log.count("hype.visited", result.stats.visited_elements)
                    log.count("hype.elements", elements[request.doc])
    cold = {}
    for request, doc, plan in planned:
        for algorithm in ALGORITHMS:
            if len(cold) < 48:
                cold.setdefault(
                    (id(plan), algorithm, request.doc), (plan, doc, algorithm)
                )
    for first, chunk in _chunks(list(cold.values()), 16):
        with log.segment("hype.cold"):
            for op, (plan, doc, algorithm) in enumerate(chunk, first):
                fresh = CompiledPlan.for_algorithm(
                    plan.mfa, algorithm, doc.tree, doc, kernel=plan.artifact.kernel
                )
                started = clock()
                fresh.run(doc.tree.root, layout=doc.layout)
                log.span("hype.cold", started, clock(), 1, None, op)


def probe_compile(log: SpanLog, workload: SocketWorkload, work_dir: Path) -> None:
    """The compile pipeline stage by stage, and the on-disk plan tier."""
    served = workload.served
    cache = served.service.cache
    distinct = _distinct_queries(workload, 64)
    repeats = max(1, 48 // len(distinct))
    store = PlanStore(work_dir / "plans")
    compiler = QueryCompiler()
    for op, request in enumerate(distinct):
        spec = served.specs[request.tenant]
        with log.segment("compile"):
            for _ in range(repeats):
                t0 = clock()
                tree = parse_query(request.query)
                t1 = clock()
                normal = normal_form(tree)
                text = unparse(normal)
                t2 = clock()
                if spec is None:
                    compile_query(normal, description=text)
                else:
                    rewrite_query(spec, normal, trim=False)
                t3 = clock()
                artifact = compiler.compile(spec, request.query)
                t4 = clock()
                log.span("xpath.parse", t0, t1, 1, None, op)
                log.span("xpath.normalize", t1, t2, 1, None, op)
                log.span("rewrite.rewrite", t2, t3, 1, None, op)
                log.span("compile.compile", t3, t4, 1, None, op)
            ast = parse_query(request.query)
            cache.plan(spec, ast)
            started = clock()
            for _ in range(20):
                cache.plan(spec, ast)
            log.span("cache.plan_hit", started, clock(), 20, None, op)
            key = artifact.cache_key()
            t5 = clock()
            store.save(key, artifact)
            t6 = clock()
            loaded = store.load(key)
            t7 = clock()
            if loaded is None:
                raise RuntimeError("plan store lost an artifact it just saved")
            log.span("compile.store_save", t5, t6, 1, None, op)
            log.span("compile.store_load", t6, t7, 1, None, op)
            log.count("compile.mfa_states", artifact.mfa.size())
            log.count("compile.artifact_bytes", len(artifact.to_bytes()))


def probe_docstore(log: SpanLog, workload, work_dir: Path) -> None:
    """The document tier, cold (ingest, its parts, persist, re-open) and
    warm (resolve hits), over the workload's own documents."""
    for op, oracle in enumerate(workload.documents[:4]):
        with log.segment("docstore"):
            root = work_dir / f"docprobe-{op}"
            t0 = clock()
            store = DocumentStore(index_dir=root)
            doc = store.get(oracle.xml)
            t1 = clock()
            tree = parse_xml(oracle.xml)
            t2 = clock()
            DocumentLayout(tree)
            t3 = clock()
            plain = build_index(tree, compressed=False)
            packed = build_index(tree, compressed=True)
            t4 = clock()
            store.tier.save(doc.content_hash, False, plain)
            store.tier.save(doc.content_hash, True, packed)
            store.tier.save_layout(doc.content_hash, doc.layout)
            t5 = clock()
            reopened = DocumentStore(index_dir=root)
            again = reopened.get(oracle.xml)
            again.index_for(False)
            again.index_for(True)
            t6 = clock()
            for _ in range(500):
                store.resolve(doc.content_hash)
            t7 = clock()
            log.span("docstore.ingest", t0, t1, 1, None, op)
            log.span("docstore.parse", t1, t2, 1, None, op)
            log.span("docstore.layout", t2, t3, 1, None, op)
            log.span("docstore.index_build", t3, t4, 1, None, op)
            log.span("docstore.tier_save", t4, t5, 1, None, op)
            log.span("docstore.tier_load", t5, t6, 1, None, op)
            log.span("docstore.resolve", t6, t7, 500, None, op)
            if reopened.snapshot_stats().index_builds:
                raise RuntimeError("re-opened document tier rebuilt an index")
            stored = sum(f.stat().st_size for f in root.iterdir())
            log.count("docstore.stored_bytes", stored)
            log.count("docstore.nodes", tree.size)
            shutil.rmtree(root, ignore_errors=True)


def probe_waves(log: SpanLog, workload: SocketWorkload) -> None:
    """The same waves of 8 stepped per lane and as one composed machine."""
    served = workload.served
    service = served.service
    by_doc: dict[int, list] = {}
    for wave in workload.prepare():
        for request in wave:
            by_doc.setdefault(request.doc, []).append(request)
    waves = [
        requests[i : i + 8]
        for requests in by_doc.values()
        for i in range(0, len(requests) - 7, 8)
    ][:48]
    composed = ComposedCache()
    was_composing = service.compose
    try:
        for compose, name in ((False, "batch.wave"), (True, "compose.wave")):
            service.compose = compose
            for wave in waves:  # build kernels / fill tables, untimed
                replay_wave(None, served, wave, None, 4, composed)
            with log.segment(name):
                for op, wave in enumerate(waves):
                    started = clock()
                    (result,) = replay_wave(None, served, wave, op, 4, composed)
                    log.span(name, started, clock(), len(wave), None, op)
                    stats = result.stats
                    if compose:
                        log.count("compose.lane_steps", stats.sequential_visited)
                        log.count("compose.fallbacks", stats.composed_fallbacks)
                    else:
                        log.count("batch.sequential", stats.sequential_visited)
                        log.count("batch.saved", stats.saved_visits)
    finally:
        service.compose = was_composing
    # Build cost: recompose every cached kernel shape from scratch.
    fresh = ComposedCache()
    service.compose = True
    try:
        with log.segment("compose.build"):
            for op, wave in enumerate(waves):
                builds = fresh.stats.builds
                started = clock()
                replay_wave(None, served, wave, op, 4, fresh)
                if fresh.stats.builds != builds:
                    log.span("compose.build", started, clock(), 1, None, op)
    finally:
        service.compose = was_composing


async def probe_hops(log: SpanLog, workload: SocketWorkload) -> None:
    """A no-op through the evaluation pool; a ping over the socket."""
    pool = workload.served.service.pool
    client = workload.served.client
    with log.segment("hops"):
        started = clock()
        for _ in range(400):
            pool.execute(_noop)
        log.span("pool.noop", started, clock(), 400)
        started = clock()
        for _ in range(400):
            await client.ping()
        log.span("frontend.ping", started, clock(), 400)


def _noop() -> None:
    return None


async def probe_tracing(log: SpanLog, workload: SocketWorkload) -> None:
    """Whole blocks with the program's own tracer off, then on."""
    served = workload.served
    traced = await start_frontend(
        served.service, admission=workload.admission, tracer=Tracer(1.0)
    )
    plain_client = served.client
    traced_client = await FrontendClient.connect(traced.host, traced.port)
    try:
        for name, client in (
            ("obs.block.off", plain_client),
            ("obs.block.on", traced_client),
        ) * 2:
            served.client = client
            ops = workload.prepare()
            with log.segment(name):
                started = clock()
                await workload.block(ops)
                log.span(name, started, clock(), workload.ops_per_block)
    finally:
        served.client = plain_client
        await traced_client.aclose()
        await traced.close()


async def probe_doc_ops(log: SpanLog, churn: DocChurn, rounds: int):
    """``doc_churn``'s own operation, its inner boundaries as child spans."""
    attempted = failed = 0
    problems = []
    for _ in range(rounds):
        ops = churn.prepare()
        tier = ops[0][0]
        with log.segment("doc_churn.op"):
            block = await churn.block(ops)
        for op, (start, latency, (ingested, cataloged)) in enumerate(
            zip(block.starts, block.latencies, block.steps)
        ):
            parent = log.span("op", start, start + latency, 1, None, op)
            log.span("op.ingest", start, ingested, 1, parent, op)
            log.span("op.catalog", ingested, cataloged, 1, parent, op)
            log.span("op.queries", cataloged, start + latency, 1, parent, op)
        stats = tier.store.snapshot_stats()
        log.count("docchurn.index_builds", stats.index_builds)
        log.count("docchurn.evictions", stats.evictions)
        attempted += churn.ops_per_block
        failed += churn.check(block)
        problems += churn.finish(ops)
    return attempted, failed, problems


# ----------------------------------------------------------------------
# Derivation: JSONL -> the per-layer table
# ----------------------------------------------------------------------
def derive(path: Path) -> dict[str, float]:
    """Every per-layer metric, from the span file alone."""
    factors: dict[int, float] = {}
    seconds: dict[str, float] = {}  # adjusted, summed per span name
    raw: dict[str, float] = {}
    ops: dict[str, int] = {}
    sums: dict[str, float] = {}
    last: dict[str, float] = {}
    spans = []
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            record = json.loads(line)
            if record["kind"] == "segment":
                factors[record["seg"]] = record["factor"]
            elif record["kind"] == "span":
                spans.append(record)
            else:
                sums[record["name"]] = sums.get(record["name"], 0.0) + record["value"]
                last[record["name"]] = record["value"]
    collector: dict[str, float] = {}  # adjusted collector time per span name
    for span in spans:
        name = span["name"]
        factor = factors[span["seg"]]
        duration = span["end"] - span["start"]
        seconds[name] = seconds.get(name, 0.0) + (duration - span["gc"]) / factor
        collector[name] = collector.get(name, 0.0) + span["gc"] / factor
        raw[name] = raw.get(name, 0.0) + duration
        ops[name] = ops.get(name, 0) + span["ops"]

    def per_op(name: str, scale: float = 1e6) -> float:
        """Adjusted time per operation (µs by default); 0 when unmeasured."""
        return scale * seconds[name] / ops[name] if ops.get(name) else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    level = {k: per_op(n) for k, n in (
        (0, "L0.client"), (1, "L1.admission"), (2, "L2.service"),
        (3, "L3.pass"), (4, "L4.evaluate"),
    )}
    wire = level[0] - level[1]
    admission = level[1] - level[2]
    service = level[2] - level[3]
    parts = {
        n: per_op(n)
        for n in ("L3.parse", "L3.plan", "L3.resolve", "L3.compiled", "L3.execute")
    }
    hop = per_op("pool.noop")
    in_pass_hop = parts["L3.execute"] - level[4]
    doc_op = "op" in ops
    top = "op" if doc_op else "L0.client"
    # Collector time per operation; budget shares are of the operation as
    # the tenant feels it, collections included.  Which level a collection
    # lands on is an accident of allocation counts and every level does
    # the request's allocating, so the socket levels share one average.
    levels = ("op",) if doc_op else (
        "L0.client", "L1.admission", "L2.service", "L3.pass", "L4.evaluate"
    )
    gc_us = 1e6 * ratio(
        sum(collector.get(n, 0.0) for n in levels), sum(ops.get(n, 0) for n in levels)
    )
    if doc_op:
        # doc_churn's operation is in-process: its budget is the op's own
        # child spans; the socket levels above describe its read side.
        l0 = per_op("op") + gc_us
        ingest, catalog, queries = (
            per_op("op.ingest"), per_op("op.catalog"), per_op("op.queries")
        )
        cold_index = 1e3 * (
            per_op("docstore.index_build", 1e3) + per_op("docstore.tier_save", 1e3)
        )
        docstore_self = ingest + catalog + min(cold_index, queries)
        shares = {
            "budget.hype_share": ratio(3 * level[4], l0),
            "budget.compile_share": ratio(3 * (parts["L3.parse"] + parts["L3.plan"]), l0),
            "budget.docstore_share": ratio(docstore_self, l0),
            "budget.serve_share": ratio(3 * (service + in_pass_hop), l0),
        }
        attributed = ratio(ingest + catalog + queries + gc_us, l0)
        negatives = [service, in_pass_hop]
    else:
        l0 = level[0] + gc_us
        shares = {
            "budget.hype_share": ratio(level[4], l0),
            "budget.compile_share": ratio(parts["L3.parse"] + parts["L3.plan"], l0),
            "budget.docstore_share": ratio(parts["L3.resolve"] + parts["L3.compiled"], l0),
            "budget.serve_share": ratio(wire + admission + service + hop, l0),
        }
        # The reconciliation: outer differences plus the parts measured on
        # their own (hop as a no-op, descent on this thread) against L0.
        attributed = ratio(
            wire + admission + service + parts["L3.parse"] + parts["L3.plan"]
            + parts["L3.resolve"] + parts["L3.compiled"] + hop + level[4] + gc_us,
            l0,
        )
        negatives = [wire, admission, service, in_pass_hop]
    by_algorithm = {a: per_op(f"hype.run.{a}") for a in ALGORITHMS}
    run_seconds = sum(seconds.get(f"hype.run.{a}", 0.0) for a in ALGORITHMS)
    compile_us = per_op("compile.compile")
    off, on = per_op("obs.block.off"), per_op("obs.block.on")
    all_factors = sorted(factors.values())
    metrics = {
        "frontend.wire_us": wire,
        "frontend.ping_us": per_op("frontend.ping"),
        "frontend.reply_bytes": ratio(
            sums.get("frontend.reply_bytes", 0.0), ops.get("L0.client", 0)
        ),
        "admission.self_us": admission,
        "admission.mean_wave_size": ratio(
            sums.get("admission.wave_requests", 0.0), sums.get("admission.waves", 0.0)
        ),
        "admission.partial_waves": sums.get("admission.partial_waves", 0.0),
        "service.self_us": service,
        "service.rejected": sums.get("service.rejected", 0.0),
        "cache.plan_hit_us": per_op("cache.plan_hit"),
        "cache.l1_hit_rate": ratio(
            sums.get("cache.l1_hits", 0.0), sums.get("cache.lookups", 0.0)
        ),
        "cache.misses": sums.get("cache.misses", 0.0),
        "cache.evictions": sums.get("cache.evictions", 0.0),
        "cache.composed_hit_rate": ratio(
            sums.get("cache.composed_hits", 0.0),
            sums.get("cache.composed_hits", 0.0) + sums.get("cache.composed_builds", 0.0),
        ),
        "cache.composed_builds": sums.get("cache.composed_builds", 0.0),
        "xpath.parse_us": per_op("xpath.parse"),
        "xpath.normalize_us": per_op("xpath.normalize"),
        "rewrite.rewrite_us": per_op("rewrite.rewrite"),
        "compile.compile_us": compile_us,
        "compile.other_us": compile_us
        - per_op("xpath.parse") - per_op("xpath.normalize") - per_op("rewrite.rewrite"),
        "compile.mfa_states": ratio(
            sums.get("compile.mfa_states", 0.0), ops.get("compile.store_save", 0)
        ),
        "compile.store_save_us": per_op("compile.store_save"),
        "compile.store_load_us": per_op("compile.store_load"),
        "compile.artifact_bytes": ratio(
            sums.get("compile.artifact_bytes", 0.0), ops.get("compile.store_save", 0)
        ),
        "docstore.ingest_ms": per_op("docstore.ingest", 1e3),
        "docstore.parse_ms": per_op("docstore.parse", 1e3),
        "docstore.layout_ms": per_op("docstore.layout", 1e3),
        "docstore.index_build_ms": per_op("docstore.index_build", 1e3),
        "docstore.tier_save_ms": per_op("docstore.tier_save", 1e3),
        "docstore.tier_load_ms": per_op("docstore.tier_load", 1e3),
        "docstore.resolve_us": per_op("docstore.resolve"),
        "docstore.bytes_per_node": ratio(
            sums.get("docstore.stored_bytes", 0.0), sums.get("docstore.nodes", 0.0)
        ),
        "docstore.index_builds": sums.get(
            "docchurn.index_builds", sums.get("docstore.index_builds", 0.0)
        ),
        "docstore.evictions": sums.get(
            "docchurn.evictions", sums.get("docstore.evictions", 0.0)
        ),
        "pool.hop_us": hop,
        "pool.queue_wait_us": per_op("pool.queue_wait"),
        "hype.descent_us": level[4],
        "hype.descent_us.hype": by_algorithm["hype"],
        "hype.descent_us.opthype": by_algorithm["opthype"],
        "hype.descent_us.opthype-c": by_algorithm["opthype-c"],
        "hype.elements_per_s": ratio(sums.get("hype.visited", 0.0), run_seconds),
        "hype.visited_share": ratio(
            sums.get("hype.visited", 0.0), sums.get("hype.elements", 0.0)
        ),
        "hype.cold_descent_us": per_op("hype.cold"),
        "batch.wave_us": per_op("batch.wave"),
        "batch.saved_visit_share": ratio(
            sums.get("batch.saved", 0.0), sums.get("batch.sequential", 0.0)
        ),
        "compose.wave_us": per_op("compose.wave"),
        "compose.lane_steps_per_s": ratio(
            sums.get("compose.lane_steps", 0.0), seconds.get("compose.wave", 0.0)
        ),
        "compose.build_us": per_op("compose.build"),
        "compose.interned_ccfgs": last.get("compose.interned_ccfgs", 0.0),
        "compose.fallbacks": sums.get("compose.fallbacks", 0.0),
        "obs.tracing_overhead_share": ratio(on, off) - 1.0 if off else 0.0,
        "runtime.gc_us": gc_us,
        **shares,
        "budget.gc_share": ratio(gc_us, l0),
        "budget.attributed_share": attributed,
        "budget.largest_negative_us": min(0.0, *negatives),
        "host.speed_factor_p50": statistics.median(all_factors),
        "host.speed_factor_spread": all_factors[-1] / all_factors[0] - 1.0,
        "host.raw_throughput_ops_s": ratio(ops.get(top, 0), raw.get(top, 0.0)),
    }
    return metrics


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
async def traced_run(args, workload, calibrator: Calibrator, declared: dict) -> int:
    work_dir = make_work_dir()
    log = SpanLog(calibrator)
    rounds = max(1, round(args.seconds / 5))
    problems: list[str] = []
    attempted = failed = 0
    if isinstance(workload, DocChurn):
        for _ in range(workload.warmup_blocks):
            ops = workload.prepare()
            await workload.block(ops)
            workload.finish(ops)
        attempted, failed, problems = await probe_doc_ops(log, workload, rounds)
        sockets: SocketWorkload = DocQueries(workload)
    else:
        sockets = workload
    await sockets.setup()
    try:
        for _ in range(sockets.warmup_blocks):
            await sockets.block(sockets.prepare())
        checked, wrong = await probe_levels(log, sockets, rounds)
        failed += wrong
        if sockets is workload:
            attempted = checked
        probe_descent(log, sockets)
        probe_compile(log, sockets, work_dir)
        probe_docstore(log, workload, work_dir)
        probe_waves(log, sockets)
        await probe_hops(log, sockets)
        await probe_tracing(log, sockets)
    finally:
        await sockets.teardown()

    log.close()
    path = Path(args.trace_out) if args.trace_out else work_dir / "trace.jsonl"
    log.write(path)
    metrics = derive(path)
    if metrics["compose.fallbacks"]:
        problems.append("compose.fallbacks != 0")
    if metrics["admission.partial_waves"]:
        problems.append("admission.partial_waves != 0")
    rows = [(e["name"], metrics[e["name"]], e["unit"]) for e in declared["per_layer"]]
    print_table(
        f"per layer - {workload.name} (per operation, at reference host "
        f"speed; derived from {path.name})",
        rows,
    )
    for problem in problems:
        print(f"GUARD RAIL VIOLATED: {problem}")
    correct = failed == 0 and not problems
    print()
    print(result_line(metrics, declared["per_layer"], correct, attempted, failed))
    return 0 if correct else 1
