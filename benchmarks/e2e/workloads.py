"""The five workloads: inputs, program set-up, one block, answer checks.

A workload is a fixed *operation list* (made from the seed, see
:mod:`inputs`) that one **block** executes once, closed loop, on one
connection.  The harness repeats blocks; every block of a workload does
the same work, so block times are comparable and per-operation latencies
pool across blocks.

Four workloads drive the NDJSON frontend over a loopback socket from the
same asyncio loop that hosts it (``Served``); ``doc_churn`` drives the
document tier in-process because the wire protocol has no ingest op.
Timers never decide a measured number: request-at-a-time workloads run
``AdmissionConfig(max_wave=1, max_wait=0)`` and the wave workload sends
bursts of exactly ``max_wave`` so waves dispatch by *fill*.
"""

from __future__ import annotations

import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.docstore.store import DocumentStore
from repro.errors import ReproError
from repro.hype.api import HYPE, OPTHYPE, OPTHYPE_C
from repro.serve.admission import AdmissionConfig
from repro.serve.cache import PlanCache
from repro.serve.frontend import FrontendClient, QueryFrontend, start_frontend
from repro.serve.service import QueryService
from repro.views import sigma0
from repro.workloads import FIG8B, VIEW_QUERIES

from inputs import (
    ADMIN,
    CHURN_TEMPLATES,
    Oracle,
    Request,
    churn_requests,
    sized_document,
    traffic_requests,
)

#: Held far above any burst's service time: a wave that dispatches on
#: this timer instead of by fill shows up as a partial wave and a failed
#: guard rail, never as a quietly different latency.
WAVE_MAX_WAIT_S = 30.0


@dataclass
class Block:
    """What one executed block hands back to the harness."""

    #: One sample per latency-bearing unit (a request, or a burst).
    latencies: list[float]
    #: ``(request, reply)`` pairs still to be checked against the oracle.
    replies: list[tuple[Request, dict]] = field(default_factory=list)
    #: ``perf_counter`` instant each latency sample started at (the
    #: traced run turns samples into spans).
    starts: list[float] = field(default_factory=list)
    #: ``doc_churn`` only: per operation, the instants ingest and
    #: cataloguing ended (the op's inner layer boundaries).
    steps: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class Served:
    """A live program instance behind a loopback socket."""

    service: QueryService
    store: DocumentStore
    frontend: QueryFrontend
    client: FrontendClient
    #: tenant -> its ViewSpec (``None`` for the direct-access admin).
    specs: dict
    #: document index -> content hash.
    hashes: list[str]

    async def close(self) -> None:
        await self.client.aclose()
        await self.frontend.close()
        self.service.close()


async def serve(
    documents: list[Oracle],
    tenants: dict[str, str | None],
    admission: AdmissionConfig,
    compose: bool = False,
) -> Served:
    """Ingest ``documents``, register ``tenants`` (tenant -> view name or
    ``None``), start the frontend on an ephemeral port and connect."""
    store = DocumentStore()
    docs = [store.get(oracle.xml) for oracle in documents]
    service = QueryService(docs[0], document_store=store, compose=compose)
    hashes = [service.default_document_hash]
    hashes += [service.add_document(doc) for doc in docs[1:]]
    views = {view: sigma0() for view in tenants.values() if view is not None}
    for view, spec in views.items():
        service.register_view(view, spec)
    for tenant, view in tenants.items():
        service.register_tenant(tenant, view, documents=tuple(hashes))
    specs = {tenant: views.get(view) for tenant, view in tenants.items()}
    frontend = await start_frontend(service, admission=admission)
    client = await FrontendClient.connect(frontend.host, frontend.port)
    return Served(service, store, frontend, client, specs, hashes)


class Workload:
    """Base: the contract the harness and the layer probes rely on."""

    name = ""
    #: What one operation is (for the printed table).
    operation = "request"
    #: Requests per latency sample (1, or the burst width).
    burst = 1
    setups = 3
    warmup_blocks = 2

    def __init__(self, seed: int, smoke: bool, work_dir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.work_dir = work_dir
        if smoke:
            self.setups = 1
            self.warmup_blocks = 1
        self.documents: list[Oracle] = []
        self.served: Served | None = None

    # -- sizes ----------------------------------------------------------
    @property
    def ops_per_block(self) -> int:
        raise NotImplementedError

    # -- life cycle -----------------------------------------------------
    async def setup(self) -> None:
        raise NotImplementedError

    async def teardown(self) -> None:
        if self.served is not None:
            await self.served.close()
            self.served = None

    def prepare(self):
        """Untimed: the operation list of the next block."""
        raise NotImplementedError

    async def block(self, ops) -> Block:
        raise NotImplementedError

    def finish(self, ops) -> list[str]:
        """Untimed, after a block: release what ``prepare`` made; returns
        guard-rail violations seen in that block."""
        return []

    # -- checking -------------------------------------------------------
    def check(self, block: Block) -> int:
        """Failed operations in ``block`` (answers compared to the oracle)."""
        failed = 0
        for request, reply in block.replies:
            if not self.documents[request.doc].matches(request, reply):
                failed += 1
        return failed

    def counters(self) -> dict:
        """Program counters the guard rails read (cumulative)."""
        snapshot = self.served.service.metrics_snapshot()
        return {
            "cache.hits": snapshot.cache.hits,
            "cache.misses": snapshot.cache.misses,
            "compose.fallbacks": snapshot.composed_fallbacks,
            "service.rejected": snapshot.rejected,
        }

    def guard_rails(self, before: dict, after: dict) -> list[str]:
        """Violations over the timed phase (counter deltas)."""
        problems = []
        if after["compose.fallbacks"] != before["compose.fallbacks"]:
            problems.append("compose.fallbacks != 0")
        if after["service.rejected"] != before["service.rejected"]:
            problems.append("service.rejected != 0")
        return problems


# ----------------------------------------------------------------------
# Socket workloads
# ----------------------------------------------------------------------
class SocketWorkload(Workload):
    """Shared driver: waves of requests over one client connection."""

    admission = AdmissionConfig(max_wave=1, max_wait=0)
    compose = False
    #: tenant -> view name (``None`` = direct source access).
    tenants: dict[str, str | None] = {}

    async def setup(self) -> None:
        self.served = await serve(
            self.documents, self.tenants, self.admission, compose=self.compose
        )

    def waves(self, requests: list[Request]) -> list[list[Request]]:
        return [
            requests[i : i + self.burst]
            for i in range(0, len(requests), self.burst)
        ]

    async def block(self, ops: list[list[Request]]) -> Block:
        client = self.served.client
        hashes = self.served.hashes
        latencies = []
        replies = []
        starts = []
        clock = time.perf_counter
        if self.burst == 1:
            for (request,) in ops:
                started = clock()
                reply = await client.query(
                    request.tenant,
                    request.query,
                    algorithm=request.algorithm,
                    document=hashes[request.doc],
                )
                latencies.append(clock() - started)
                starts.append(started)
                replies.append((request, reply))
            return Block(latencies, replies, starts)
        for wave in ops:
            payloads = [
                {
                    "tenant": r.tenant,
                    "query": r.query,
                    "document": hashes[r.doc],
                }
                for r in wave
            ]
            started = clock()
            answers = await client.query_many(payloads)
            latencies.append(clock() - started)
            starts.append(started)
            replies.extend(zip(wave, answers))
        return Block(latencies, replies, starts)


#: Tiny documents: 2 patients, and exactly one of them visible through
#: σ0.  A workload uses ``TINY_DOCUMENTS`` of them, requests dealt
#: evenly, because how much of a 2-patient document a query descends
#: varies by ±20 % from one document to the next.
TINY = dict(patients=2, target_nodes=180, tolerance=0.05, view_patients=(1, 1))
TINY_DOCUMENTS = 16


class HotTraffic(SocketWorkload):
    """Warm plans, request at a time: the ``workloads.traffic`` mix."""

    tenants = {f"inst-{i}": f"research-{i}" for i in range(4)} | {ADMIN: None}
    document = TINY
    document_count = 1
    copies = 1

    def __init__(self, seed: int, smoke: bool, work_dir: Path) -> None:
        super().__init__(seed, smoke, work_dir)
        rng = random.Random(f"{self.name}/{seed}")
        if smoke:
            self.copies = 1
            self.document_count = min(self.document_count, 2)
        self.documents = [
            sized_document(rng, **self.document)
            for _ in range(self.document_count)
        ]
        view_tenants = [t for t, v in self.tenants.items() if v is not None]
        self._ops = self.waves(
            traffic_requests(
                rng, self.copies, view_tenants, documents=len(self.documents)
            )
        )

    @property
    def ops_per_block(self) -> int:
        return len(self._ops)

    def prepare(self):
        return self._ops

    def guard_rails(self, before: dict, after: dict) -> list[str]:
        problems = super().guard_rails(before, after)
        if after["cache.misses"] != before["cache.misses"]:
            problems.append("cache.misses != 0 in timed blocks")
        return problems


class DescentHot(HotTraffic):
    name = "descent_hot"
    # 10 763 elements plus their text nodes; σ0 shows about a quarter of
    # the 200 in-patients.  Four documents, requests dealt evenly: how
    # much of one such document the mix visits varies ±2 % by seed.
    document = dict(
        patients=200, target_nodes=16951, tolerance=0.02, view_patients=(50, 60)
    )
    document_count = 4
    copies = 1  # 96 requests/block

    def __init__(self, seed: int, smoke: bool, work_dir: Path) -> None:
        if smoke:
            self.document = dict(patients=12, target_nodes=1050, tolerance=0.1)
        super().__init__(seed, smoke, work_dir)


class RequestOverhead(HotTraffic):
    name = "request_overhead"
    document_count = TINY_DOCUMENTS
    copies = 9  # 864 requests/block


class WaveSkew(SocketWorkload):
    name = "wave_skew"
    operation = "request (latency sample = its burst)"
    burst = 8
    admission = AdmissionConfig(max_wave=8, max_wait=WAVE_MAX_WAIT_S)
    compose = True
    tenants = {f"inst-{i}": "research" for i in range(4)} | {ADMIN: None}
    zipf_s = 1.2

    def __init__(self, seed: int, smoke: bool, work_dir: Path) -> None:
        super().__init__(seed, smoke, work_dir)
        self.partial_waves = 0
        rng = random.Random(f"{self.name}/{seed}")
        document = dict(
            patients=60, target_nodes=5085, tolerance=0.02, view_patients=(14, 18)
        )
        copies = 4  # 384 requests = 48 bursts/block
        if smoke:
            document = dict(patients=6, target_nodes=520, tolerance=0.15)
            copies = 1
        self.documents = [sized_document(rng, **document) for _ in range(4)]
        view_tenants = [t for t, v in self.tenants.items() if v is not None]
        self._ops = self.waves(
            traffic_requests(
                rng, copies, view_tenants,
                documents=len(self.documents), zipf_s=self.zipf_s,
                rotate_algorithms=False,
            )
        )

    @property
    def ops_per_block(self) -> int:
        return sum(len(wave) for wave in self._ops)

    def prepare(self):
        return self._ops

    def check(self, block: Block) -> int:
        failed = super().check(block)
        self.partial_waves += sum(
            1
            for _request, reply in block.replies
            if reply.get("wave", {}).get("size") != self.burst
        )
        return failed

    def guard_rails(self, before: dict, after: dict) -> list[str]:
        problems = super().guard_rails(before, after)
        if after["cache.misses"] != before["cache.misses"]:
            problems.append("cache.misses != 0 in timed blocks")
        if self.partial_waves:
            problems.append(
                f"admission.partial_waves == {self.partial_waves} (must be 0)"
            )
        return problems


class PlanChurn(SocketWorkload):
    name = "plan_churn"
    tenants = {f"inst-{i}": f"research-{i}" for i in range(4)}
    #: Check one reply in this many against the oracle (the rest must
    #: still be ``ok``): the naive evaluator re-parses each unique text.
    check_every = 16

    def __init__(self, seed: int, smoke: bool, work_dir: Path) -> None:
        super().__init__(seed, smoke, work_dir)
        rng = random.Random(f"{self.name}/{seed}")
        self.documents = [
            sized_document(rng, **TINY)
            for _ in range(2 if smoke else TINY_DOCUMENTS)
        ]
        per_template = 4 if smoke else 32  # 256 requests/block
        order = [
            (template, rng.choice(sorted(self.tenants)), i % len(self.documents))
            for template in range(len(CHURN_TEMPLATES))
            for i in range(per_template)
        ]
        rng.shuffle(order)
        self._order = order
        self._tag = f"k{seed}n"
        self._next = 0
        self._check_rng = random.Random(f"{self.name}/check/{seed}")

    @property
    def ops_per_block(self) -> int:
        return len(self._order)

    def prepare(self):
        first = self._next
        self._next += len(self._order)
        return self.waves(churn_requests(self._order, self._tag, first))

    def check(self, block: Block) -> int:
        failed = 0
        for request, reply in block.replies:
            if reply.get("ok") is not True:
                failed += 1
            elif self._check_rng.randrange(self.check_every) == 0:
                failed += not self.documents[request.doc].matches(request, reply)
        return failed

    def guard_rails(self, before: dict, after: dict) -> list[str]:
        problems = super().guard_rails(before, after)
        if after["cache.hits"] != before["cache.hits"]:
            problems.append("cache.l1_hit_rate != 0 (a query text repeated)")
        return problems


# ----------------------------------------------------------------------
# The document tier as a write path
# ----------------------------------------------------------------------
#: Per ingested document: one query per algorithm, so both OptHyPE index
#: variants are built (and persisted) for every document.
DOC_QUERIES = (
    ("inst-0", VIEW_QUERIES["example-1.1"], HYPE),
    (ADMIN, FIG8B, OPTHYPE),
    ("inst-0", VIEW_QUERIES["ancestors"], OPTHYPE_C),
)


@dataclass
class DocTier:
    """One block's fresh document tier and the service in front of it."""

    root: Path
    store: DocumentStore
    service: QueryService
    #: Hashes ingested so far: the tenants' growing catalog.
    catalog: tuple[str, ...] = ()


class DocChurn(Workload):
    name = "doc_churn"
    operation = "ingest + catalog + 3 queries"
    #: Half the documents of a block: the LRU evicts through the second half.
    store_capacity = 8
    check_every = 16

    def __init__(self, seed: int, smoke: bool, work_dir: Path) -> None:
        super().__init__(seed, smoke, work_dir)
        rng = random.Random(f"{self.name}/{seed}")
        count, patients, target, tolerance = 16, 40, 3400, 0.03
        if smoke:
            count, patients, target, tolerance = 4, 6, 520, 0.15
        self.documents = [
            sized_document(rng, patients, target, tolerance) for _ in range(count)
        ]
        # The service's construction-time document; never queried.
        self._scratch = sized_document(rng, 2, 180, 0.2)
        self._tiers = 0
        self._check_rng = random.Random(f"{self.name}/check/{seed}")
        self.evictions = 0

    @property
    def ops_per_block(self) -> int:
        return len(self.documents)

    async def setup(self) -> None:
        pass  # all program state is per block (see ``prepare``)

    def prepare(self) -> list[tuple[DocTier, int]]:
        """A fresh store over an empty directory, behind a service whose
        plan cache is already warm — so a block pays for documents only.
        One operation per document: ``(tier, document index)``."""
        self._tiers += 1
        root = self.work_dir / f"doctier-{self._tiers}"
        store = DocumentStore(capacity=self.store_capacity, index_dir=root)
        cache = PlanCache(256)
        spec = sigma0()
        for tenant, query, _algorithm in DOC_QUERIES:
            cache.plan(spec if tenant != ADMIN else None, query)
        service = QueryService(
            store.get(self._scratch.xml), cache=cache, document_store=store
        )
        service.register_view("research", spec)
        tier = DocTier(root, store, service)
        return [(tier, index) for index in range(len(self.documents))]

    async def block(self, ops: list[tuple[DocTier, int]]) -> Block:
        tier = ops[0][0]
        store, service = tier.store, tier.service
        block = Block([])
        clock = time.perf_counter
        for _tier, index in ops:
            started = clock()
            doc = store.get(self.documents[index].xml)
            ingested = clock()
            content_hash = service.add_document(doc)
            tier.catalog += (content_hash,)
            service.register_tenant("inst-0", "research", documents=tier.catalog)
            service.register_tenant(ADMIN, None, documents=tier.catalog)
            cataloged = clock()
            try:
                answers = [
                    service.submit(tenant, query, algorithm, document=content_hash)
                    for tenant, query, algorithm in DOC_QUERIES
                ]
            except ReproError:
                answers = [None] * len(DOC_QUERIES)  # counted by ``check``
            done = clock()
            block.latencies.append(done - started)
            block.starts.append(started)
            block.steps.append((ingested, cataloged))
            for (tenant, query, algorithm), answer in zip(DOC_QUERIES, answers):
                block.replies.append(
                    (Request(tenant, query, algorithm, index), answer)
                )
        return block

    def finish(self, ops: list[tuple[DocTier, int]]) -> list[str]:
        tier = ops[0][0]
        stats = tier.store.snapshot_stats()
        tier.service.close()
        shutil.rmtree(tier.root, ignore_errors=True)
        self.evictions += stats.evictions
        expected = 2 * len(self.documents)
        if stats.index_builds != expected:
            return [
                f"docstore.index_builds == {stats.index_builds}, "
                f"expected 2 x documents = {expected}"
            ]
        return []

    def check(self, block: Block) -> int:
        failed = 0
        for request, answer in block.replies:
            if answer is None:
                failed += 1
                continue
            if self._check_rng.randrange(self.check_every):
                continue
            ids = answer.ids()
            reply = {"ok": True, "count": len(ids), "ids": ids[:100]}
            failed += not self.documents[request.doc].matches(request, reply)
        return failed

    def counters(self) -> dict:
        return {}

    def guard_rails(self, before: dict, after: dict) -> list[str]:
        return []  # per block, in ``finish``


class DocQueries(SocketWorkload):
    """``doc_churn``'s read side over a socket, for the traced run: the
    same three queries over the first few ingested documents, so the
    wire / admission / service layers are measured on this workload's
    own documents too."""

    name = "doc_churn.queries"
    tenants = {"inst-0": "research", ADMIN: None}

    def __init__(self, churn: DocChurn) -> None:
        super().__init__(churn.seed, churn.smoke, churn.work_dir)
        self.documents = churn.documents[:4]
        self._ops = [
            [Request(tenant, query, algorithm, doc)]
            for _ in range(2 if churn.smoke else 8)
            for doc in range(len(self.documents))
            for tenant, query, algorithm in DOC_QUERIES
        ]

    @property
    def ops_per_block(self) -> int:
        return len(self._ops)

    def prepare(self):
        return self._ops


WORKLOADS = {
    cls.name: cls
    for cls in (DescentHot, WaveSkew, RequestOverhead, PlanChurn, DocChurn)
}


def build(name: str, seed: int, smoke: bool, work_dir: Path) -> Workload:
    """Make ``name``'s inputs from ``seed`` (no program state yet)."""
    return WORKLOADS[name](seed, smoke, work_dir)
