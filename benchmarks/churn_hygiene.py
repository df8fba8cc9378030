"""Collector hygiene of the plan-miss and document-ingest paths
(``make churn-smoke``).

**Plans.**  Drives never-seen query texts (the ``plan_churn`` templates
of ``benchmarks/e2e``) through a
:class:`repro.serve.service.QueryService` over a small, continuously
evicting :class:`repro.serve.cache.PlanCache` and reports what the cycle
collector had to do about it:

* **cyclic garbage** — objects only a collection could free, caught with
  ``gc.DEBUG_SAVEALL``.  Plans own their kernels one way, so an evicted
  plan must die by reference count: the count must be 0;
* **evicted shape templates still alive**, collector off — the eight
  templates cycle through a cache smaller than eight, so its template
  table evicts continuously, and an evicted template (whose automaton
  its instances share) must die by reference count too: 0;
* **gen-2 collections** during the drive (with the collector on);
* ``_compute_child_sets`` **calls per compile** — the closure computes
  the OTHER column once per cfg and aliases every unnamed column to it;
* **tracked objects per cached plan** — what each L1 entry adds to every
  later collection's traversal.

**Documents.**  Drives distinct hospital documents the way ``doc_churn``
does — ingest into a persisting :class:`repro.docstore.store.
DocumentStore` that evicts continuously, catalog, one query per
algorithm — behind a service that is dropped after every round, and
reports the same three things: **cyclic garbage** (a tree owns its
columns one way, so an evicted, released document must die by reference
count: 0), **collections per generation** per N ingests, and **tracked
objects per ingested document** — a parsed document is columns, so at
most :data:`TRACKED_PER_DOCUMENT_FLOOR` whatever its node count — plus
the **nodes created by the served queries**: the serving path walks node
ids and replies with ids, so 0.

Exits non-zero on any cyclic garbage from either side, on an evicted
template still alive (or no template evicted at all), on a document
over the tracked-object floor, or on a node created while serving.
``tests/test_plan_hygiene.py`` runs the same functions as tier-1
assertions; re-read the traced budgets themselves with
``make bench-e2e-trace WORKLOAD=plan_churn`` / ``WORKLOAD=doc_churn``.
"""

from __future__ import annotations

import gc
import sys
import tempfile
import weakref
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE / "e2e"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from inputs import ADMIN, CHURN_TEMPLATES  # noqa: E402  (benchmarks/e2e)
from workloads import DOC_QUERIES  # noqa: E402  (benchmarks/e2e)

import repro.xtree.node as node_module  # noqa: E402
from repro.docstore.store import DocumentStore  # noqa: E402
from repro.hype.core import CompiledPlan  # noqa: E402
from repro.serve.cache import PlanCache  # noqa: E402
from repro.serve.service import QueryService  # noqa: E402
from repro.views import sigma0  # noqa: E402
from repro.workloads import HospitalConfig, generate_hospital_document  # noqa: E402
from repro.xtree.serialize import serialize  # noqa: E402

TENANT = "inst-0"

#: Most GC-tracked objects one ingested, served and held document may
#: add, whatever its node count (878 for 484 nodes while every node was
#: a ``Node`` with a child list).
TRACKED_PER_DOCUMENT_FLOOR = 64


class ChurnService:
    """A service over ``documents`` two-patient documents and one σ0
    view, behind a plan cache of ``capacity`` entries."""

    def __init__(self, capacity: int, documents: int = 4) -> None:
        store = DocumentStore()
        docs = [
            store.get(
                serialize(
                    generate_hospital_document(
                        HospitalConfig(num_patients=2, seed=100 + i)
                    )
                )
            )
            for i in range(documents)
        ]
        self.cache = PlanCache(capacity)
        self.service = QueryService(docs[0], document_store=store, cache=self.cache)
        self.hashes = [self.service.default_document_hash]
        self.hashes += [self.service.add_document(doc) for doc in docs[1:]]
        self.service.register_view("research", sigma0())
        self.service.register_tenant(
            TENANT, "research", documents=tuple(self.hashes)
        )
        self._next = 0

    def drive(self, requests: int) -> None:
        """``requests`` never-seen query texts, templates and documents
        taking turns."""
        for _ in range(requests):
            n = self._next
            self._next += 1
            query = CHURN_TEMPLATES[n % len(CHURN_TEMPLATES)].format(c=f"h{n}")
            self.service.submit(
                TENANT, query, document=self.hashes[n % len(self.hashes)]
            )

    def close(self) -> None:
        self.service.close()


def _garbage_of(drive) -> list:
    """Everything only the cycle collector could free after ``drive()``
    (``gc.DEBUG_SAVEALL`` keeps what a collection finds)."""
    gc.collect()
    del gc.garbage[:]
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        drive()
        gc.collect()
    finally:
        gc.set_debug(flags)
    garbage = list(gc.garbage)
    del gc.garbage[:]
    return garbage


def _collections(drive) -> tuple[int, int, int]:
    """Collections per generation while ``drive()`` ran, collector on."""
    gc.collect()
    before = [generation["collections"] for generation in gc.get_stats()]
    drive()
    after = [generation["collections"] for generation in gc.get_stats()]
    return tuple(b - a for a, b in zip(before, after))


def cyclic_garbage(requests: int = 96, capacity: int = 4) -> list:
    """Everything only the cycle collector could free after ``requests``
    misses through a ``capacity``-entry cache (``[]`` = plans die by
    reference count)."""
    churn = ChurnService(capacity)
    try:
        churn.drive(capacity)  # lazy imports and first-use tables
        return _garbage_of(lambda: churn.drive(requests))
    finally:
        churn.close()


def evicted_templates_alive(requests: int = 96, capacity: int = 4) -> tuple[int, int]:
    """``(shape templates evicted, of them still alive)`` after
    ``requests`` misses through a ``capacity``-entry cache with the
    collector off: ``(n > 0, 0)`` = evicted templates die by reference
    count."""
    churn = ChurnService(capacity)
    seen: list[weakref.ref] = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(requests):
            churn.drive(1)
            for _key, template in churn.cache._templates.items():
                if all(ref() is not template for ref in seen):
                    seen.append(weakref.ref(template))
        held = [template for _key, template in churn.cache._templates.items()]
        evicted = [ref for ref in seen if all(ref() is not t for t in held)]
        return len(evicted), sum(ref() is not None for ref in evicted)
    finally:
        gc.enable()
        churn.close()


def collections_and_calls(requests: int = 768, capacity: int = 256) -> dict:
    """Collector on, steady state (cache full): collections per
    generation and ``_compute_child_sets`` calls per compile."""
    churn = ChurnService(capacity)
    calls = [0]
    real = CompiledPlan._compute_child_sets

    def counting(self, mstates, relevant, label):
        calls[0] += 1
        return real(self, mstates, relevant, label)

    def drive() -> None:
        CompiledPlan._compute_child_sets = counting
        try:
            churn.drive(requests)
        finally:
            CompiledPlan._compute_child_sets = real

    try:
        churn.drive(capacity)
        gen0, gen1, gen2 = _collections(drive)
    finally:
        churn.close()
    return {
        "requests": requests,
        "gen0_collections": gen0,
        "gen1_collections": gen1,
        "gen2_collections": gen2,
        "child_sets_calls_per_compile": calls[0] / requests,
    }


def tracked_per_plan(plans: int = 256) -> float:
    """GC-tracked objects each cached (and once-run) plan keeps alive."""
    churn = ChurnService(2 * plans)
    try:
        churn.drive(32)
        gc.collect()
        before = len(gc.get_objects())
        churn.drive(plans)
        gc.collect()
        return (len(gc.get_objects()) - before) / plans
    finally:
        churn.close()


# ----------------------------------------------------------------------
# The document side
# ----------------------------------------------------------------------
class DocumentChurn:
    """``doc_churn`` in miniature: every round ingests ``per_round``
    never-seen documents into a fresh persisting store of ``capacity``
    entries behind a fresh service, serves each by all three algorithms,
    and lets store and service go."""

    #: Documents per round: twice the default store's capacity, so the
    #: LRU evicts through the second half as in ``doc_churn``.
    per_round = 4

    def __init__(self, capacity: int = 2) -> None:
        self.capacity = capacity
        self.cache = PlanCache(16)
        self.spec = sigma0()
        for tenant, query, _algorithm in DOC_QUERIES:
            self.cache.plan(self.spec if tenant != ADMIN else None, query)
        self._next = 0

    def texts(self, documents: int) -> list[str]:
        """``documents`` never-seen documents (made outside any measured
        drive: generating one is not ingesting one)."""
        texts = []
        for _ in range(documents):
            tree = generate_hospital_document(
                HospitalConfig(num_patients=6, seed=500 + self._next)
            )
            self._next += 1
            texts.append(serialize(tree))
        return texts

    def service(self, store: DocumentStore) -> QueryService:
        scratch = generate_hospital_document(HospitalConfig(num_patients=1, seed=1))
        service = QueryService(scratch, cache=self.cache, document_store=store)
        service.register_view("research", self.spec)
        return service

    def ingest(self, service: QueryService, store: DocumentStore, texts) -> None:
        """One ``doc_churn`` operation per text: ingest, catalog, one
        query per algorithm."""
        catalog: tuple[str, ...] = ()
        for text in texts:
            catalog += (service.add_document(store.get(text)),)
            service.register_tenant(TENANT, "research", documents=catalog)
            service.register_tenant(ADMIN, None, documents=catalog)
            for tenant, query, algorithm in DOC_QUERIES:
                service.submit(tenant, query, algorithm, document=catalog[-1])

    def drive(self, texts: list[str]) -> None:
        for first in range(0, len(texts), self.per_round):
            with tempfile.TemporaryDirectory() as root:
                store = DocumentStore(capacity=self.capacity, index_dir=root)
                with self.service(store) as service:
                    self.ingest(service, store, texts[first : first + self.per_round])


def document_garbage(documents: int = 12, capacity: int = 2) -> list:
    """Everything only the cycle collector could free after ``documents``
    ingests through a ``capacity``-document store (``[]`` = documents
    die by reference count)."""
    churn = DocumentChurn(capacity)
    churn.drive(churn.texts(churn.per_round))  # lazy imports, first-use tables
    texts = churn.texts(documents)
    return _garbage_of(lambda: churn.drive(texts))


def document_collections(documents: int = 16) -> dict:
    """Collector on: collections per generation over ``documents``
    ingests."""
    churn = DocumentChurn()
    churn.drive(churn.texts(churn.per_round))
    texts = churn.texts(documents)
    gen0, gen1, gen2 = _collections(lambda: churn.drive(texts))
    return {
        "documents": documents,
        "gen0_collections": gen0,
        "gen1_collections": gen1,
        "gen2_collections": gen2,
    }


def tracked_per_document(documents: int = 8) -> tuple[float, float]:
    """``(GC-tracked objects, nodes)`` each ingested, served and still
    held document adds to every later collection's traversal.

    Label tables, their transition rows, the plans' executables and mask
    filters are per label set, not per document: the same texts are
    served once first, behind a store kept alive meanwhile, so the
    measured round adds document-owned objects only."""
    churn = DocumentChurn(capacity=2 * documents)
    texts = churn.texts(documents + 1)
    warm = DocumentStore(capacity=churn.capacity)
    with churn.service(warm) as seen:
        churn.ingest(seen, warm, texts)
        store = DocumentStore(capacity=churn.capacity)
        with churn.service(store) as service:
            churn.ingest(service, store, texts[:1])  # first-use state
            gc.collect()
            before = len(gc.get_objects())
            churn.ingest(service, store, texts[1:])
            gc.collect()
            tracked = len(gc.get_objects()) - before
            nodes = sum(store.get(text).size for text in texts[1:])  # hits
    return tracked / documents, nodes / documents


def nodes_created_by_serving(documents: int = 4) -> int:
    """:class:`repro.xtree.node.Node` objects created while ``documents``
    never-seen documents are ingested and served by all three algorithms,
    each reply read as ids (the front-end's reply path)."""
    churn = DocumentChurn(capacity=documents)
    texts = churn.texts(documents)
    store = DocumentStore(capacity=documents)
    created = [0]
    real = node_module._view

    def counting(*args):
        created[0] += 1
        return real(*args)

    with churn.service(store) as service:
        node_module._view = counting
        try:
            for text in texts:
                doc = store.get(text)
                catalog = (service.add_document(doc),)
                service.register_tenant(TENANT, "research", documents=catalog)
                service.register_tenant(ADMIN, None, documents=catalog)
                for tenant, query, algorithm in DOC_QUERIES:
                    answer = service.submit(
                        tenant, query, algorithm, document=catalog[0]
                    )
                    answer.ids()
        finally:
            node_module._view = real
    return created[0]


def executables_per_plan(documents: int = 12) -> tuple[int, int, int]:
    """``(most executables any cached plan holds, live label tables,
    documents)`` with ``documents`` same-DTD documents ingested, served
    and all still held: OptHyPE executables are per (plan, label table,
    variant), so the first number is bounded by tables x 2 variants + the
    index-free one — not by documents."""
    churn = DocumentChurn(capacity=documents)
    store = DocumentStore(capacity=documents)
    with churn.service(store) as service:
        texts = churn.texts(documents)
        churn.ingest(service, store, texts)
        tables = {id(store.get(text).layout.table) for text in texts}  # hits
        most = max(
            len(churn.cache.get(key).executables()) for key in churn.cache.keys()
        )
        return most, len(tables), documents


def _kinds(garbage: list) -> list[str]:
    return sorted({type(o).__module__ + "." + type(o).__name__ for o in garbage})


def main() -> int:
    garbage = cyclic_garbage()
    evicted, alive = evicted_templates_alive()
    counts = collections_and_calls()
    print("plans")
    print(f"  cyclic garbage objects        {len(garbage)}")
    print(f"  evicted templates alive       {alive} of {evicted}")
    print(
        f"  collections gen0/gen1/gen2    {counts['gen0_collections']}/"
        f"{counts['gen1_collections']}/{counts['gen2_collections']} "
        f"per {counts['requests']} misses"
    )
    print(
        "  _compute_child_sets / compile "
        f"{counts['child_sets_calls_per_compile']:.1f}"
    )
    print(f"  tracked objects / cached plan {tracked_per_plan():.0f}")
    doc_garbage = document_garbage()
    doc_counts = document_collections()
    tracked, nodes = tracked_per_document()
    print("documents")
    print(f"  cyclic garbage objects        {len(doc_garbage)}")
    print(
        f"  collections gen0/gen1/gen2    {doc_counts['gen0_collections']}/"
        f"{doc_counts['gen1_collections']}/{doc_counts['gen2_collections']} "
        f"per {doc_counts['documents']} ingests"
    )
    print(f"  tracked objects / document    {tracked:.0f} ({nodes:.0f} nodes)")
    created = nodes_created_by_serving()
    print(f"  Nodes created while serving   {created}")
    most, tables, documents = executables_per_plan()
    print(
        f"  executables / plan (max)      {most} "
        f"({tables} label table(s), {documents} documents)"
    )
    status = 0
    if alive or not evicted:
        print(
            f"FAIL: {alive} of {evicted} evicted shape template(s) outlived "
            "their eviction (none evicted: the drive no longer covers them)",
            file=sys.stderr,
        )
        status = 1
    if tracked > TRACKED_PER_DOCUMENT_FLOOR:
        print(
            f"FAIL: an ingested document adds {tracked:.0f} tracked objects "
            f"(floor {TRACKED_PER_DOCUMENT_FLOOR}): documents are objects again",
            file=sys.stderr,
        )
        status = 1
    if created:
        print(
            f"FAIL: serving created {created} Node(s): the descent or the "
            "reply path asks for nodes again",
            file=sys.stderr,
        )
        status = 1
    if most > 2 * tables + 1:
        print(
            f"FAIL: a cached plan holds {most} executables for {tables} label "
            "table(s): executables are per document again",
            file=sys.stderr,
        )
        status = 1
    for what, found in (("plans", garbage), ("documents", doc_garbage)):
        if found:
            print(
                f"FAIL: evicted {what} left cyclic garbage: {_kinds(found)}",
                file=sys.stderr,
            )
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
