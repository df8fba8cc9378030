"""Collector hygiene of the plan-miss path (``make churn-smoke``).

Drives never-seen query texts (the ``plan_churn`` templates of
``benchmarks/e2e``) through a :class:`repro.serve.service.QueryService`
over a small, continuously evicting :class:`repro.serve.cache.PlanCache`
and reports what the cycle collector had to do about it:

* **cyclic garbage** — objects only a collection could free, caught with
  ``gc.DEBUG_SAVEALL``.  Plans own their kernels one way, so an evicted
  plan must die by reference count: the count must be 0;
* **gen-2 collections** during the drive (with the collector on);
* ``_compute_child_sets`` **calls per compile** — the closure computes
  the OTHER column once per cfg and aliases every unnamed column to it;
* **tracked objects per cached plan** — what each L1 entry adds to every
  later collection's traversal.

Exits non-zero on any cyclic garbage.  ``tests/test_plan_hygiene.py``
runs the same functions as tier-1 assertions; re-read the traced budget
itself with ``make bench-e2e-trace WORKLOAD=plan_churn``.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE / "e2e"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from inputs import CHURN_TEMPLATES  # noqa: E402  (benchmarks/e2e)

from repro.docstore.store import DocumentStore  # noqa: E402
from repro.hype.core import CompiledPlan  # noqa: E402
from repro.serve.cache import PlanCache  # noqa: E402
from repro.serve.service import QueryService  # noqa: E402
from repro.views import sigma0  # noqa: E402
from repro.workloads import HospitalConfig, generate_hospital_document  # noqa: E402
from repro.xtree.serialize import serialize  # noqa: E402

TENANT = "inst-0"


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


def cyclic_garbage(requests: int = 96, capacity: int = 4) -> list:
    """Everything only the cycle collector could free after ``requests``
    misses through a ``capacity``-entry cache (``[]`` = plans die by
    reference count)."""
    churn = ChurnService(capacity)
    try:
        churn.drive(capacity)  # lazy imports and first-use tables
        gc.collect()
        del gc.garbage[:]
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            churn.drive(requests)
            gc.collect()
        finally:
            gc.set_debug(flags)
        garbage = list(gc.garbage)
        del gc.garbage[:]
        return garbage
    finally:
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

    try:
        churn.drive(capacity)
        gc.collect()
        before = [generation["collections"] for generation in gc.get_stats()]
        CompiledPlan._compute_child_sets = counting
        try:
            churn.drive(requests)
        finally:
            CompiledPlan._compute_child_sets = real
        after = [generation["collections"] for generation in gc.get_stats()]
    finally:
        churn.close()
    gen0, gen1, gen2 = (b - a for a, b in zip(before, after))
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


def main() -> int:
    garbage = cyclic_garbage()
    counts = collections_and_calls()
    print(f"cyclic garbage objects        {len(garbage)}")
    print(
        f"collections gen0/gen1/gen2    {counts['gen0_collections']}/"
        f"{counts['gen1_collections']}/{counts['gen2_collections']} "
        f"per {counts['requests']} misses"
    )
    print(
        "_compute_child_sets / compile "
        f"{counts['child_sets_calls_per_compile']:.1f}"
    )
    print(f"tracked objects / cached plan {tracked_per_plan():.0f}")
    if garbage:
        kinds = sorted({type(o).__module__ + "." + type(o).__name__ for o in garbage})
        print(f"FAIL: evicted plans left cyclic garbage: {kinds}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
