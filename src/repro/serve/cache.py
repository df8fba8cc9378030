"""Two-tier plan cache: in-memory LRU over an optional on-disk store.

Rewriting a view query into an MFA (Section 5) dominates per-request cost
once documents are held in memory, so compiled plans are cached — and
since the compilation pipeline became a first-class subsystem
(:mod:`repro.compile`), they are cached under collision-safe keys and can
outlive the process:

* **L1** — the bounded, thread-safe LRU of live :class:`CachedPlan`
  values (one thread-safe :class:`repro.hype.core.CompiledPlan` per
  algorithm, shared by every tenant, lane and pool worker);
* **L2** — an optional :class:`repro.compile.store.PlanStore` directory
  of serialised :class:`repro.compile.artifact.PlanArtifact` records.
  An L1 miss consults the store and rehydrates before compiling, and
  every fresh compilation is written back — so a service restarted
  against a populated store performs **zero MFA rewrites** for
  previously-seen ``(view, query)`` pairs.

Keys are ``(view_fingerprint, normalized_query, format_version)``:
the fingerprint is a content hash of the :class:`ViewSpec`
(:meth:`repro.views.spec.ViewSpec.fingerprint`, ``None`` for direct
source queries), so two holders binding the same view *name* to
different specifications can never share a plan — the old manual
spec-identity check is gone because the key itself is collision-safe.
The flip side is deliberate too: two registrations of *identical* specs
(same content, different objects or names) share one plan and its warm
memo tables.

The cache is the single plan store for both the stand-alone
:class:`repro.engine.smoqe.SMOQE` engine and the multi-tenant
:class:`repro.serve.service.QueryService`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterator, TypeVar
from weakref import WeakKeyDictionary

from ..automata.mfa import MFA
from ..compile.artifact import PlanArtifact, PlanKey
from ..compile.pipeline import NormalizedQuery, QueryCompiler
from ..compile.store import PlanStore
from ..hype.api import HYPE
from ..hype.compose import (
    DEFAULT_CCFG_CAP,
    ComposedKernel,
    ComposedOverflow,
    composed_payload,
    preload_composed,
)
from ..hype.core import CompiledPlan
from ..obs.counters import Counters
from ..obs.trace import span
from ..views.spec import ViewSpec
from ..xpath import ast
from ..xpath.normalize import normal_form
from ..xpath.parser import parse_query
from ..xpath.unparse import unparse
from ..xtree.node import XMLTree

V = TypeVar("V")

#: Cache key: (view fingerprint or None for direct source queries,
#: normalised query text, plan format version).
CacheKey = PlanKey

_NO_PLANS: dict = {}


def normalized_query_text(query: str | ast.Path) -> str:
    """Canonical text of a query, used as the cache-key component.

    Normalisation is semantics-preserving (desugar ``//``, star/union
    simplification, left re-association), so syntactic variants of one
    query map to one plan.  This text is part of the on-disk key scheme
    (see :mod:`repro.compile.artifact`), pinned by golden tests.
    """
    query_ast = parse_query(query) if isinstance(query, str) else query
    return unparse(normal_form(query_ast))


def plan_key(spec: ViewSpec | None, query: str | ast.Path) -> CacheKey:
    """The collision-safe key ``(spec, query)`` resolves to.

    Delegates to :meth:`repro.compile.pipeline.QueryCompiler.plan_key` —
    the one authoritative constructor of the persistent key scheme.
    """
    return QueryCompiler().plan_key(spec, query)


@dataclass
class CachedPlan:
    """The cache's value type: a compiled MFA plus its executable plans.

    Both :class:`repro.engine.smoqe.SMOQE` and
    :class:`repro.serve.service.QueryService` store :class:`CachedPlan`
    values, so one :class:`PlanCache` can be shared between an engine and
    a service — and, because :class:`repro.hype.core.CompiledPlan` is
    thread-safe, the same compiled plan serves every tenant bound to the
    view and every worker of the evaluation pool at once.  Executables
    are built lazily (under a per-entry lock so a cold one is built
    exactly once) and reused across runs: their memo tables keep paying
    off.

    Ownership runs one way: a cached plan owns its artifact and its
    executables, an executable owns its dense kernel, and nothing points
    back — so an evicted entry is freed by reference count.

    ``artifact`` is the serialisable record this plan came from (or was
    written to) — ``None`` for values inserted through the generic
    ``put``/``get_or_create`` API.
    """

    mfa: MFA
    artifact: PlanArtifact | None = None
    #: The HyPE executable, under its algorithm name: index-free, hence
    #: document-independent — ONE per plan serves every document.
    plans: dict[str, CompiledPlan] = field(default_factory=dict)
    #: document -> {algorithm: executable} for OptHyPE / OptHyPE-C,
    #: which embed the document's index and mask tables — held weakly,
    #: so they go when the document store (and its users) let it go.
    _per_document: WeakKeyDictionary = field(
        default_factory=WeakKeyDictionary, repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def compiled(
        self, algorithm: str, document: XMLTree, indexes
    ) -> CompiledPlan:
        """The (cached) executable realising ``algorithm`` on ``document``.

        ``indexes`` is the document's
        :class:`repro.docstore.IndexedDocument` — the index provider,
        and the weak key its OptHyPE executables live under — and
        construction delegates to
        :meth:`repro.hype.core.CompiledPlan.for_algorithm`.
        """
        if algorithm == HYPE:
            plan = self.plans.get(algorithm)
        else:
            plan = self._per_document.get(indexes, _NO_PLANS).get(algorithm)
        if plan is not None:
            return plan
        with self._lock:
            if algorithm == HYPE:
                memo = self.plans
            else:
                memo = self._per_document.setdefault(indexes, {})
            plan = memo.get(algorithm)
            if plan is None:
                plan = memo[algorithm] = self._build(algorithm, document, indexes)
            return plan

    def _build(self, algorithm: str, document: XMLTree, indexes) -> CompiledPlan:
        """One executable.  A freshly compiled plan's HyPE executable IS
        the index-free plan whose table the compile pipeline closed in
        place, and its OptHyPE executables seed their pre-filter edge
        words from that plan's tables; a plan rehydrated from a store or
        a peer preloads every executable from the v3 kernel payload."""
        closure = self.artifact.closure if self.artifact is not None else None
        if not isinstance(closure, CompiledPlan):
            return CompiledPlan.for_algorithm(
                self.mfa, algorithm, document, indexes, kernel=closure
            )
        if algorithm == HYPE:
            return closure
        plan = CompiledPlan.for_algorithm(self.mfa, algorithm, document, indexes)
        plan.kernel.seed(plan, closure.kernel)
        return plan

    def executables(self) -> list[CompiledPlan]:
        """Every live executable of this plan (introspection, tests)."""
        with self._lock:
            memos = [self.plans, *self._per_document.values()]
        return [plan for memo in memos for plan in memo.values()]


@dataclass
class CacheStats(Counters):
    """Tiered hit/miss/eviction counters (a copy is a snapshot).

    ``hits`` counts L1 (in-memory) hits; ``l2_hits`` counts lookups
    served by rehydrating an artifact from the on-disk store; ``misses``
    counts full misses, i.e. fresh compilations.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    l2_hits: int = 0

    @property
    def l1_hits(self) -> int:
        """Alias of ``hits`` under its tiered name."""
        return self.hits

    @property
    def total_hits(self) -> int:
        """Lookups that avoided compilation (either tier)."""
        return self.hits + self.l2_hits

    @property
    def lookups(self) -> int:
        return self.total_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either tier (0.0 when unused)."""
        total = self.lookups
        return self.total_hits / total if total else 0.0


@dataclass
class ComposedStats(Counters):
    """Composed-tier counters (a copy is a snapshot).

    ``builds`` counts kernels composed (or recomposed) in this process;
    ``rehydrated`` counts builds whose transition tables were preloaded
    from a persisted payload instead of recomposed; ``persisted`` counts
    payload write-backs.  Cap overflows surface as
    ``composed_fallbacks`` on the batch/service side, not here — the
    cache never serves a partially-stepped kernel.
    """

    builds: int = 0
    hits: int = 0
    rehydrated: int = 0
    persisted: int = 0
    evictions: int = 0


class _ComposedEntry:
    __slots__ = ("kernel", "member_ids", "persisted_shape")

    def __init__(self, kernel, member_ids, persisted_shape=None) -> None:
        self.kernel = kernel
        self.member_ids = member_ids
        self.persisted_shape = persisted_shape


class ComposedCache:
    """The composed-plan tier: LRU of :class:`ComposedKernel` per wave shape.

    Keyed by ``(algorithm, document, ordered member plan fingerprints)``
    — the service canonicalises member order by fingerprint, so the key
    is the ISSUE's sorted tuple.  Entries pin the member plan *objects*
    they were composed from (kernels reference member tables): a lookup
    whose members changed identity (the plan LRU evicted and recompiled
    one) rebuilds rather than serving a stale product.

    Plain-family kernels are document-independent and persistable: a
    build first tries :meth:`repro.compile.store.PlanStore.load_composed`
    (a warm restart skips recomposition), and :meth:`persist` writes the
    hot tables back after a composed run grew them.  Index-equipped
    kernels embed per-document mask rows — cached, never persisted.
    """

    def __init__(
        self,
        capacity: int = 64,
        max_ccfgs: int = DEFAULT_CCFG_CAP,
        store: PlanStore | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"composed capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.max_ccfgs = max_ccfgs
        self.store = store
        self._entries: OrderedDict[tuple, _ComposedEntry] = OrderedDict()
        self._lock = threading.Lock()
        self._stats = ComposedStats()

    # ------------------------------------------------------------------
    def kernel_for(
        self,
        members: list[CompiledPlan],
        member_keys: tuple,
        algorithm: str,
        doc_key: str | None = None,
    ) -> ComposedKernel:
        """The composed kernel for one ordered member-plan tuple.

        Raises :class:`repro.hype.compose.ComposeError` for mixed
        families (the batch steps those lanes per-lane) — never raises
        :class:`ComposedOverflow` itself; overflow happens mid-descent
        and is handled by :meth:`repro.serve.batch.BatchEvaluator.run`.
        """
        key = (algorithm, doc_key, tuple(member_keys))
        member_ids = tuple(id(plan) for plan in members)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.member_ids == member_ids:
                self._entries.move_to_end(key)
                self._stats.hits += 1
                return entry.kernel
            kernel = ComposedKernel(members, max_ccfgs=self.max_ccfgs)
            self._stats.builds += 1
            persisted_shape = None
            if self.store is not None and not kernel.indexed:
                payload = self.store.load_composed(algorithm, member_keys)
                if payload is not None:
                    try:
                        installed = preload_composed(kernel, payload)
                    except ComposedOverflow:
                        # The payload outgrew this cap: recompose fresh.
                        kernel = ComposedKernel(members, max_ccfgs=self.max_ccfgs)
                        installed = 0
                    if installed:
                        self._stats.rehydrated += 1
                        persisted_shape = (
                            len(payload["ccfgs"]),
                            len(payload["trans"]),
                        )
            self._entries[key] = _ComposedEntry(
                kernel, member_ids, persisted_shape
            )
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._stats.evictions += 1
            return kernel

    def persist(
        self,
        member_keys: tuple,
        algorithm: str,
        doc_key: str | None = None,
    ) -> bool:
        """Write the cached kernel's tables back if they grew.

        Idempotent per table shape: a warm restart whose preloaded
        closure already covers the traffic never rewrites the blob —
        the compose-smoke asserts exactly that (zero recompositions).
        """
        if self.store is None:
            return False
        key = (algorithm, doc_key, tuple(member_keys))
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.kernel.indexed:
                return False
            kernel = entry.kernel
            persisted_shape = entry.persisted_shape
        payload = composed_payload(kernel)
        shape = (len(payload["ccfgs"]), len(payload["trans"]))
        if persisted_shape == shape:
            return False
        if not self.store.save_composed(algorithm, member_keys, payload):
            return False
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.kernel is kernel:
                entry.persisted_shape = shape
            self._stats.persisted += 1
        return True

    # ------------------------------------------------------------------
    def gauges(self) -> dict:
        """Point-in-time composed-tier gauges (kernel/ccfg occupancy)."""
        with self._lock:
            kernels = len(self._entries)
            ccfgs = sum(
                entry.kernel.interned_ccfgs
                for entry in self._entries.values()
            )
            preloaded = sum(
                entry.kernel.preloaded for entry in self._entries.values()
            )
        return {
            "kernels": kernels,
            "interned_ccfgs": ccfgs,
            "preloaded_trans": preloaded,
        }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def stats(self) -> ComposedStats:
        with self._lock:
            return self._stats.snapshot()


class PlanCache:
    """A bounded LRU of compiled plans over an optional disk tier.

    The L1 map takes one internal lock, so the cache is safe to share
    between serving threads.  :meth:`plan` — the high-level entry every
    engine/service lookup goes through — resolves a cold key (store
    probe, compilation, write-back) *outside* that lock under a per-key
    resolution gate: a key is still loaded/compiled at most once (no
    thundering herd), but L1 hits for other keys never queue behind one
    key's disk I/O or rewrite.  The generic ``get``/``put``/
    ``get_or_create`` API of the L1 tier remains for callers managing
    their own values (its factory runs inside the lock, as before).
    """

    def __init__(
        self,
        capacity: int = 256,
        store: PlanStore | None = None,
        compiler: QueryCompiler | None = None,
        composed_capacity: int = 64,
        composed_max_ccfgs: int = DEFAULT_CCFG_CAP,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.store = store
        self.compiler = compiler if compiler is not None else QueryCompiler()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        self._stats = CacheStats()
        #: key -> gate lock held by the thread currently resolving it.
        self._resolving: dict[Hashable, threading.Lock] = {}
        #: The composed-plan tier (wave composition, PR 9) — shares the
        #: disk store so warm restarts rehydrate composed tables too.
        self.composed = ComposedCache(
            composed_capacity, composed_max_ccfgs, store=store
        )

    # ------------------------------------------------------------------
    # The compilation-aware two-tier lookup
    # ------------------------------------------------------------------
    def plan(
        self, spec: ViewSpec | None, query: str | ast.Path | NormalizedQuery
    ) -> CachedPlan:
        """Fetch or build the plan for ``query`` over ``spec``.

        Lookup order: L1 (live plans) → L2 (artifact store, when
        configured) → the compilation pipeline.  Rehydrated and freshly
        compiled plans are promoted into L1; fresh compilations are also
        written back to the store, so every process sharing the
        directory — and every future restart — starts warm.
        """
        with span("plan") as plan_span:
            normalized = self.compiler.normalize(query)
            key = self.compiler.plan_key(spec, normalized)
            while True:
                with self._lock:
                    entry = self._entries.get(key)
                    if entry is not None:
                        self._entries.move_to_end(key)
                        self._stats.hits += 1
                        if plan_span is not None:
                            plan_span.set(tier="l1")
                        return entry  # type: ignore[return-value]
                    gate = self._resolving.get(key)
                    if gate is None:
                        # We own this key's resolution; the gate is released
                        # (and removed) once the entry is published.
                        gate = self._resolving[key] = threading.Lock()
                        gate.acquire()
                        break
                # Someone else is resolving this key: wait for their gate,
                # then re-check L1 (or take over if they failed).
                with gate:
                    pass
            try:
                plan, tier = self._resolve(key, spec, normalized)
            finally:
                with self._lock:
                    self._resolving.pop(key, None)
                gate.release()
            if plan_span is not None:
                plan_span.set(tier=tier)
            # Write-back after publication AND after the gate: the save
            # (payload encode + disk write) is atomic and idempotent, so
            # waiters — served from L1 by now — never queue behind it.
            if tier == "compile" and self.store is not None:
                self.store.save(key, plan.artifact)
            return plan

    def _resolve(
        self, key: Hashable, spec: ViewSpec | None, normalized: NormalizedQuery
    ) -> tuple[CachedPlan, str]:
        """Store probe + compile for one cold key (gated); returns the
        published plan and the tier that produced it."""
        if self.store is not None:
            artifact = self.store.load(key)
            if artifact is not None:
                plan = CachedPlan(artifact.mfa, artifact=artifact)
                with self._lock:
                    self._stats.l2_hits += 1
                    self._store(key, plan)
                return plan, "l2"
        fresh: PlanArtifact = self.compiler.compile(spec, normalized)
        plan = CachedPlan(fresh.mfa, artifact=fresh)
        with self._lock:
            self._stats.misses += 1
            self._store(key, plan)
        return plan, "compile"

    # ------------------------------------------------------------------
    # Generic L1 operations
    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> object | None:
        """Return the cached plan (refreshing recency) or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self._stats.hits += 1
            return entry

    def put(self, key: Hashable, value: V) -> V:
        """Insert ``value``, evicting the least recently used on overflow."""
        with self._lock:
            self._store(key, value)
        return value

    def get_or_create(
        self, key: Hashable, factory: Callable[[], V]
    ) -> tuple[V, bool]:
        """Return ``(plan, created)``; compile via ``factory`` on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._stats.hits += 1
                return entry, False  # type: ignore[return-value]
            self._stats.misses += 1
            value = factory()
            self._store(key, value)
            return value, True

    def _store(self, key: Hashable, value: object) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._stats.evictions += 1

    # ------------------------------------------------------------------
    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it existed."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def invalidate_view(self, view: str | None) -> int:
        """Drop every L1 plan keyed under fingerprint ``view``.

        With fingerprints in the key a replaced registration can never be
        *served* stale entries; invalidation just releases their memory
        early (pass the old spec's ``fingerprint()``).  Store files are
        left in place — they stay valid for any holder still using that
        specification.
        """
        with self._lock:
            doomed = [
                key
                for key in self._entries
                if isinstance(key, tuple) and key and key[0] == view
            ]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> Iterator[Hashable]:
        """Snapshot of keys, least recently used first."""
        with self._lock:
            return iter(list(self._entries))

    @property
    def stats(self) -> CacheStats:
        """A point-in-time copy of the counters."""
        with self._lock:
            return self._stats.snapshot()
