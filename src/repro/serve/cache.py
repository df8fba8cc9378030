"""Two-tier plan cache: in-memory LRU over an optional on-disk store.

Rewriting a view query into an MFA (Section 5) dominates per-request cost
once documents are held in memory, so compiled plans are cached — and
since the compilation pipeline became a first-class subsystem
(:mod:`repro.compile`), they are cached under collision-safe keys and can
outlive the process:

* **L1** — a :class:`repro.tier.SingleFlightLRU` of live
  :class:`CachedPlan` values (one thread-safe
  :class:`repro.hype.core.CompiledPlan` per algorithm, shared by every
  tenant, lane and pool worker); a cold key is resolved once, outside
  the map lock — the discipline is described in :mod:`repro.tier`;
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

Queries arrive as text, and a warm server sees the same texts over and
over: :class:`PlanCache` keeps a bounded raw-text alias table in front
of L1 (``(view fingerprint, text as posed)`` → key + display text), so
only a text's first sight is parsed and normalised — a hit does no
compile-stage work at all.

A never-seen text is most often a known query with new constants (the
prepared-statement pattern).  Two tiers serve it (both in
:mod:`repro.compile.shape`):

* the **frame** tier, between the aliases and L1: a bounded table keyed
  by ``(view fingerprint, frame)`` — the text cut at its literals, each
  replaced by its equality class — that gives a never-seen text of a
  known frame its display text, plan key, shape and literals with no
  parse and no normalisation;
* the **shape** tier, below L2: a bounded table of plan templates keyed
  by ``(view fingerprint, shape text)`` — a miss whose shape was
  compiled before is *instantiated* from it, skipping the rewrite, to
  the bytes a fresh compile would produce.

In order: alias → frame → L1 → L2 → shape → compile.

The cache is the single plan store for both the stand-alone
:class:`repro.engine.smoqe.SMOQE` engine and the multi-tenant
:class:`repro.serve.service.QueryService`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Hashable, Iterator
from weakref import WeakKeyDictionary

from ..automata.mfa import MFA
from ..compile.artifact import PlanArtifact, PlanKey
from ..compile.pipeline import NormalizedQuery, QueryCompiler, key_of
from ..compile.shape import Frame, Template, fill, frame_of, shape_of
from ..compile.store import PlanStore
from ..errors import ReproError
from ..hype.api import HYPE, OPTHYPE_C
from ..hype.core import CompiledPlan
from ..obs.counters import Counters
from ..obs.trace import span
from ..tier import SingleFlightLRU
from ..views.spec import ViewSpec
from ..xpath import ast
from ..xpath.normalize import normal_form
from ..xpath.parser import parse_query
from ..xpath.unparse import unparse
from ..xtree.node import XMLTree

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

    Delegates to :meth:`repro.compile.pipeline.QueryCompiler.plan_key`,
    which builds it with :func:`repro.compile.pipeline.key_of` — the one
    constructor of the persistent key scheme.
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
    written to).
    """

    mfa: MFA
    artifact: PlanArtifact
    #: The HyPE executable, under its algorithm name: index-free, hence
    #: document-independent — ONE per plan serves every document.
    plans: dict[str, CompiledPlan] = field(default_factory=dict)
    #: label table -> {algorithm: executable} for OptHyPE / OptHyPE-C:
    #: what they derive is a function of the label set, so every
    #: document of one label set runs on the same two — held weakly, so
    #: they go when the last document of that label set is let go.
    _per_table: WeakKeyDictionary = field(
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
        :class:`repro.docstore.IndexedDocument` — the index provider:
        asking it for the variant builds (or loads) and parks the
        document's own mask column, and names the label table its
        OptHyPE executables live under — and construction delegates to
        :meth:`repro.hype.core.CompiledPlan.for_algorithm`.
        """
        if algorithm == HYPE:
            table = None
            plan = self.plans.get(algorithm)
        else:
            table = indexes.index_for(algorithm == OPTHYPE_C).table
            plan = self._per_table.get(table, _NO_PLANS).get(algorithm)
        if plan is not None:
            return plan
        with self._lock:
            if table is None:
                memo = self.plans
            else:
                memo = self._per_table.setdefault(table, {})
            plan = memo.get(algorithm)
            if plan is None:
                plan = memo[algorithm] = self._build(algorithm, document, indexes)
            return plan

    def _build(self, algorithm: str, document: XMLTree, indexes) -> CompiledPlan:
        """One executable, built one way for every plan — fresh,
        instantiated from a shape or rehydrated: HyPE is the index-free
        plan whose table is closed (the compile pipeline's; a plan
        decoded from a store or a peer is closed here, on its first
        build), and the OptHyPE executables are seeded from its kernel."""
        closed = self.artifact.closed()
        if algorithm == HYPE:
            return closed
        return CompiledPlan.for_algorithm(
            self.mfa, algorithm, document, indexes, kernel=closed.kernel
        )

    def executables(self) -> list[CompiledPlan]:
        """Every live executable of this plan (introspection, tests)."""
        with self._lock:
            memos = [self.plans, *self._per_table.values()]
        return [plan for memo in memos for plan in memo.values()]


@dataclass
class CacheStats(Counters):
    """Tiered hit/miss/eviction counters (a copy is a snapshot).

    ``hits`` counts L1 (in-memory) hits; ``l2_hits`` counts lookups
    served by rehydrating an artifact from the on-disk store; ``misses``
    counts lookups neither tier served, i.e. new artifacts; of those,
    ``shape_hits`` were instantiated from an already compiled template
    of their shape instead of compiled (no rewrite ran).  ``frame_hits``
    counts text lookups whose frame was known, so the text was neither
    parsed nor normalised, whichever tier then served the plan.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    l2_hits: int = 0
    shape_hits: int = 0
    frame_hits: int = 0

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


class ComposedCache:
    """Inert: waves step per lane, so there is no composed tier to cache.

    Kept only because the frozen end-to-end harness builds one and reads
    it: :meth:`kernel_for` returns ``None`` and ``stats.builds`` reads 0.
    """

    stats = SimpleNamespace(builds=0)

    def kernel_for(self, *_args, **_kwargs) -> None:
        return None


class PlanCache:
    """A bounded LRU of compiled plans over an optional disk tier.

    :meth:`lookup` — the entry every engine/service lookup goes through
    (:meth:`plan` is the same minus the display text) — resolves a key
    with one :meth:`repro.tier.SingleFlightLRU.get`: an L1 hit is a
    single lock acquisition, and a cold key's store probe and compilation
    run once, outside the map lock, so L1 hits for other keys never queue
    behind one key's disk I/O or rewrite.  ``get`` / ``keys`` / ``in``
    are introspection.

    A query handed over as *text* is first looked up in a raw-text alias
    table — ``(view fingerprint, text as posed) → (plan key, display
    text)``, the sibling of :class:`repro.docstore.store.DocumentStore`'s
    raw-content aliases — so a text seen before reaches its plan with no
    parse and no normalisation: a warm hit is one alias probe plus one
    L1 hit.  The table is bounded at the plan capacity, holds keys and
    never plans (an evicted plan still dies by reference count), and is
    written only after a lookup succeeded: a rejected text is rejected
    afresh every time, and an alias whose plan was evicted just falls
    through to the full path below it.

    A text the aliases miss is cut into its **frame**
    (:func:`repro.compile.shape.frame_of`) and looked up in a table of
    :class:`repro.compile.shape.Frame` values keyed by ``(view
    fingerprint, frame)``, bounded at the plan capacity too.  A known
    frame renders the text's display text and plan key (literals quoted
    by :func:`repro.xpath.unparse.quote_literal`) and hands its shape and
    literals to the tiers below: no parse, no normalisation, no
    :func:`repro.compile.shape.shape_of` (``frame_hits``).  Exact,
    because two texts of one frame lex to the same tokens apart from
    their string values and the normal form reads a literal only through
    ``==``, whose outcomes the frame's classes record.  Like an alias, a
    frame is written only after a lookup succeeded, holds texts and a
    shape and never a plan or a template, and is learnt only from a text
    with a non-empty literal (the aliases serve the others).

    Below L2, the **shape** tier: a query with a non-empty literal is
    looked up by its shape (:func:`repro.compile.shape.shape_of`) in a
    :class:`repro.tier.SingleFlightLRU` of :class:`repro.compile.shape.
    Template` values keyed by ``(view fingerprint, shape text)``, also
    bounded at the plan capacity.  A template is compiled once, from
    the shape itself (its literals are :class:`repro.compile.shape.Slot`
    sentinels), and every query of that shape is *instantiated* from it
    (the ``instantiate`` compile stage): a plan-cache miss without a
    rewrite (``shape_hits``), whose artifact equals a fresh compile's
    byte for byte — so it is written back, shipped and served like one.
    A query without a non-empty literal bypasses the tier (it is its own
    shape, which L1 already keys), and a template whose compilation
    raises is not kept: the query is compiled itself and raises its own
    error.
    """

    def __init__(
        self,
        capacity: int = 256,
        store: PlanStore | None = None,
        compiler: QueryCompiler | None = None,
    ) -> None:
        self.store = store
        self.compiler = compiler if compiler is not None else QueryCompiler()
        self._stats = CacheStats()
        self._lru = SingleFlightLRU(capacity, self._stats)
        #: Raw-text aliases (see the class docstring).  Uncounted: losing
        #: one costs a re-parse, never correctness.
        self._aliases = SingleFlightLRU(capacity, CacheStats())
        #: Shape templates (see the class docstring); uncounted here —
        #: ``shape_hits`` is counted per lookup a template served.
        self._templates = SingleFlightLRU(capacity, CacheStats())
        #: Query frames (see the class docstring); uncounted here —
        #: ``frame_hits`` is counted per lookup a frame served.
        self._frames = SingleFlightLRU(capacity, CacheStats())
        #: Inert (see :class:`ComposedCache`).
        self.composed = ComposedCache()

    # ------------------------------------------------------------------
    def plan(
        self, spec: ViewSpec | None, query: str | ast.Path | NormalizedQuery
    ) -> CachedPlan:
        """Fetch or build the plan for ``query`` over ``spec``
        (:meth:`lookup` without the display text)."""
        return self.lookup(spec, query)[0]

    def lookup(
        self, spec: ViewSpec | None, query: str | ast.Path | NormalizedQuery
    ) -> tuple[CachedPlan, str]:
        """Fetch or build the plan for ``query`` over ``spec``; returns
        it with the query's display text (the unparse of the query *as
        posed*, not of its normal form).

        Lookup order: raw-text alias (texts only) → frame (texts only) →
        L1 (live plans) → L2 (artifact store, when configured) → shape
        template → the compilation pipeline.  Rehydrated, instantiated
        and freshly compiled plans are promoted into L1; new artifacts are also
        written back to the store, so every process sharing the
        directory — and every future restart — starts warm.
        Only the first text of a frame (or of a literal-free text, its
        first sight after its alias or plan was evicted) is parsed and
        normalised.
        """
        with span("plan") as plan_span:
            fingerprint = None if spec is None else spec.fingerprint()
            alias = values = entry = None
            if isinstance(query, str):
                alias = (fingerprint, query)
                known = self._aliases.hit(alias)
                plan = None if known is None else self._lru.hit(known[0])
                if plan is not None:
                    if plan_span is not None:
                        plan_span.set(tier="l1")
                    return plan, known[1]
                frame, values = frame_of(query)
                if values:
                    entry = self._frames.hit((fingerprint, frame))
            if entry is not None:
                display, normal, literals = entry.render(values)
                shaped = entry.shape, literals
                self._stats.count("frame_hits")
            else:
                if isinstance(query, str):
                    query = self.compiler.parse(query)
                display = (
                    query.text if isinstance(query, NormalizedQuery) else unparse(query)
                )
                normalized = self.compiler.normalize(query)
                normal = normalized.text
                shaped = None  # shape_of runs only where a build or a frame needs it
            key = key_of(fingerprint, normal)
            tier = "l1"

            def resolve() -> CachedPlan:
                nonlocal tier, shaped
                artifact = None if self.store is None else self.store.load(key)
                if artifact is None:
                    shaped = shaped or shape_of(normalized)
                    tier, artifact = self._build(spec, fingerprint, normal, *shaped)
                    if tier == "shape":
                        self._stats.count("misses", "shape_hits")
                    else:
                        self._stats.count("misses")
                else:
                    tier = "l2"
                    self._stats.count("l2_hits")
                return CachedPlan(artifact.mfa, artifact)

            plan = self._lru.get(key, resolve)
            if plan_span is not None:
                plan_span.set(tier=tier)
            # Write-back after publication AND after the gate: the save
            # (payload encode + disk write) is atomic and idempotent, so
            # waiters — served from L1 by now — never queue behind it.
            if tier in ("compile", "shape") and self.store is not None:
                self.store.save(key, plan.artifact)
            if alias is not None:
                self._aliases.get(alias, lambda: (key, display))
                if entry is None and values:
                    self._frames.get(
                        (fingerprint, frame),
                        lambda: Frame.of(
                            values, display, normal, *(shaped or shape_of(normalized))
                        ),
                    )
            return plan, display

    def _build(
        self,
        spec: ViewSpec | None,
        fingerprint: str | None,
        normal: str,
        shape: NormalizedQuery,
        literals: tuple[str, ...],
    ) -> tuple[str, PlanArtifact]:
        """A new artifact (of the query whose normal-form text is
        ``normal`` and whose :func:`shape_of` is ``(shape, literals)``)
        and its tier: ``"shape"`` when instantiated from a template
        compiled before, ``"compile"`` otherwise (no literal, a new
        shape — its template compiled here — or a template that failed
        to compile)."""
        if not literals:
            return "compile", self.compiler.compile(spec, shape)
        compiled = []

        def template() -> Template:
            compiled.append(True)
            return Template.of(self.compiler.compile(spec, shape))

        try:
            found = self._templates.get((fingerprint, shape.text), template)
        except ReproError:
            # Never report a sentinel: the query's own compile raises.
            return "compile", self.compiler.compile(spec, fill(shape, literals))
        artifact = self.compiler.instantiate(found, normal, literals)
        return ("compile" if compiled else "shape"), artifact

    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> CachedPlan | None:
        """Return the cached plan (refreshing recency) or ``None``."""
        plan = self._lru.hit(key)
        if plan is None:
            self._stats.count("misses")
        return plan

    def invalidate_view(self, view: str | None) -> int:
        """Drop every L1 plan keyed under fingerprint ``view``.

        With fingerprints in the key a replaced registration can never be
        *served* stale entries; invalidation just releases their memory
        early (pass the old spec's ``fingerprint()``).  Store files are
        left in place — they stay valid for any holder still using that
        specification.
        """
        self._aliases.drop(lambda alias: alias[0] == view)
        self._frames.drop(lambda frame: frame[0] == view)
        self._templates.drop(lambda shape: shape[0] == view)
        return self._lru.drop(lambda key: key[0] == view)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key: Hashable) -> bool:
        return self._lru.peek(key) is not None

    def keys(self) -> Iterator[Hashable]:
        """Snapshot of keys, least recently used first."""
        return iter([key for key, _plan in self._lru.items()])

    @property
    def stats(self) -> CacheStats:
        """A point-in-time copy of the counters."""
        return self._stats.snapshot()
