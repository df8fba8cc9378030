"""The multi-tenant secure query service (the paper's deployment scenario).

One :class:`QueryService` serves one *default* document plus any number
of additional documents registered through :meth:`QueryService.add_document`
— every request may name the content hash of the document it wants via
``QueryRequest.document`` (``None`` keeps the pre-multi-document
behaviour: the default document).  Each *tenant* (user group) is bound to
a security view at registration time and to a *document catalog*: the
content hashes its view may be asked against.  Every request is
authorised against both bindings, so a tenant can never evaluate outside
its own window on the data — the access-control guarantee of Section 1 —
nor against a document its catalog does not name (a
:class:`repro.errors.DocumentError`, counted under the ``"document"``
rejection kind).  A tenant bound to ``view=None`` is trusted with direct
(unrewritten) regular-XPath access to its cataloged sources.

Two serving paths:

* :meth:`QueryService.submit` — one request: authorise, fetch or compile
  the plan from the shared LRU :class:`repro.serve.cache.PlanCache`, run
  HyPE, record metrics.
* :meth:`QueryService.submit_many` — many requests over the same
  document: plans are gathered per request and evaluated by one
  :class:`repro.serve.batch.BatchEvaluator` pass, so K queries cost one
  shared traversal instead of K.

Concurrency: compiled plans are immutable-after-warmup and thread-safe
(:class:`repro.hype.core.CompiledPlan`), so evaluation needs no global
lock — every run is dispatched to a bounded
:class:`repro.serve.pool.ExecutionPool`, letting independent waves and
requests overlap while queue-wait and evaluation time are measured
separately.
"""

from __future__ import annotations

import contextvars
import time
from dataclasses import dataclass

from ..compile.store import PlanStore
from ..docstore.document import IndexedDocument
from ..docstore.store import DocumentStore
from ..engine.smoqe import QueryAnswer
from ..errors import (
    AuthorizationError,
    DeadlineError,
    DocumentError,
    QueryTooComplexError,
    ReproError,
    ServiceError,
    ViewError,
)
from ..guard import Deadline, min_deadline
from ..hype.api import ALGORITHMS, HYPE
from ..obs.trace import add_span, span
from ..views.spec import ViewSpec
from ..xpath import ast
from ..xpath.parser import parse_query
from ..xpath.unparse import unparse
from ..xtree.node import XMLTree
from .batch import BatchEvaluator, BatchStats
from .cache import CachedPlan, PlanCache
from .metrics import MetricsSnapshot, ServiceMetrics
from .pool import DEFAULT_POOL_SIZE, ExecutionPool
from .session import Session, SessionRegistry


@dataclass
class TenantBinding:
    """A tenant's authorisation record: view, algorithms and catalog.

    ``documents`` is the tenant's document catalog — the content hashes
    its view may be asked against.  Registration resolves the
    backward-compatible default (``None`` at registration time) to a
    one-entry catalog holding the service's default document.
    """

    tenant: str
    view: str | None
    algorithms: tuple[str, ...] = ALGORITHMS
    documents: tuple[str, ...] = ()


@dataclass
class QueryRequest:
    """One unit of work for :meth:`QueryService.submit_many`.

    ``document`` selects which cataloged document the query runs over,
    by content hash; ``None`` means the service's default document.

    ``deadline_ms`` bounds the request end to end: it is armed into a
    :class:`repro.guard.Deadline` at admission, checked by the pool
    before evaluation starts, and enforced by the kernel's cooperative
    checkpoint mid-descent — an expired request is rejected (the
    structured ``deadline`` kind), never answered partially.  A caller
    that wants queue/admission time counted from an earlier instant (the
    front-end arms at protocol arrival) sets ``deadline`` directly;
    an armed ``deadline`` takes precedence over ``deadline_ms``.
    """

    tenant: str
    query: str | ast.Path
    algorithm: str | None = None
    session_id: str | None = None
    document: str | None = None
    deadline_ms: float | None = None
    deadline: Deadline | None = None

    def arm(self) -> Deadline | None:
        """The request's armed deadline (arming ``deadline_ms`` now)."""
        if self.deadline is not None:
            return self.deadline
        if self.deadline_ms is not None:
            return Deadline.after_ms(self.deadline_ms)
        return None


@dataclass
class WaveResult:
    """Per-request outcomes of one admission wave.

    Unlike :meth:`QueryService.submit_many` (all-or-nothing), a wave
    keeps going when individual requests fail authorisation or parsing:
    ``outcomes`` holds, in request order, either the request's
    :class:`QueryAnswer` or the :class:`repro.errors.ReproError` that
    rejected it.  ``stats`` covers the shared evaluation pass the
    admitted requests ran in.
    """

    outcomes: list[QueryAnswer | ReproError]
    stats: BatchStats

    @property
    def admitted(self) -> int:
        """Requests that reached the shared evaluation pass."""
        return sum(
            not isinstance(outcome, ReproError) for outcome in self.outcomes
        )

    @property
    def rejected(self) -> int:
        """Requests rejected before evaluation."""
        return len(self.outcomes) - self.admitted


def rejection_kind(error: ReproError) -> str:
    """Classify a rejected request for the metrics counters."""
    if isinstance(error, DeadlineError):
        return "deadline"
    if isinstance(error, QueryTooComplexError):
        return "query-too-complex"
    if isinstance(error, DocumentError):
        return "document"
    if isinstance(error, AuthorizationError):
        return "authorization"
    if isinstance(error, ServiceError):
        return "service"
    return "invalid-query"


class QueryService:
    """Serve many tenants' queries over cataloged in-memory documents."""

    def __init__(
        self,
        document: XMLTree | IndexedDocument,
        default_algorithm: str = HYPE,
        cache: PlanCache | None = None,
        cache_capacity: int = 256,
        plan_store: PlanStore | None = None,
        document_store: DocumentStore | None = None,
        pool: ExecutionPool | None = None,
        pool_size: int = DEFAULT_POOL_SIZE,
        compose: bool = False,
    ) -> None:
        if default_algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {default_algorithm!r}")
        #: Wave composition (PR 9): groups of >= 2 lanes sharing
        #: (view fingerprint, algorithm, document) step as ONE composed
        #: machine through the cache's composed tier.  Off by default —
        #: per-lane answers are identical either way; the flag trades
        #: per-wave composition work for sublinear batch stepping.
        self.compose = compose
        # The document tier: every request path works over a shared
        # IndexedDocument (columnar layout for the hot loop, OptHyPE
        # indexes built exactly once).  With a ``document_store`` the
        # document is registered under its content address and request
        # paths re-resolve it through the store — so the store's
        # hits/index_builds counters prove the sharing, and a store with
        # a persistent tier (``--doc-dir``) lets a restart skip index
        # construction entirely.
        self._document_store = document_store
        if isinstance(document, IndexedDocument):
            self._doc = document
        elif document_store is not None:
            self._doc = document_store.adopt(document)
        else:
            self._doc = IndexedDocument(document)
        self.document = self._doc.tree
        # The serveable-document registry: content hash -> strong
        # reference.  The construction-time document is the *default*
        # (requests without a ``document`` field resolve to it); every
        # additional document enters through :meth:`add_document`.
        self._default_hash = self._doc.content_hash
        self._documents: dict[str, IndexedDocument] = {
            self._default_hash: self._doc
        }
        self.default_algorithm = default_algorithm
        # ``plan_store`` wires the on-disk tier under a cache this service
        # creates (a restart against the same directory starts warm); an
        # explicitly passed ``cache`` keeps its own store configuration.
        self.cache = (
            cache
            if cache is not None
            else PlanCache(cache_capacity, store=plan_store)
        )
        self.sessions = SessionRegistry()
        self.metrics = ServiceMetrics()
        self._views: dict[str, ViewSpec] = {}
        self._tenants: dict[str, TenantBinding] = {}
        # Compiled plans are thread-safe, so there is no evaluation lock:
        # every run goes through a bounded worker pool (pass ``pool`` to
        # share one pool between services over the same hardware).
        self._owns_pool = pool is None
        self.pool = pool if pool is not None else ExecutionPool(pool_size)

    def close(self) -> None:
        """Release the evaluation workers (only a pool this service
        created; a shared pool passed in stays up for its other users).
        Idempotent; the service must not be used afterwards."""
        if self._owns_pool:
            self.pool.shutdown(wait=True)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Administration
    # ------------------------------------------------------------------
    def register_view(self, name: str, spec: ViewSpec) -> None:
        """Register a security view; replacing one drops its live plans.

        Cache keys carry the spec's content fingerprint, so plans of a
        replaced registration could never be served to the new one — the
        invalidation merely releases their memory early.
        """
        old = self._views.get(name)
        if old is not None and old.fingerprint() != spec.fingerprint():
            self.cache.invalidate_view(old.fingerprint())
        self._views[name] = spec

    def add_document(
        self, document: XMLTree | IndexedDocument
    ) -> str:
        """Register an additional serveable document; returns its hash.

        With a shared :class:`DocumentStore` the document is adopted
        there first, so every service (and every fleet worker) sharing
        the store resolves one copy and one index build.  Re-adding a
        content-identical document is a no-op returning the same hash.
        """
        if self._document_store is not None:
            doc = self._document_store.adopt(document)
        elif isinstance(document, IndexedDocument):
            doc = document
        else:
            doc = IndexedDocument(document)
        content_hash = doc.content_hash
        self._documents.setdefault(content_hash, doc)
        return content_hash

    def documents(self) -> dict[str, str | None]:
        """Serveable content hashes, the default flagged as ``"default"``."""
        return {
            content_hash: "default" if content_hash == self._default_hash else None
            for content_hash in sorted(self._documents)
        }

    @property
    def default_document_hash(self) -> str:
        return self._default_hash

    def register_tenant(
        self,
        tenant: str,
        view: str | None,
        algorithms: tuple[str, ...] | None = None,
        documents: tuple[str, ...] | None = None,
    ) -> TenantBinding:
        """Bind ``tenant`` to ``view`` (``None`` = trusted direct access).

        An explicitly empty ``algorithms`` tuple is a deny-all binding.
        ``documents`` is the tenant's catalog of content hashes; ``None``
        (the backward-compatible default) resolves to a one-entry catalog
        holding the default document, and every cataloged hash must
        already be serveable (see :meth:`add_document`).
        """
        if view is not None and view not in self._views:
            raise ViewError(f"unknown view {view!r}")
        if documents is None:
            catalog: tuple[str, ...] = (self._default_hash,)
        else:
            catalog = tuple(documents)
            for content_hash in catalog:
                if content_hash not in self._documents:
                    raise DocumentError(
                        f"cannot catalog unknown document {content_hash!r}"
                    )
        binding = TenantBinding(
            tenant,
            view,
            ALGORITHMS if algorithms is None else tuple(algorithms),
            catalog,
        )
        self._tenants[tenant] = binding
        return binding

    def tenants(self) -> list[str]:
        return sorted(self._tenants)

    def views(self) -> list[str]:
        return sorted(self._views)

    def open_session(self, tenant: str) -> Session:
        self._binding(tenant)  # authorise before handing out a session
        return self.sessions.open(tenant)

    # ------------------------------------------------------------------
    # Authorisation
    # ------------------------------------------------------------------
    def _binding(self, tenant: str) -> TenantBinding:
        binding = self._tenants.get(tenant)
        if binding is None:
            raise AuthorizationError(f"unknown tenant {tenant!r}")
        return binding

    def _authorize(
        self,
        tenant: str,
        algorithm: str | None,
        session_id: str | None,
        document: str | None = None,
    ) -> tuple[TenantBinding, str, Session | None, str]:
        """Authorise; return the binding, algorithm, session and doc hash.

        ``document`` (a content hash, or ``None`` for the default) is
        checked against the tenant's catalog — an uncataloged hash is a
        :class:`DocumentError` whether or not the service could serve it,
        so a tenant cannot probe which documents exist outside its
        catalog.

        The :class:`Session` object (not just its id) is captured here so
        accounting after evaluation touches the admitted session directly
        — a session closed mid-flight must not fail a request (let alone
        a whole wave) that was admitted while it was open.
        """
        binding = self._binding(tenant)
        algo = algorithm or self.default_algorithm
        if algo not in ALGORITHMS:
            raise ServiceError(f"unknown algorithm {algo!r}")
        if algo not in binding.algorithms:
            raise AuthorizationError(
                f"tenant {tenant!r} may not use algorithm {algo!r}"
            )
        doc_hash = document if document is not None else self._default_hash
        if doc_hash not in binding.documents:
            raise DocumentError(
                f"document {doc_hash!r} is not in tenant {tenant!r}'s catalog"
            )
        session = None
        if session_id is not None:
            session = self.sessions.get(session_id)
            if session.tenant != tenant:
                raise AuthorizationError(
                    f"session {session_id!r} does not belong to {tenant!r}"
                )
        return binding, algo, session, doc_hash

    # ------------------------------------------------------------------
    # Plan management
    # ------------------------------------------------------------------
    def _plan(
        self, binding: TenantBinding, query: str | ast.Path
    ) -> tuple[CachedPlan, str]:
        query_ast = parse_query(query) if isinstance(query, str) else query
        spec = None if binding.view is None else self._views[binding.view]
        plan = self.cache.plan(spec, query_ast)
        return plan, unparse(query_ast)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        query: str | ast.Path,
        algorithm: str | None = None,
        session_id: str | None = None,
        document: str | None = None,
        deadline_ms: float | None = None,
        deadline: Deadline | None = None,
    ) -> QueryAnswer:
        """Authorise, plan, evaluate and account one request.

        ``deadline_ms`` (or a pre-armed ``deadline``) bounds the whole
        request; expiry at any stage — admission, pool queue, or
        mid-descent — raises :class:`repro.errors.DeadlineError`,
        counted under the ``deadline`` rejection kind, and no partial
        answer is ever returned.
        """
        if deadline is None and deadline_ms is not None:
            deadline = Deadline.after_ms(deadline_ms)
        try:
            if deadline is not None and deadline.expired():
                raise DeadlineError("deadline expired before admission")
            binding, algo, session, doc_hash = self._authorize(
                tenant, algorithm, session_id, document
            )
            plan, query_text = self._plan(binding, query)
        except ReproError as error:
            # Parse/rewrite failures reject a request just as authorisation
            # failures do; classify so every rejection is counted.
            self.metrics.record_rejection(rejection_kind(error), tenant=tenant)
            raise
        doc = self._resolve_document(doc_hash)
        compiled = plan.compiled(algo, doc.tree, doc)
        try:
            outcome = self.pool.execute(
                lambda: compiled.run(
                    doc.tree.root, layout=doc.layout, deadline=deadline
                ),
                deadline=deadline,
            )
        except DeadlineError as error:
            self.metrics.record_rejection(rejection_kind(error), tenant=tenant)
            raise
        result = outcome.result
        add_span("queue.wait", outcome.enqueued, outcome.started)
        add_span(
            "evaluate",
            outcome.started,
            outcome.finished,
            algorithm=algo,
            answers=len(result.answers),
            visited=result.stats.visited_elements,
        )
        self.metrics.record_request(
            tenant, outcome.queue_wait, outcome.eval_seconds, len(result.answers)
        )
        if session is not None:
            session.touch(query_text)
        return QueryAnswer(
            result.answers,
            plan.mfa,
            result.stats,
            algo,
            view=binding.view,
            query_text=query_text,
            document=doc_hash,
        )

    def submit_many(
        self, requests: list[QueryRequest]
    ) -> tuple[list[QueryAnswer], BatchStats]:
        """Serve many requests through shared per-document passes.

        Returns answers in request order plus the shared-pass counters.
        Authorisation failures raise before any evaluation starts, so a
        batch is all-or-nothing.  Requests resolving to the same
        ``(plan, algorithm)`` over the same document share one lane —
        their answers are computed once and fanned out — so the reported
        ``sequential_visited`` (what N per-request passes would have
        cost) also counts the avoided duplicate evaluations.  Requests
        naming different cataloged documents are grouped: one shared
        traversal per distinct document.
        """
        if not requests:
            return [], BatchStats()
        grants = []
        for request in requests:
            try:
                grants.append(self._admit(request))
            except ReproError as error:
                self.metrics.record_rejection(
                    rejection_kind(error), tenant=request.tenant
                )
                raise
        answers, stats = self._evaluate_grants(grants)
        for answer in answers:
            # Deadline expiry mid-batch surfaces as that request's
            # rejection; submit_many keeps all-or-nothing semantics.
            if isinstance(answer, ReproError):
                raise answer
        return answers, stats

    def submit_wave(
        self,
        requests: list[QueryRequest],
        contexts: list[contextvars.Context | None] | None = None,
    ) -> WaveResult:
        """Serve one admission wave with per-request outcomes.

        The wave-friendly sibling of :meth:`submit_many`: requests that
        fail authorisation or parsing are rejected *individually* (counted
        in the metrics and returned as that slot's outcome) while every
        admitted request still shares one evaluation pass.  This is the
        entry point the async front-end dispatches coalesced waves
        through.

        ``contexts`` (parallel to ``requests``) carries each request's
        captured :mod:`contextvars` context — when a slot has one, its
        admission (plan/compile spans) runs inside it and the shared
        pass's timings are mirrored into it, so every request's trace
        shows the full wave it rode in.  The per-slot ``ctx.run`` calls
        are sequential in this one thread: a Context object must never
        be entered concurrently.
        """
        if not requests:
            return WaveResult([], BatchStats())
        outcomes: list[QueryAnswer | ReproError] = [None] * len(requests)
        grants = []
        grant_contexts: list[contextvars.Context | None] = []
        admitted_slots: list[int] = []
        for slot, request in enumerate(requests):
            ctx = contexts[slot] if contexts is not None else None
            try:
                if ctx is not None:
                    grant = ctx.run(self._admit, request)
                else:
                    grant = self._admit(request)
            except ReproError as error:
                self.metrics.record_rejection(
                    rejection_kind(error), tenant=request.tenant
                )
                outcomes[slot] = error
                continue
            grants.append(grant)
            grant_contexts.append(ctx)
            admitted_slots.append(slot)
        if grants:
            answers, stats = self._evaluate_grants(
                grants, contexts=grant_contexts
            )
        else:
            answers, stats = [], BatchStats()
        for slot, answer in zip(admitted_slots, answers):
            outcomes[slot] = answer
        self.metrics.record_wave(len(requests), admitted=len(grants))
        return WaveResult(outcomes, stats)

    # ------------------------------------------------------------------
    def _resolve_document(
        self, content_hash: str | None = None, uses: int = 1
    ) -> IndexedDocument:
        """The request path's document lookup (``None`` = default).

        With a document store the lookup goes through the store by
        content address — counting a ``doc_hits`` per served request
        (a batched wave resolves once with ``uses`` = its size), the
        observable proof that every tenant/lane/wave shares one parsed
        document and one index build — falling back to this service's
        strong reference if the store has evicted the entry.
        """
        if content_hash is None:
            content_hash = self._default_hash
        store = self._document_store
        with span("docstore.resolve", uses=uses) as resolve_span:
            if store is not None:
                doc = store.resolve(content_hash, uses=uses)
                if doc is not None:
                    if resolve_span is not None:
                        resolve_span.set(source="store")
                    return doc
            if resolve_span is not None:
                resolve_span.set(source="local")
            local = self._documents.get(content_hash)
            if local is None:
                # _authorize only admits cataloged hashes, and catalogs
                # only name registered documents — reaching here means
                # the store *and* the registry lost the entry.
                raise DocumentError(
                    f"document {content_hash!r} is no longer serveable"
                )
            return local

    def _admit(self, request: QueryRequest):
        """Authorise + plan one request (the pre-evaluation gate).

        The request's deadline is armed here (unless the caller armed it
        earlier, e.g. at protocol arrival) and a request that arrives
        already expired is rejected before any authorisation or compile
        work is spent on it.
        """
        deadline = request.arm()
        if deadline is not None and deadline.expired():
            raise DeadlineError("deadline expired before admission")
        binding, algo, session, doc_hash = self._authorize(
            request.tenant,
            request.algorithm,
            request.session_id,
            request.document,
        )
        plan, query_text = self._plan(binding, request.query)
        return (request, binding, algo, plan, query_text, session, doc_hash, deadline)

    def _evaluate_grants(
        self,
        grants: list,
        contexts: list[contextvars.Context | None] | None = None,
    ) -> tuple[list[QueryAnswer], BatchStats]:
        """Run admitted grants through shared per-document passes.

        Grants are partitioned by the document their request was
        authorised against: each distinct document costs exactly one
        shared traversal (the common single-document wave stays one
        pass, unchanged), and the per-group answers are merged back into
        request order with the group counters summed into one
        :class:`BatchStats` for the wave.
        """
        groups: dict[str, list[int]] = {}
        for index, grant in enumerate(grants):
            groups.setdefault(grant[6], []).append(index)
        answers: list[QueryAnswer | ReproError | None] = [None] * len(grants)
        lanes_total = 0
        visited_total = 0
        skipped_total = 0
        composed_groups_total = 0
        composed_lanes_total = 0
        composed_fallbacks_total = 0
        for doc_hash, indices in groups.items():
            group = [grants[index] for index in indices]
            group_contexts = (
                [contexts[index] for index in indices]
                if contexts is not None
                else None
            )
            group_answers, group_stats = self._evaluate_group(
                doc_hash, group, group_contexts
            )
            for index, answer in zip(indices, group_answers):
                answers[index] = answer
            lanes_total += group_stats.lanes
            visited_total += group_stats.visited_elements
            skipped_total += group_stats.skipped_subtrees
            composed_groups_total += group_stats.composed_groups
            composed_lanes_total += group_stats.composed_lanes
            composed_fallbacks_total += group_stats.composed_fallbacks
        stats = BatchStats(
            lanes=lanes_total,
            visited_elements=visited_total,
            skipped_subtrees=skipped_total,
            sequential_visited=sum(
                answer.stats.visited_elements
                for answer in answers
                if not isinstance(answer, ReproError)
            ),
            composed_groups=composed_groups_total,
            composed_lanes=composed_lanes_total,
            composed_fallbacks=composed_fallbacks_total,
        )
        self.metrics.record_batch(
            len(grants),
            stats.visited_elements,
            stats.sequential_visited,
            composed_groups=stats.composed_groups,
            composed_lanes=stats.composed_lanes,
            composed_fallbacks=stats.composed_fallbacks,
        )
        return answers, stats

    def _evaluate_group(
        self,
        doc_hash: str,
        grants: list,
        contexts: list[contextvars.Context | None] | None = None,
    ) -> tuple[list[QueryAnswer | ReproError], BatchStats]:
        """Run one document's admitted grants, deadline-aware.

        Grants whose deadline already expired are rejected up front (the
        structured ``deadline`` kind) without costing the wave anything.
        The rest share one pass armed with the *earliest* live deadline;
        if that fires mid-pass the shared cursors are discarded wholesale
        — no partial answers can escape — and every live grant is retried
        per-lane under its OWN deadline, so one tight-deadline request
        cannot sink its wavemates.
        """
        answers: list[QueryAnswer | ReproError | None] = [None] * len(grants)
        live: list[int] = []
        for index, grant in enumerate(grants):
            deadline = grant[7]
            if deadline is not None and deadline.expired():
                answers[index] = self._reject_deadline(
                    grant[0].tenant, "deadline expired before evaluation"
                )
            else:
                live.append(index)
        if not live:
            return answers, BatchStats()
        live_grants = [grants[index] for index in live]
        live_contexts = (
            [contexts[index] for index in live] if contexts is not None else None
        )
        group_deadline = min_deadline(grant[7] for grant in live_grants)
        try:
            group_answers, stats = self._shared_pass(
                doc_hash, live_grants, live_contexts, group_deadline
            )
        except DeadlineError:
            group_answers, stats = self._lane_fallback(
                doc_hash, live_grants, live_contexts
            )
        for index, answer in zip(live, group_answers):
            answers[index] = answer
        return answers, stats

    def _reject_deadline(self, tenant: str, message: str) -> DeadlineError:
        """Build + count one structured ``deadline`` rejection."""
        error = DeadlineError(message)
        self.metrics.record_rejection("deadline", tenant=tenant)
        return error

    def _shared_pass(
        self,
        doc_hash: str,
        grants: list,
        contexts: list[contextvars.Context | None] | None = None,
        deadline: Deadline | None = None,
    ) -> tuple[list[QueryAnswer], BatchStats]:
        """Run one document's admitted grants through one shared pass.

        Requests resolving to the same compiled plan — e.g. two tenants
        bound to one view posing the same query — share one lane, so the
        plan's memo tables are filled once and read by every request.

        Shared-pass phases (document resolution, queue wait, the batched
        evaluation) happen once per group but serve every grant — with
        ``contexts`` they are mirrored as spans into *each* request's
        trace, at the absolute instants the shared work ran.

        ``deadline`` (the wave's earliest) arms the pool's pre-eval drop
        and the kernel checkpoint; expiry raises
        :class:`repro.errors.DeadlineError` out of this method with no
        cursor state surviving.
        """
        resolve_start = time.perf_counter()
        doc = self._resolve_document(doc_hash, uses=len(grants))
        resolve_end = time.perf_counter()
        lane_of: dict[int, int] = {}
        lanes = []
        lane_meta: list = []
        request_lane: list[int] = []
        for grant in grants:
            binding, algo, plan = grant[1], grant[2], grant[3]
            compiled = plan.compiled(algo, doc.tree, doc)
            lane = lane_of.get(id(compiled))
            if lane is None:
                lane = lane_of[id(compiled)] = len(lanes)
                lanes.append(compiled)
                artifact = plan.artifact
                if artifact is None:
                    # Plans inserted through the generic put API carry no
                    # fingerprint to key a composed kernel under.
                    lane_meta.append(None)
                else:
                    view_fp = (
                        self._views[binding.view].fingerprint()
                        if binding.view is not None
                        else None
                    )
                    lane_meta.append((algo, view_fp, artifact.cache_key()))
            request_lane.append(lane)
        groups, composer, group_width = self._compose_groups(
            lanes, lane_meta, doc
        )
        pooled = self.pool.execute(
            lambda: BatchEvaluator(lanes, groups=groups, composer=composer).run(
                doc.tree.root, layout=doc.layout, deadline=deadline
            ),
            deadline=deadline,
        )
        outcome = pooled.result
        if groups:
            self._persist_composed(groups, lane_meta, doc)
        # Attribute the shared pass evenly across the batched requests.
        wait_share = pooled.queue_wait / len(grants)
        eval_share = pooled.eval_seconds / len(grants)
        answers: list[QueryAnswer] = []
        for index, (
            (request, binding, algo, plan, query_text, session, _doc_hash, _dl),
            lane,
        ) in enumerate(zip(grants, request_lane)):
            result = outcome.results[lane]
            ctx = contexts[index] if contexts is not None else None
            if ctx is not None:
                # Mirror the shared-pass phases into this request's trace
                # at their real absolute times.  Sequential ctx.run calls:
                # a Context must not be entered from two threads at once.
                ctx.run(
                    add_span,
                    "docstore.resolve",
                    resolve_start,
                    resolve_end,
                    uses=len(grants),
                )
                ctx.run(
                    add_span, "queue.wait", pooled.enqueued, pooled.started
                )
                ctx.run(
                    add_span,
                    "evaluate",
                    pooled.started,
                    pooled.finished,
                    algorithm=algo,
                    document=doc_hash,
                    wave=len(grants),
                    lanes=len(lanes),
                    lane=lane,
                    answers=len(result.answers),
                    visited=outcome.stats.visited_elements,
                    composed=lane in outcome.composed,
                    composed_width=group_width.get(lane, 0),
                )
            self.metrics.record_request(
                request.tenant, wait_share, eval_share, len(result.answers)
            )
            if session is not None:
                # The session captured at admission: touching it directly
                # keeps a close() racing the evaluation from failing the
                # wave after every answer was already computed.
                session.touch(query_text)
            answers.append(
                QueryAnswer(
                    result.answers,
                    plan.mfa,
                    result.stats,
                    algo,
                    view=binding.view,
                    query_text=query_text,
                    document=doc_hash,
                )
            )
        stats = BatchStats(
            lanes=len(lanes),
            visited_elements=outcome.stats.visited_elements,
            skipped_subtrees=outcome.stats.skipped_subtrees,
            sequential_visited=sum(
                a.stats.visited_elements for a in answers
            ),
            composed_groups=outcome.stats.composed_groups,
            composed_lanes=outcome.stats.composed_lanes,
            composed_fallbacks=outcome.stats.composed_fallbacks,
        )
        return answers, stats

    def _lane_fallback(
        self,
        doc_hash: str,
        grants: list,
        contexts: list[contextvars.Context | None] | None = None,
    ) -> tuple[list[QueryAnswer | ReproError], BatchStats]:
        """Retry grants one lane at a time, each under its own deadline.

        The shared pass aborted on the wave's earliest deadline; here
        every grant gets a fresh cursor and its own budget, so slower
        deadlines still complete and expired ones become structured
        ``deadline`` rejections — never partial answers (the aborted
        pass's cursors were discarded with the exception).
        """
        doc = self._resolve_document(doc_hash, uses=len(grants))
        answers: list[QueryAnswer | ReproError] = []
        evaluated = 0
        visited = 0
        skipped = 0
        for index, grant in enumerate(grants):
            request, binding, algo, plan, query_text, session, _dh, deadline = grant
            if deadline is not None and deadline.expired():
                answers.append(
                    self._reject_deadline(
                        request.tenant, "deadline expired before evaluation"
                    )
                )
                continue
            compiled = plan.compiled(algo, doc.tree, doc)
            try:
                pooled = self.pool.execute(
                    lambda c=compiled, d=deadline: c.run(
                        doc.tree.root, layout=doc.layout, deadline=d
                    ),
                    deadline=deadline,
                )
            except DeadlineError:
                answers.append(
                    self._reject_deadline(
                        request.tenant, "deadline expired mid-evaluation"
                    )
                )
                continue
            result = pooled.result
            evaluated += 1
            visited += result.stats.visited_elements
            skipped += result.stats.skipped_subtrees
            ctx = contexts[index] if contexts is not None else None
            if ctx is not None:
                ctx.run(add_span, "queue.wait", pooled.enqueued, pooled.started)
                ctx.run(
                    add_span,
                    "evaluate",
                    pooled.started,
                    pooled.finished,
                    algorithm=algo,
                    document=doc_hash,
                    answers=len(result.answers),
                    visited=result.stats.visited_elements,
                    fallback="deadline",
                )
            self.metrics.record_request(
                request.tenant,
                pooled.queue_wait,
                pooled.eval_seconds,
                len(result.answers),
            )
            if session is not None:
                session.touch(query_text)
            answers.append(
                QueryAnswer(
                    result.answers,
                    plan.mfa,
                    result.stats,
                    algo,
                    view=binding.view,
                    query_text=query_text,
                    document=doc_hash,
                )
            )
        stats = BatchStats(
            lanes=evaluated,
            visited_elements=visited,
            skipped_subtrees=skipped,
            sequential_visited=visited,
        )
        return answers, stats

    def _compose_groups(self, lanes, lane_meta, doc):
        """Plan the wave's composed groups (lanes sharing a family).

        Lanes group by ``(algorithm, view fingerprint)`` — the document
        is fixed per group call — and each group's member order is
        canonicalised by plan fingerprint, so the composed tier's key
        (the ordered member-fingerprint tuple) is the sorted tuple and
        one kernel serves every arrival order of the same wave shape.
        """
        if not self.compose or len(lanes) < 2:
            return [], None, {}
        by_family: dict = {}
        for lane, meta in enumerate(lane_meta):
            if meta is None:
                continue
            by_family.setdefault((meta[0], meta[1]), []).append(lane)
        groups: list[tuple[int, ...]] = []
        group_width: dict[int, int] = {}
        for members in by_family.values():
            if len(members) < 2:
                continue
            # Fingerprints within a family share the view component, so
            # ordering on (normalized query, version) is total.
            members.sort(key=lambda lane: lane_meta[lane][2][1:])
            groups.append(tuple(members))
            for lane in members:
                group_width[lane] = len(members)
        if not groups:
            return [], None, {}
        meta_of = {
            id(lanes[lane]): lane_meta[lane]
            for group in groups
            for lane in group
        }
        composed_cache = self.cache.composed
        doc_key = doc.content_hash

        def composer(members):
            metas = [meta_of[id(plan)] for plan in members]
            return composed_cache.kernel_for(
                members,
                tuple(meta[2] for meta in metas),
                metas[0][0],
                doc_key=doc_key,
            )

        return groups, composer, group_width

    def _persist_composed(self, groups, lane_meta, doc) -> None:
        """Write grown plain-family composed tables back to the store."""
        composed_cache = self.cache.composed
        if composed_cache.store is None:
            return
        for group in groups:
            composed_cache.persist(
                tuple(lane_meta[lane][2] for lane in group),
                lane_meta[group[0]][0],
                doc_key=doc.content_hash,
            )

    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> MetricsSnapshot:
        """Counters + cache/compile stats + pool gauges at this instant."""
        store = self.cache.store
        # Document-tier counters: the shared store's when one is wired
        # (its hits/misses span every service sharing it), otherwise the
        # private stats block of this service's own document.
        doc_stats = (
            self._document_store.stats
            if self._document_store is not None
            else self._doc.stats
        )
        return self.metrics.snapshot(
            self.cache.stats,
            compile=self.cache.compiler.metrics.snapshot(),
            store=None if store is None else store.stats,
            doc_store=doc_stats.snapshot(),
            in_flight=self.pool.in_flight,
            peak_in_flight=self.pool.peak_in_flight,
            pool_size=self.pool.size,
            composed=self.cache.composed.stats,
            composed_gauges=self.cache.composed.gauges(),
        )
