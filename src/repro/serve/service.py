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

One serving path: every request becomes a :class:`Grant`
(:meth:`QueryService._admit`: authorise, fetch or compile the plan from
the shared LRU :class:`repro.serve.cache.PlanCache`), grants over the
same document form a group, and a group is evaluated by
:meth:`QueryService._shared_pass` — the single place that resolves the
document, realises executables, hands one
:class:`repro.serve.batch.BatchEvaluator` pass to the pool, mirrors
spans and (through :meth:`Grant.answer`) records served requests.  The
entry points differ only in admission and in how rejections surface:

* :meth:`QueryService.submit` — one request, a width-1 group; raises
  its rejection.
* :meth:`QueryService.submit_many` — all-or-nothing: the first
  rejection raises.
* :meth:`QueryService.submit_wave` — per-slot outcomes: the entry point
  the front-end's admission waves use.

A deadline that fires mid-pass retries each live grant through the same
``_shared_pass`` at width 1 under its own deadline.

Concurrency: compiled plans are immutable-after-warmup and thread-safe
(:class:`repro.hype.core.CompiledPlan`), so evaluation needs no global
lock — every pass is dispatched to a bounded
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
from ..hype.core import HyPEResult
from ..obs.trace import add_span, current_span, span
from ..views.spec import ViewSpec
from ..xpath import ast
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


@dataclass(slots=True)
class Grant:
    """One admitted request: what evaluation and accounting need of it.

    Built by :meth:`QueryService._admit`; the evaluation path only ever
    reads it.  ``session`` is the :class:`Session` object (not its id)
    captured at admission, so accounting after evaluation touches the
    admitted session directly — a session closed mid-flight must not
    fail a request (let alone a whole wave) admitted while it was open.
    ``context`` is the request's captured :mod:`contextvars` context
    (its trace), set by :meth:`QueryService.submit_wave` when the slot
    came with one.
    """

    request: QueryRequest
    binding: TenantBinding
    algorithm: str
    plan: CachedPlan
    query_text: str
    session: Session | None
    document: str
    deadline: Deadline | None
    context: contextvars.Context | None = None

    def expired(self) -> bool:
        return self.deadline is not None and self.deadline.expired()

    def answer(
        self,
        result: HyPEResult,
        metrics: ServiceMetrics,
        queue_wait: float,
        eval_seconds: float,
    ) -> QueryAnswer:
        """Account this request's share of a pass and wrap its lane's
        result — the one place a served request is recorded."""
        metrics.record_request(
            self.request.tenant, queue_wait, eval_seconds, len(result.ids)
        )
        if self.session is not None:
            self.session.touch(self.query_text)
        return QueryAnswer(
            result,
            self.plan.mfa,
            self.algorithm,
            view=self.binding.view,
            query_text=self.query_text,
            document=self.document,
        )


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


def _call(func, *args, **kwargs):
    """``Context.run``'s shape for the caller's own (current) context."""
    return func(*args, **kwargs)


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
        plan_store: PlanStore | None = None,
        document_store: DocumentStore | None = None,
        pool_size: int = DEFAULT_POOL_SIZE,
        compose: bool = False,
    ) -> None:
        if default_algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {default_algorithm!r}")
        #: Inert: ``compose`` is accepted (and the attribute settable)
        #: for the frozen end-to-end harness; every wave steps per lane.
        self.compose = False
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
        self.cache = cache if cache is not None else PlanCache(store=plan_store)
        self.sessions = SessionRegistry()
        self.metrics = ServiceMetrics()
        self._views: dict[str, ViewSpec] = {}
        self._tenants: dict[str, TenantBinding] = {}
        # Compiled plans are thread-safe, so there is no evaluation lock:
        # every run goes through the service's bounded worker pool.
        self.pool = ExecutionPool(pool_size)

    def close(self) -> None:
        """Release the evaluation workers.  Idempotent; the service must
        not be used afterwards."""
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
        spec = None if binding.view is None else self._views[binding.view]
        return self.cache.lookup(spec, query)

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

        A width-1 group on the caller's thread: the same path a wave
        takes, minus the wave/batch counters.  ``deadline_ms`` (or a
        pre-armed ``deadline``) bounds the whole request; expiry at any
        stage — admission, pool queue, or mid-descent — raises
        :class:`repro.errors.DeadlineError`, counted under the
        ``deadline`` rejection kind, and no partial answer is ever
        returned.
        """
        grant = self._admit(
            QueryRequest(
                tenant,
                query,
                algorithm,
                session_id,
                document,
                deadline_ms,
                deadline,
            )
        )
        (outcome,), _stats = self._evaluate_group([grant])
        if isinstance(outcome, ReproError):
            raise outcome
        return outcome

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
        grants = [self._admit(request) for request in requests]
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
        admitted_slots: list[int] = []
        for slot, request in enumerate(requests):
            ctx = contexts[slot] if contexts is not None else None
            try:
                if ctx is not None:
                    grant = ctx.run(self._admit, request)
                else:
                    grant = self._admit(request)
            except ReproError as error:
                outcomes[slot] = error
                continue
            grant.context = ctx
            grants.append(grant)
            admitted_slots.append(slot)
        if grants:
            answers, stats = self._evaluate_grants(grants)
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

    def _admit(self, request: QueryRequest) -> Grant:
        """Authorise + plan one request (the pre-evaluation gate).

        The request's deadline is armed here (unless the caller armed it
        earlier, e.g. at protocol arrival) and a request that arrives
        already expired is rejected before any authorisation or compile
        work is spent on it.  Parse/rewrite failures reject a request
        just as authorisation failures do; every rejection is classified
        and counted here, then re-raised for the caller to place.
        """
        try:
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
        except ReproError as error:
            self.reject(rejection_kind(error), request.tenant)
            raise
        return Grant(
            request, binding, algo, plan, query_text, session, doc_hash, deadline
        )

    def _evaluate_grants(
        self, grants: list[Grant]
    ) -> tuple[list[QueryAnswer | ReproError], BatchStats]:
        """Run admitted grants through shared per-document passes.

        Grants are partitioned by the document their request was
        authorised against: each distinct document costs exactly one
        shared traversal (the common single-document wave stays one
        pass, unchanged), and the per-group answers are merged back into
        request order with the group counters merged into one
        :class:`BatchStats` for the wave.
        """
        by_document: dict[str, list[int]] = {}
        for index, grant in enumerate(grants):
            by_document.setdefault(grant.document, []).append(index)
        answers: list[QueryAnswer | ReproError | None] = [None] * len(grants)
        stats = BatchStats()
        for indices in by_document.values():
            group_answers, group_stats = self._evaluate_group(
                [grants[index] for index in indices]
            )
            for index, answer in zip(indices, group_answers):
                answers[index] = answer
            stats.merge(group_stats)
        self.metrics.record_batch(len(grants), stats)
        return answers, stats

    def _evaluate_group(
        self, grants: list[Grant]
    ) -> tuple[list[QueryAnswer | ReproError], BatchStats]:
        """Run one document's admitted grants, deadline-aware.

        Grants whose deadline already expired are rejected up front (the
        structured ``deadline`` kind) without costing the wave anything.
        The rest share one pass armed with the *earliest* live deadline;
        if that fires the shared cursors are discarded wholesale — no
        partial answers can escape — and every live grant is retried
        per-lane under its OWN deadline, so one tight-deadline request
        cannot sink its wavemates: slower deadlines still complete and
        expired ones become structured ``deadline`` rejections.
        """
        answers: list[QueryAnswer | ReproError | None] = [None] * len(grants)
        live: list[int] = []
        for index, grant in enumerate(grants):
            if grant.expired():
                answers[index] = self._reject_deadline(
                    grant, DeadlineError("deadline expired before evaluation")
                )
            else:
                live.append(index)
        if not live:
            return answers, BatchStats()
        live_grants = [grants[index] for index in live]
        try:
            group_answers, stats = self._shared_pass(
                live_grants,
                min_deadline(grant.deadline for grant in live_grants),
            )
        except DeadlineError:
            group_answers, stats = self._lane_fallback(live_grants)
        for index, answer in zip(live, group_answers):
            answers[index] = answer
        return answers, stats

    def _lane_fallback(
        self, grants: list[Grant]
    ) -> tuple[list[QueryAnswer | ReproError], BatchStats]:
        """Retry grants one width-1 pass at a time, each under its own
        deadline (the aborted shared pass's cursors died with its
        exception, so nothing partial survives into these)."""
        answers: list[QueryAnswer | ReproError] = []
        stats = BatchStats()
        for grant in grants:
            try:
                if grant.expired():
                    raise DeadlineError("deadline expired before evaluation")
                (answer,), lane_stats = self._shared_pass(
                    [grant], grant.deadline
                )
            except DeadlineError as error:
                answer = self._reject_deadline(grant, error)
            else:
                stats.merge(lane_stats)
            answers.append(answer)
        return answers, stats

    def _reject_deadline(
        self, grant: Grant, error: DeadlineError
    ) -> DeadlineError:
        """Count one structured ``deadline`` rejection; returns it."""
        self.reject("deadline", grant.request.tenant)
        return error

    def reject(self, kind: str, tenant: str | None = None) -> None:
        """Count one rejected request of failure ``kind``.

        Only a tenant this service has *registered* gets the rejection
        on its metrics row; the claimed name of an unauthenticated
        request counts in ``rejected`` / ``rejected_kinds`` alone, so
        hostile input cannot mint per-tenant series without bound.
        """
        self.metrics.record_rejection(
            kind, tenant if tenant in self._tenants else None
        )

    def _shared_pass(
        self, grants: list[Grant], deadline: Deadline | None
    ) -> tuple[list[QueryAnswer], BatchStats]:
        """Run one document's live grants through one pass — the single
        place that resolves the document, realises executables, hands
        work to the pool, mirrors spans and records served requests.

        Requests resolving to the same compiled plan — e.g. two tenants
        bound to one view posing the same query — share one lane, so the
        plan's memo tables are filled once and read by every request.

        The pass's phases (document resolution, queue wait, the batched
        evaluation) happen once but serve every grant, so they are
        recorded as spans into *each* request's trace at the absolute
        instants the shared work ran: into the grant's captured context
        when it has one, else into the caller's active trace.

        ``deadline`` arms the pool's pre-eval drop and the kernel
        checkpoint; expiry raises :class:`repro.errors.DeadlineError`
        out of this method with no cursor state surviving.
        """
        doc_hash = grants[0].document
        resolve_start = time.perf_counter()
        doc = self._resolve_document(doc_hash, uses=len(grants))
        resolve_end = time.perf_counter()
        lane_of: dict[int, int] = {}
        lanes = []
        request_lane: list[int] = []
        for grant in grants:
            compiled = grant.plan.compiled(grant.algorithm, doc.tree, doc)
            lane = lane_of.get(id(compiled))
            if lane is None:
                lane = lane_of[id(compiled)] = len(lanes)
                lanes.append(compiled)
            request_lane.append(lane)
        pooled = self.pool.execute(
            # Node id 0, the root: the pass walks columns and creates no node.
            lambda: BatchEvaluator(lanes).run(
                0, layout=doc.layout, deadline=deadline
            ),
            deadline=deadline,
        )
        outcome = pooled.result
        # Attribute the shared pass evenly across the batched requests.
        wait_share = pooled.queue_wait / len(grants)
        eval_share = pooled.eval_seconds / len(grants)
        traced_here = current_span() is not None
        answers: list[QueryAnswer] = []
        for grant, lane in zip(grants, request_lane):
            result = outcome.results[lane]
            ctx = grant.context
            if ctx is not None:
                # Sequential ctx.run calls: a Context must not be
                # entered from two threads at once.  (The caller's own
                # trace already holds _resolve_document's span.)
                ctx.run(
                    add_span,
                    "docstore.resolve",
                    resolve_start,
                    resolve_end,
                    uses=len(grants),
                )
                record = ctx.run
            elif traced_here:
                record = _call
            else:
                record = None
            if record is not None:
                record(add_span, "queue.wait", pooled.enqueued, pooled.started)
                record(
                    add_span,
                    "evaluate",
                    pooled.started,
                    pooled.finished,
                    algorithm=grant.algorithm,
                    document=doc_hash,
                    wave=len(grants),
                    lanes=len(lanes),
                    lane=lane,
                    answers=len(result.ids),
                    visited=outcome.stats.visited_elements,
                )
            answers.append(
                grant.answer(result, self.metrics, wait_share, eval_share)
            )
        stats = outcome.stats
        # Per *request*, not per lane: what N separate passes would have
        # cost also counts the duplicate evaluations lane sharing avoided.
        stats.sequential_visited = sum(
            answer.stats.visited_elements for answer in answers
        )
        return answers, stats

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
        )
