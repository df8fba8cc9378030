"""Service metrics: request, latency, cache and batching counters.

The recorder (:class:`ServiceMetrics`) is thread-safe and cheap to update
on the hot path; :meth:`ServiceMetrics.snapshot` produces an immutable
:class:`MetricsSnapshot`.  A scalar counter is declared once, as a field
of :class:`ServiceCounters`: the snapshot inherits it, ``as_dict`` walks
the fields, and :data:`repro.obs.export.FAMILIES` holds the one table
row that names its Prometheus family.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields, replace

from ..compile.pipeline import CompileStats
from ..compile.store import StoreStats
from ..docstore.store import DocStoreStats
from ..obs.counters import Counters
from ..obs.hist import Histogram
from .batch import BatchStats
from .cache import CacheStats


@dataclass
class LatencyStats:
    """Aggregated request latencies (seconds).

    ``min``/``max`` are ``0.0`` until the first record, so empty stats
    render as zeros instead of leaking a ``float("inf")`` sentinel.
    Every record also lands in a log-bucket histogram
    (:class:`repro.obs.hist.Histogram`), so tail percentiles
    (:attr:`p50`/:attr:`p95`/:attr:`p99`) report alongside the legacy
    count/mean/min/max aggregates.
    """

    count: int = 0
    total: float = 0.0
    min: float = 0.0
    max: float = 0.0
    hist: Histogram = field(default_factory=Histogram, compare=False)

    def record(self, seconds: float) -> None:
        if self.count == 0 or seconds < self.min:
            self.min = seconds
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds
        self.hist.record(seconds)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def p50(self) -> float:
        return self.hist.p50

    @property
    def p95(self) -> float:
        return self.hist.p95

    @property
    def p99(self) -> float:
        return self.hist.p99

    def snapshot(self) -> "LatencyStats":
        return replace(self, hist=self.hist.copy())

    def as_dict(self) -> dict:
        """JSON summary: the legacy aggregate shape plus percentiles."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


@dataclass
class TenantMetrics:
    """Per-tenant request accounting (rejections included, so rejected
    traffic is visible per tenant instead of vanishing into the global
    counter)."""

    requests: int = 0
    answers: int = 0
    rejections: int = 0
    latency: LatencyStats = field(default_factory=LatencyStats)

    def snapshot(self) -> "TenantMetrics":
        return replace(self, latency=self.latency.snapshot())

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "answers": self.answers,
            "rejections": self.rejections,
            "mean_latency": self.latency.mean,
            "max_latency": self.latency.max,
        }


@dataclass
class ServiceCounters(Counters):
    """The service's scalar counters — THE declaration of each.

    :class:`ServiceMetrics` bumps one instance under its lock and
    :class:`MetricsSnapshot` inherits the fields, so a counter added
    here reaches ``snapshot()`` and ``as_dict()`` with no further edit
    (and Prometheus with one :data:`repro.obs.export.FAMILIES` row).
    """

    requests: int = 0
    rejected: int = 0
    waves: int = 0
    wave_requests: int = 0
    wave_admitted: int = 0
    largest_wave: int = 0
    batch_runs: int = 0
    batched_queries: int = 0
    batch_visited: int = 0
    sequential_visited: int = 0


@dataclass
class PoolGauges(Counters):
    """The evaluation pool's bound and high-water mark at snapshot time."""

    size: int = 0
    peak_in_flight: int = 0


#: Flat ``as_dict`` keys beyond the counter block: the in-flight gauge
#: and the derived figures (properties of :class:`MetricsSnapshot`).
_FLAT = (
    "mean_wave_size",
    "in_flight_evaluations",
    "plan_l1_hits",
    "plan_l2_hits",
    "plan_misses",
    "doc_hits",
    "doc_index_builds",
)


@dataclass
class MetricsSnapshot(ServiceCounters):
    """Immutable point-in-time view of the service counters.

    ``latency`` covers pure *evaluation* time; ``queue_wait`` covers the
    time requests sat queued for an evaluation-pool worker.  The two used
    to be folded together (the old global evaluation lock's wait was
    timed inside "latency"), which made pool overlap invisible.
    ``in_flight_evaluations`` and ``pool`` (``size`` /
    ``peak_in_flight``) are the pool's gauges at snapshot time.
    """

    rejected_kinds: dict[str, int] = field(default_factory=dict)
    latency: LatencyStats = field(default_factory=LatencyStats)
    queue_wait: LatencyStats = field(default_factory=LatencyStats)
    tenants: dict[str, TenantMetrics] = field(default_factory=dict)
    in_flight_evaluations: int = 0
    pool: PoolGauges = field(default_factory=PoolGauges)
    cache: CacheStats = field(default_factory=CacheStats)
    compile: CompileStats = field(default_factory=CompileStats)
    #: Disk-tier counters; ``None`` when no plan store is configured.
    store: StoreStats | None = None
    #: Document-tier counters (shared store's when one is wired, the
    #: service's own document otherwise); ``None`` on old snapshots.
    doc_store: DocStoreStats | None = None

    @property
    def pool_size(self) -> int:
        return self.pool.size

    @property
    def peak_in_flight(self) -> int:
        return self.pool.peak_in_flight

    @property
    def doc_hits(self) -> int:
        """Requests served by an already-resolved shared document."""
        return self.doc_store.hits if self.doc_store is not None else 0

    @property
    def doc_index_builds(self) -> int:
        """Real OptHyPE index constructions (the number sharing minimises)."""
        return self.doc_store.index_builds if self.doc_store is not None else 0

    @property
    def plan_l1_hits(self) -> int:
        """Lookups served by the in-memory plan tier."""
        return self.cache.l1_hits

    @property
    def plan_l2_hits(self) -> int:
        """Lookups served by rehydrating an on-disk plan artifact."""
        return self.cache.l2_hits

    @property
    def plan_misses(self) -> int:
        """Lookups that built a new artifact: compiled, or instantiated
        from a shape template (``cache.shape_hits``)."""
        return self.cache.misses

    @property
    def batch_saved_visits(self) -> int:
        """Element visits batching avoided vs. per-query passes."""
        return self.sequential_visited - self.batch_visited

    #: Inert, each reads 0: waves step per lane, and only the frozen
    #: end-to-end harness still reads these.  Not in ``as_dict``.
    composed_hits = composed_builds = composed_fallbacks = interned_ccfgs = (
        property(lambda self: 0)
    )

    @property
    def mean_wave_size(self) -> float:
        """Average requests coalesced per admission wave (0.0 when none)."""
        return self.wave_requests / self.waves if self.waves else 0.0

    def describe(self) -> str:
        """One-paragraph summary for CLI output."""
        rejected = f"{self.rejected} rejected"
        if self.rejected_kinds:
            kinds = ", ".join(
                f"{count} {kind}"
                for kind, count in sorted(self.rejected_kinds.items())
            )
            rejected = f"{rejected}: {kinds}"
        lines = [
            f"requests: {self.requests} ({rejected})",
            (
                f"plan cache: {self.plan_l1_hits} L1 + "
                f"{self.plan_l2_hits} L2 hit(s), "
                f"{self.plan_misses} miss(es) "
                f"({self.cache.shape_hits} from a shape template), "
                f"{self.cache.evictions} eviction(s), "
                f"hit rate {self.cache.hit_rate:.0%}"
            ),
        ]
        stages = [
            (name, stage)
            for name, stage in self.compile.as_dict().items()
            if stage["count"]
        ]
        if stages:
            rendered = ", ".join(
                f"{name} {stage['count']}x {stage['seconds'] * 1000:.2f} ms"
                for name, stage in stages
            )
            lines.append(f"compile stages: {rendered}")
        if self.store is not None:
            line = (
                f"plan store: {self.store.hits} hit(s), "
                f"{self.store.misses} miss(es), "
                f"{self.store.stores} write(s)"
            )
            # Degradations an operator must see: corrupt files are being
            # recompiled, or the store directory is not writable/readable.
            if self.store.corrupt:
                line += f", {self.store.corrupt} CORRUPT"
            if self.store.errors:
                line += f", {self.store.errors} I/O error(s)"
            if self.store.gc_removed:
                line += f", {self.store.gc_removed} gc-removed"
            lines.append(line)
        if self.doc_store is not None:
            doc = self.doc_store
            line = (
                f"doc store: {doc.hits} hit(s), {doc.misses} miss(es), "
                f"{doc.index_builds} index build(s), "
                f"{doc.index_loads} load(s), {doc.index_stores} write(s)"
            )
            if doc.corrupt:
                line += f", {doc.corrupt} CORRUPT"
            if doc.errors:
                line += f", {doc.errors} I/O error(s)"
            lines.append(line)
        if self.waves:
            lines.append(
                f"admission: {self.wave_requests} request(s) in "
                f"{self.waves} wave(s) "
                f"(mean {self.mean_wave_size:.1f}/wave, "
                f"largest {self.largest_wave}, "
                f"{self.wave_admitted} admitted)"
            )
        if self.batch_runs:
            lines.append(
                f"batching: {self.batched_queries} query(ies) in "
                f"{self.batch_runs} wave(s), visited "
                f"{self.batch_visited} vs {self.sequential_visited} "
                f"one pass per query "
                f"(saved {self.batch_saved_visits})"
            )
        if self.pool_size:
            lines.append(
                f"evaluation pool: size {self.pool_size}, "
                f"{self.in_flight_evaluations} in flight "
                f"(peak {self.peak_in_flight}); "
                f"queue wait mean {self.queue_wait.mean * 1000:.2f} ms, "
                f"evaluate mean {self.latency.mean * 1000:.2f} ms "
                f"(p50 {self.latency.p50 * 1000:.2f} / "
                f"p95 {self.latency.p95 * 1000:.2f} / "
                f"p99 {self.latency.p99 * 1000:.2f} ms)"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-serialisable counters (the front-end ``metrics`` reply):
        every :class:`ServiceCounters` field and :data:`_FLAT` figure
        under its own name, then the nested blocks."""
        payload = {f.name: getattr(self, f.name) for f in fields(ServiceCounters)}
        payload.update((name, getattr(self, name)) for name in _FLAT)
        payload.update(
            rejected_kinds=dict(self.rejected_kinds),
            latency=self.latency.as_dict(),
            queue_wait=self.queue_wait.as_dict(),
            pool=self.pool.as_dict(),
            cache={
                **self.cache.as_dict(),
                "l1_hits": self.cache.l1_hits,
                "hit_rate": self.cache.hit_rate,
            },
            compile=self.compile.as_dict(),
            plan_store=None if self.store is None else self.store.as_dict(),
            doc_store=None
            if self.doc_store is None
            else self.doc_store.as_dict(),
            tenants={
                name: tm.as_dict() for name, tm in sorted(self.tenants.items())
            },
        )
        return payload


class ServiceMetrics:
    """Thread-safe recorder behind :class:`MetricsSnapshot`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters = ServiceCounters()
        self._rejected_kinds: dict[str, int] = {}
        self._latency = LatencyStats()
        self._queue_wait = LatencyStats()
        self._tenants: dict[str, TenantMetrics] = {}

    # ------------------------------------------------------------------
    def record_request(
        self, tenant: str, queue_wait: float, eval_seconds: float, answers: int
    ) -> None:
        """Account one served request.

        ``queue_wait`` (time spent waiting for a pool worker) and
        ``eval_seconds`` (the evaluation itself) are recorded separately;
        per-tenant latency tracks evaluation only.
        """
        with self._lock:
            self._counters.requests += 1
            self._latency.record(eval_seconds)
            self._queue_wait.record(queue_wait)
            per_tenant = self._tenants.get(tenant)
            if per_tenant is None:
                per_tenant = self._tenants[tenant] = TenantMetrics()
            per_tenant.requests += 1
            per_tenant.answers += answers
            per_tenant.latency.record(eval_seconds)

    def record_rejection(
        self, kind: str = "service", tenant: str | None = None
    ) -> None:
        """Count one rejected request, classified by failure ``kind``.

        With a ``tenant`` the rejection is also attributed to that
        tenant's row, so per-tenant dashboards see rejected traffic
        rather than only the global total.  Pass only names the service
        has registered (:meth:`QueryService.reject` filters): a row is
        two histograms, and a claimed name is attacker-controlled.
        """
        with self._lock:
            self._counters.rejected += 1
            self._rejected_kinds[kind] = self._rejected_kinds.get(kind, 0) + 1
            if tenant is not None:
                per_tenant = self._tenants.get(tenant)
                if per_tenant is None:
                    per_tenant = self._tenants[tenant] = TenantMetrics()
                per_tenant.rejections += 1

    def record_wave(self, size: int, admitted: int) -> None:
        """Count one admission wave of ``size`` requests (``admitted`` of
        which passed authorisation into the shared evaluation pass)."""
        with self._lock:
            counters = self._counters
            counters.waves += 1
            counters.wave_requests += size
            counters.wave_admitted += admitted
            if size > counters.largest_wave:
                counters.largest_wave = size

    def record_batch(self, queries: int, stats: BatchStats) -> None:
        """Count one shared evaluation pass serving ``queries`` requests."""
        with self._lock:
            counters = self._counters
            counters.batch_runs += 1
            counters.batched_queries += queries
            counters.batch_visited += stats.visited_elements
            counters.sequential_visited += stats.sequential_visited

    # ------------------------------------------------------------------
    def snapshot(
        self,
        cache: CacheStats | None = None,
        *,
        compile: CompileStats | None = None,
        store: StoreStats | None = None,
        doc_store: DocStoreStats | None = None,
        in_flight: int = 0,
        peak_in_flight: int = 0,
        pool_size: int = 0,
    ) -> MetricsSnapshot:
        """Counters + the caller-supplied cache/compile/store/pool gauges."""
        with self._lock:
            return MetricsSnapshot(
                **self._counters.as_dict(),
                rejected_kinds=dict(self._rejected_kinds),
                latency=self._latency.snapshot(),
                queue_wait=self._queue_wait.snapshot(),
                tenants={
                    name: tm.snapshot() for name, tm in self._tenants.items()
                },
                in_flight_evaluations=in_flight,
                pool=PoolGauges(pool_size, peak_in_flight),
                cache=cache or CacheStats(),
                compile=compile or CompileStats(),
                store=store,
                doc_store=doc_store,
            )
