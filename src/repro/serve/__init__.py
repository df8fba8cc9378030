"""``repro.serve`` — the multi-tenant secure query service.

The paper's deployment scenario (Section 1): one server holds an XML
source; each user group is confined to its own security view and poses
(regular) XPath queries against it.  This package turns the single-shot
:class:`repro.engine.smoqe.SMOQE` engine into a serving system:

* :mod:`repro.serve.cache` — two-tier plan cache: a bounded, thread-safe
  in-memory LRU over an optional on-disk
  :class:`repro.compile.store.PlanStore`, keyed by ``(view fingerprint,
  normalised query, format version)``;
* :mod:`repro.serve.batch` — batched HyPE: N MFAs share one top-down
  document pass, pruning a subtree only when *every* live automaton
  allows it;
* :mod:`repro.serve.service` — the :class:`QueryService` façade (tenants,
  authorisation, batching, metrics);
* :mod:`repro.serve.session` — per-tenant session registry;
* :mod:`repro.serve.metrics` — service counters and table rendering;
* :mod:`repro.serve.pool` — the bounded evaluation worker pool:
  thread-safe compiled plans let independent waves overlap, with
  queue-wait and in-flight gauges for the metrics layer;
* :mod:`repro.serve.admission` — per-wave admission control: concurrent
  async arrivals coalesce into ``submit_wave`` batches;
* :mod:`repro.serve.lines` — the one NDJSON connection loop (framing,
  gate, task per line, id echo) every listening socket runs, plus the
  one SIGTERM → drain → close sequence;
* :mod:`repro.serve.frontend` — the asyncio NDJSON socket server (and
  client helper, with per-connection backpressure) in front of the
  service;
* :mod:`repro.serve.ring` — the consistent-hash ring the fleet routes
  documents to workers with;
* :mod:`repro.serve.fleet` — horizontal scale-out: an acceptor process
  routing to N worker processes over shared plan/document tiers, with
  health-checked restart and reroute-on-death.

Attribute access is lazy (PEP 562): :mod:`repro.engine.smoqe` depends on
:mod:`repro.serve.cache` for its plan cache while
:mod:`repro.serve.service` depends on the engine's ``QueryAnswer``, and
eager re-exports here would close that cycle.
"""

from importlib import import_module

_EXPORTS = {
    "AdmissionConfig": "admission",
    "AdmissionController": "admission",
    "AdmittedAnswer": "admission",
    "BatchEvaluator": "batch",
    "BatchResult": "batch",
    "BatchStats": "batch",
    "CachedPlan": "cache",
    "CacheStats": "cache",
    "PlanCache": "cache",
    "normalized_query_text": "cache",
    "plan_key": "cache",
    "FleetAcceptor": "fleet",
    "FleetSpec": "fleet",
    "WorkerHandle": "fleet",
    "WorkerUnavailable": "fleet",
    "start_fleet": "fleet",
    "FrontendClient": "frontend",
    "QueryFrontend": "frontend",
    "start_frontend": "frontend",
    "HashRing": "ring",
    "MetricsSnapshot": "metrics",
    "ServiceMetrics": "metrics",
    "DEFAULT_POOL_SIZE": "pool",
    "ExecutionPool": "pool",
    "PoolOutcome": "pool",
    "QueryRequest": "service",
    "QueryService": "service",
    "TenantBinding": "service",
    "WaveResult": "service",
    "rejection_kind": "service",
    "Session": "session",
    "SessionRegistry": "session",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module_name}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
