"""The worker fleet: N processes behind one consistent-hash acceptor.

The step from "a server" to "a fleet" — and the one scaling axis the GIL
denies the in-process :class:`repro.serve.pool.ExecutionPool`.  Topology:

* **Workers** are full :class:`repro.serve.frontend.QueryFrontend`
  processes (spawned as ``python -m repro.serve.fleet --worker NAME``),
  each building an identical multi-document
  :class:`repro.serve.service.QueryService` from the fleet's
  :class:`FleetSpec`.  They share the content-addressed ``--plan-dir`` /
  ``--doc-dir`` tiers, so a cold worker performs **zero MFA rewrites and
  zero index builds** for anything a sibling (or a previous run) already
  compiled — the property PRs 4–5 built and ``make fleet-smoke`` checks.
* **The acceptor** owns the listening socket and speaks the same NDJSON
  protocol as a single frontend — literally: both are
  :class:`repro.serve.lines.LineServer` subclasses, and this module
  keeps only routing, circuit breakers and health.  Its gate differs in
  one policy: a draining acceptor refuses *every* op, a draining worker
  only ``query``.  Every ``query`` is routed by the
  *document content hash* it names through a
  :class:`repro.serve.ring.HashRing` over worker names, so each worker's
  in-memory plan/layout LRUs stay hot for its shard of the document
  population.  All client connections multiplex over one pipelined
  connection per worker (fleet-assigned reply ids, future-based
  forwarding).
* **Failures reroute.**  Queries are read-only, so a request whose
  worker dies mid-flight (connection drop before its reply) is retried
  on the next node of the ring's preference order — an acknowledged
  reply is never retried, an unacknowledged one is never lost.  A
  health loop pings workers and restarts crashed ones under the same
  ring name, so a recovered worker takes back exactly its old shard.
  Workers answering ``draining`` (mid-SIGTERM) are rerouted the same
  way, which is what makes rolling fleet restarts invisible to clients.

Acceptor ops beyond the frontend protocol: ``fleet`` reports topology
(worker pids/liveness/restarts and the document→worker routing),
``metrics`` returns per-worker snapshots, and ``prometheus`` merges the
workers' ``worker``-labelled expositions into one aggregate view
(:func:`repro.obs.export.merge_expositions`).  Sessions (``open`` /
``close``) are worker-local state and are rejected as ``bad-request``
through the acceptor.
"""

from __future__ import annotations

import asyncio
import importlib
import json
import os
import random
import sys
import threading
import time
from dataclasses import dataclass, field, asdict

from ..errors import ReproError, ServiceError
from ..faults import fire as _fault_fire
from ..obs.export import Exposition, Family, merge_expositions
from .admission import AdmissionConfig
from .frontend import QueryFrontend
from .lines import (
    DEFAULT_HOST,
    LINE_LIMIT,
    LineServer,
    error_reply,
    serve_until_drained,
)
from .ring import DEFAULT_REPLICAS, HashRing

#: Seconds to wait for a spawned worker's handshake line.
HANDSHAKE_TIMEOUT = 60.0

#: Worker-side per-connection pending cap.  The acceptor multiplexes
#: every client over ONE connection per worker, so the single-frontend
#: default (32) would spuriously shed load here.
FLEET_MAX_PENDING = 1024

DEFAULT_BUILDER = "repro.workloads.multidoc:build_multidoc_service"


class WorkerUnavailable(ServiceError):
    """The targeted worker is dead or died before replying."""


#: Consecutive failures that trip a worker's circuit breaker open.
BREAKER_THRESHOLD = 3

#: First backoff delay (seconds) after the breaker trips / a restart.
BACKOFF_BASE = 0.25

#: Ceiling on any single backoff delay (seconds).
BACKOFF_CAP = 8.0

#: Default per-request timeout (seconds) the acceptor waits on a worker
#: before counting a breaker failure and rerouting.  Queries are
#: read-only, so a timed-out (unacknowledged) request is safe to retry
#: on the next ring preference — exactly the path a dead connection
#: takes.
DEFAULT_REQUEST_TIMEOUT = 30.0


class CircuitBreaker:
    """Per-worker circuit breaker: closed → open → half-open → closed.

    ``record_failure`` after :attr:`threshold` *consecutive* failures
    trips the breaker open for an exponentially growing, jittered delay
    (each further failure while open doubles it, capped); routing skips
    open breakers, so a sick worker stops eating requests that its ring
    siblings could serve.  Once the delay elapses, :meth:`allow` admits
    exactly ONE probe (half-open); the probe's outcome either closes the
    breaker or re-opens it with a longer delay.

    Jitter (a uniform 0.5–1.0 factor) keeps a fleet's breakers from
    re-probing in lockstep after a shared outage.  Not thread-safe: all
    calls happen on the acceptor's event loop.
    """

    def __init__(
        self,
        threshold: int = BREAKER_THRESHOLD,
        base_delay: float = BACKOFF_BASE,
        max_delay: float = BACKOFF_CAP,
        rng: random.Random | None = None,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.state = "closed"
        self.failures = 0  # consecutive
        self.total_failures = 0
        self.opened = 0  # times tripped open
        self.open_until = 0.0  # monotonic instant the next probe unlocks
        self._rng = rng if rng is not None else random.Random()

    def _delay(self) -> float:
        """The jittered exponential delay for the current failure run."""
        exponent = min(self.failures - self.threshold, 12)
        raw = min(self.max_delay, self.base_delay * (2.0 ** max(exponent, 0)))
        return raw * (0.5 + 0.5 * self._rng.random())

    def record_failure(self, now: float | None = None) -> None:
        now = time.monotonic() if now is None else now
        self.failures += 1
        self.total_failures += 1
        if self.failures >= self.threshold:
            if self.state != "open":
                self.opened += 1
            self.state = "open"
            self.open_until = now + self._delay()

    def record_success(self) -> None:
        self.state = "closed"
        self.failures = 0
        self.open_until = 0.0

    def reset(self) -> None:
        """Fresh process behind this breaker: give it traffic again."""
        self.record_success()

    def allow(self, now: float | None = None) -> bool:
        """May a request be routed to this worker right now?

        While open, the first call after ``open_until`` transitions to
        half-open and admits the probe; further calls are refused until
        the probe reports back through ``record_success``/``record_failure``.
        """
        if self.state == "closed":
            return True
        if self.state == "open":
            now = time.monotonic() if now is None else now
            if now >= self.open_until:
                self.state = "half-open"
                return True
            return False
        return False  # half-open: one probe already in flight

    def backoff_remaining(self, now: float | None = None) -> float:
        """Seconds until the next probe unlocks (0 when closed/half-open)."""
        if self.state != "open":
            return 0.0
        now = time.monotonic() if now is None else now
        return max(0.0, self.open_until - now)

    def as_dict(self) -> dict:
        """JSON-shaped state for the ``fleet``/``metrics`` ops."""
        return {
            "state": self.state,
            "consecutive_failures": self.failures,
            "total_failures": self.total_failures,
            "opened": self.opened,
            "backoff_ms": round(self.backoff_remaining() * 1000.0, 3),
        }


@dataclass
class FleetSpec:
    """The JSON recipe every fleet process builds its service from.

    ``builder`` names a ``module:function`` taking ``(config,
    plan_store=..., document_store=..., pool_size=...)`` and returning
    ``(service, hashes)`` — the same callable the single-process
    reference uses, which is what makes fleet-vs-single comparisons
    meaningful.  Everything here must round-trip through JSON: it is
    written to each worker's stdin.
    """

    builder: str = DEFAULT_BUILDER
    config: dict = field(default_factory=dict)
    plan_dir: str | None = None
    doc_dir: str | None = None
    pool_size: int | None = None
    max_wave: int = 8
    max_wait_ms: float = 20.0
    max_pending: int = FLEET_MAX_PENDING
    access_log: str | None = None  # "{worker}" expands to the worker name

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "FleetSpec":
        return cls(**json.loads(text))


def build_fleet_service(spec: FleetSpec):
    """Resolve the spec's builder and construct ``(service, hashes)``."""
    module_name, _, func_name = spec.builder.partition(":")
    if not func_name:
        raise ReproError(
            f"builder must be 'module:function', got {spec.builder!r}"
        )
    builder = getattr(importlib.import_module(module_name), func_name)
    plan_store = None
    if spec.plan_dir:
        from ..compile.store import PlanStore

        plan_store = PlanStore(spec.plan_dir)
    document_store = None
    if spec.doc_dir:
        from ..docstore import DocumentStore

        document_store = DocumentStore(index_dir=spec.doc_dir)
    return builder(
        spec.config,
        plan_store=plan_store,
        document_store=document_store,
        pool_size=spec.pool_size,
    )


def _admission(spec: FleetSpec) -> AdmissionConfig:
    return AdmissionConfig(
        max_wave=spec.max_wave, max_wait=spec.max_wait_ms / 1000.0
    )


# ----------------------------------------------------------------------
# The worker process
# ----------------------------------------------------------------------
async def _serve_worker(name: str, spec: FleetSpec) -> int:
    """One fleet worker: a full frontend on an ephemeral port.

    Prints a one-line JSON handshake (host/port/pid) once listening.
    SIGTERM drains gracefully (refuse new queries, finish in-flight
    waves, flush the access log); stdin EOF — the acceptor went away —
    shuts down immediately.
    """
    access_log = None
    if spec.access_log:
        from ..obs.log import AccessLogger, StructuredLog

        access_log = AccessLogger(
            StructuredLog(spec.access_log.replace("{worker}", name)),
            access=True,
        )
    service, _hashes = build_fleet_service(spec)
    frontend = QueryFrontend(
        service,
        _admission(spec),
        max_pending=spec.max_pending,
        access_log=access_log,
        worker=name,
    )
    host, port = await frontend.start("127.0.0.1", 0)
    print(
        json.dumps(
            {"ok": True, "host": host, "port": port, "pid": os.getpid()}
        ),
        flush=True,
    )
    stop = asyncio.Event()
    # A daemon thread watches stdin: EOF means the acceptor is gone and
    # this worker must not outlive it (daemonic so a blocked read never
    # wedges interpreter shutdown).
    threading.Thread(
        target=_stdin_eof_watch,
        args=(asyncio.get_running_loop(), stop),
        daemon=True,
    ).start()

    async def close() -> None:
        await frontend.close()
        service.close()

    await serve_until_drained(frontend.drain, close, stop)
    return 0


def _stdin_eof_watch(loop: asyncio.AbstractEventLoop, stop: asyncio.Event):
    try:
        sys.stdin.read()
    except Exception:
        pass
    try:
        loop.call_soon_threadsafe(stop.set)
    except RuntimeError:
        pass  # loop already closed


# ----------------------------------------------------------------------
# Acceptor-side worker handle
# ----------------------------------------------------------------------
class WorkerHandle:
    """One worker subprocess + the acceptor's multiplexed connection."""

    def __init__(self, name: str, spec: FleetSpec) -> None:
        self.name = name
        self.spec = spec
        self.proc: asyncio.subprocess.Process | None = None
        self.host: str | None = None
        self.port: int | None = None
        self.pid: int | None = None
        self.alive = False
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._futures: dict[str, asyncio.Future] = {}
        self._next_fid = 0
        self._reply_task: asyncio.Task | None = None

    async def start(self) -> None:
        """Spawn, handshake, and connect the forwarding channel."""
        env = dict(os.environ)
        # Ensure the child resolves this exact package, however the
        # parent was launched.
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing
            else package_root + os.pathsep + existing
        )
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro.serve.fleet",
            "--worker",
            self.name,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=env,
        )
        assert self.proc.stdin is not None and self.proc.stdout is not None
        self.proc.stdin.write((self.spec.to_json() + "\n").encode())
        await self.proc.stdin.drain()
        line = await asyncio.wait_for(
            self.proc.stdout.readline(), HANDSHAKE_TIMEOUT
        )
        hello = json.loads(line) if line else {}
        if not hello.get("ok"):
            raise ReproError(
                f"worker {self.name!r} failed to start: {line!r}"
            )
        self.host = hello["host"]
        self.port = int(hello["port"])
        self.pid = int(hello["pid"])
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=LINE_LIMIT
        )
        self.alive = True
        self._reply_task = asyncio.create_task(self._read_replies())

    async def _read_replies(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                reply = json.loads(line)
                future = self._futures.pop(reply.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(reply)
        except (ConnectionError, OSError, ValueError):
            pass
        finally:
            self._fail_pending()

    def _fail_pending(self) -> None:
        """Connection lost: the worker is gone; fail every waiter.

        Failed futures surface as :class:`WorkerUnavailable` to the
        routing layer, which retries the (read-only, idempotent) query
        on the next ring preference — no acknowledged reply is ever
        involved, because acknowledged replies resolved their futures.
        """
        self.alive = False
        pending, self._futures = self._futures, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(WorkerUnavailable(self.name))

    async def call(self, message: dict, timeout: float | None = None) -> dict:
        """Forward one request; await its correlated reply."""
        if not self.alive or self._writer is None:
            raise WorkerUnavailable(self.name)
        fault = _fault_fire("worker.connect")
        if fault is not None and fault.action == "drop":
            # Simulated connection drop BEFORE the request is sent: the
            # request is unacknowledged by construction, so the routing
            # layer's retry is exactly as safe as for a real dead socket.
            self._fail_pending()
            raise WorkerUnavailable(self.name)
        fid = f"f{self._next_fid}"
        self._next_fid += 1
        future = asyncio.get_running_loop().create_future()
        self._futures[fid] = future
        payload = {**message, "id": fid}
        try:
            self._writer.write((json.dumps(payload) + "\n").encode())
            await self._writer.drain()
        except (ConnectionError, OSError):
            self._futures.pop(fid, None)
            self._fail_pending()
            raise WorkerUnavailable(self.name) from None
        try:
            if timeout is not None:
                reply = await asyncio.wait_for(
                    asyncio.shield(future), timeout
                )
            else:
                reply = await future
        except asyncio.TimeoutError:
            self._futures.pop(fid, None)
            raise
        reply.pop("id", None)
        return reply

    @property
    def exited(self) -> bool:
        return self.proc is not None and self.proc.returncode is not None

    async def stop(self, kill: bool = False, grace: float = 10.0) -> None:
        """Stop the worker (SIGTERM drain by default, SIGKILL on demand)."""
        if self._reply_task is not None:
            self._reply_task.cancel()
            try:
                await self._reply_task
            except asyncio.CancelledError:
                pass
            self._reply_task = None
        self._fail_pending()
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
        if self.proc is not None and self.proc.returncode is None:
            try:
                self.proc.kill() if kill else self.proc.terminate()
            except ProcessLookupError:
                pass
            try:
                await asyncio.wait_for(self.proc.wait(), grace)
            except asyncio.TimeoutError:
                try:
                    self.proc.kill()
                except ProcessLookupError:
                    pass
                await self.proc.wait()


# ----------------------------------------------------------------------
# The acceptor
# ----------------------------------------------------------------------
class FleetAcceptor(LineServer):
    """The fleet's front door: one socket, N workers, ring routing.

    The socket side is :class:`repro.serve.lines.LineServer`; this class
    keeps routing, circuit breakers and the health loop.
    """

    def __init__(
        self,
        spec: FleetSpec,
        workers: int = 3,
        replicas: int = DEFAULT_REPLICAS,
        health_interval: float = 0.5,
        health_timeout: float = 5.0,
        request_timeout: float | None = DEFAULT_REQUEST_TIMEOUT,
        breaker_threshold: int = BREAKER_THRESHOLD,
        backoff_base: float = BACKOFF_BASE,
        backoff_cap: float = BACKOFF_CAP,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        super().__init__(LINE_LIMIT)
        self.spec = spec
        names = [f"w{i}" for i in range(workers)]
        self.workers: dict[str, WorkerHandle] = {
            name: WorkerHandle(name, spec) for name in names
        }
        self.ring = HashRing(names, replicas)
        self.health_interval = health_interval
        self.health_timeout = health_timeout
        self.request_timeout = request_timeout
        self.documents: dict[str, str | None] = {}
        self.default_document: str | None = None
        self.restarts = 0
        self.reroutes = 0
        self.timeouts = 0
        # Per-worker resilience state: one circuit breaker each (routing
        # skips open breakers; half-open probes recover) plus the
        # restart ledger the health loop's exponential backoff reads.
        # One seeded RNG keeps backoff jitter deterministic per acceptor
        # while still de-synchronising the workers from each other.
        self._rng = random.Random(0x5EED)
        self.breakers: dict[str, CircuitBreaker] = {
            name: CircuitBreaker(
                breaker_threshold, backoff_base, backoff_cap, rng=self._rng
            )
            for name in names
        }
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.worker_restarts: dict[str, int] = {name: 0 for name in names}
        self._restart_attempts: dict[str, int] = {name: 0 for name in names}
        self._restart_at: dict[str, float] = {name: 0.0 for name in names}
        self._health_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    async def start(
        self, host: str = DEFAULT_HOST, port: int = 0
    ) -> tuple[str, int]:
        await asyncio.gather(
            *(worker.start() for worker in self.workers.values())
        )
        # The document population comes from a worker, not a local
        # rebuild: every worker derives the same content hashes from the
        # spec, so any one of them is authoritative for routing.
        first = next(iter(self.workers.values()))
        catalog = await first.call({"op": "documents"})
        self.documents = catalog["documents"]
        self.default_document = catalog["default"]
        await super().start(host, port)
        self._health_task = asyncio.create_task(self._health_loop())
        return self.host, self.port

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, flush what was accepted.

        Ordered so no acknowledged request is lost: (1) mark draining —
        lines already-open connections send from now on are refused with
        an ``error: draining`` reply, never silently dropped; (2) close
        the listening socket — no new connections; (3) await every
        request task admitted before the mark; (4) :meth:`close`: stop
        the health loop (it must not resurrect workers mid-shutdown),
        close the client connections and SIGTERM the workers, which run
        their own in-process drain before exiting.
        """
        self.draining = True
        await self.stop_listening()
        await self.flush_inflight()
        await self.close()

    async def close(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        await super().close()
        await asyncio.gather(
            *(worker.stop() for worker in self.workers.values())
        )

    # ------------------------------------------------------------------
    def _restart_delay(self, name: str) -> float:
        """Jittered exponential backoff for ``name``'s next restart."""
        attempts = self._restart_attempts[name]
        raw = min(
            self.backoff_cap, self.backoff_base * (2.0 ** min(attempts, 12))
        )
        return raw * (0.5 + 0.5 * self._rng.random())

    async def _health_loop(self) -> None:
        """Ping workers; restart crashed ones under their ring name.

        A healthy ping resets the worker's restart-backoff ledger.  A
        dead or hung worker is killed and respawned — but a crash-looping
        worker backs off exponentially (with jitter) between attempts
        instead of restart-spinning, and while it is down routing keeps
        falling through to the ring's next preference.
        """
        while True:
            await asyncio.sleep(self.health_interval)
            for name, worker in list(self.workers.items()):
                if worker.alive and not worker.exited:
                    try:
                        await worker.call(
                            {"op": "ping"}, timeout=self.health_timeout
                        )
                        # Survived a full interval: the crash loop (if
                        # any) is over; restart backoff starts fresh.
                        self._restart_attempts[name] = 0
                        continue
                    except (WorkerUnavailable, asyncio.TimeoutError):
                        self.breakers[name].record_failure()
                if time.monotonic() < self._restart_at[name]:
                    continue  # waiting out this worker's restart backoff
                self._restart_attempts[name] += 1
                self._restart_at[name] = (
                    time.monotonic() + self._restart_delay(name)
                )
                try:
                    await worker.stop(kill=True, grace=2.0)
                    fresh = WorkerHandle(name, self.spec)
                    await fresh.start()
                    self.workers[name] = fresh
                    self.restarts += 1
                    self.worker_restarts[name] += 1
                    # Fresh process: let it take traffic immediately; if
                    # it is still sick the breaker re-trips within
                    # ``threshold`` requests.
                    self.breakers[name].reset()
                except (ReproError, OSError, asyncio.TimeoutError):
                    # Spawn failed; the backoff above already pushed the
                    # next attempt out and routing keeps falling through
                    # to the ring's next preference.
                    pass

    # ------------------------------------------------------------------
    #: Numeric encoding of breaker states for the Prometheus gauge.
    BREAKER_STATES = {"closed": 0, "half-open": 1, "open": 2}

    #: The acceptor's own scalar counters: ``metrics`` op key (the
    #: attribute name) and Prometheus family, declared once.
    FAMILIES = (
        Family("restarts", "fleet_restarts_total", "counter",
               "Worker restarts performed."),
        Family("reroutes", "fleet_reroutes_total", "counter",
               "Queries rerouted past their preferred worker."),
        Family("timeouts", "fleet_request_timeouts_total", "counter",
               "Worker requests abandoned at the per-request timeout."),
    )

    def _counters(self) -> dict:
        return {row.attribute: getattr(self, row.attribute) for row in self.FAMILIES}

    def _fleet_health(self) -> dict:
        """Acceptor-level resilience counters for the ``metrics`` op."""
        return {
            **self._counters(),
            "workers": {
                name: {
                    "alive": self.workers[name].alive,
                    "restarts": self.worker_restarts[name],
                    "breaker": self.breakers[name].as_dict(),
                }
                for name in self.workers
            },
        }

    def _acceptor_exposition(self) -> str:
        """The acceptor's own Prometheus series (merged with the
        workers' expositions by the ``prometheus`` op): restart and
        reroute totals plus per-worker breaker state and backoff."""
        out = Exposition("repro")
        out.scalars(self, self.FAMILIES)
        out.labelled(
            "fleet_worker_restarts_total", "counter",
            "Restarts per worker name.",
            "worker", self.worker_restarts.items(),
        )
        out.labelled(
            "fleet_worker_up", "gauge", "Worker liveness (1 = routable).",
            "worker",
            ((name, int(worker.alive)) for name, worker in self.workers.items()),
        )
        breakers = self.breakers.items()
        out.labelled(
            "fleet_breaker_state", "gauge",
            "Circuit breaker state (0 closed, 1 half-open, 2 open).",
            "worker",
            ((name, self.BREAKER_STATES.get(b.state, 2)) for name, b in breakers),
        )
        out.labelled(
            "fleet_breaker_backoff_seconds", "gauge",
            "Seconds until an open breaker admits its half-open probe.",
            "worker",
            ((name, b.backoff_remaining()) for name, b in breakers),
        )
        return out.render()

    # ------------------------------------------------------------------
    async def _route_query(self, message: dict) -> dict:
        """Route by document hash; reroute through the preference order.

        Retrying on :class:`WorkerUnavailable` is safe because queries
        are read-only and the failure means *no reply was received* —
        an acknowledged request never re-enters this loop.  Workers
        draining for shutdown are treated the same as dead ones.
        """
        doc_hash = message.get("document") or self.default_document
        tried = False
        for name in self.ring.preference(str(doc_hash)):
            worker = self.workers[name]
            breaker = self.breakers[name]
            if not worker.alive or not breaker.allow():
                # Dead, or its breaker is open (routing-around) — the
                # ring's next preference takes the shard until a
                # half-open probe recovers this worker.
                continue
            if tried:
                self.reroutes += 1
            tried = True
            try:
                reply = await worker.call(
                    message, timeout=self.request_timeout
                )
            except WorkerUnavailable:
                breaker.record_failure()
                continue
            except asyncio.TimeoutError:
                # No reply within the per-worker budget: the request is
                # unacknowledged, so retrying on the next preference is
                # exactly as safe as after a dead connection.
                self.timeouts += 1
                breaker.record_failure()
                continue
            if reply.get("error") == "draining":
                continue
            breaker.record_success()
            return reply
        return error_reply(
            "service", "no live worker for this document shard"
        )

    def gate(self, message: dict, pending: int) -> tuple[str, str] | None:
        """A draining acceptor refuses every op, not just queries."""
        if self.draining:
            return "draining", "acceptor is draining; retry elsewhere"
        return None

    async def reply_for(self, message: dict) -> dict:
        op = message.get("op")
        if op == "query":
            return await self._route_query(message)
        if op == "ping":
            return {"ok": True, "pong": True, "fleet": len(self.workers)}
        if op == "documents":
            return {
                "ok": True,
                "documents": self.documents,
                "default": self.default_document,
            }
        if op == "fleet":
            return {
                "ok": True,
                "workers": {
                    name: {
                        "pid": worker.pid,
                        "port": worker.port,
                        "alive": worker.alive,
                        "restarts": self.worker_restarts[name],
                        "breaker": self.breakers[name].as_dict(),
                    }
                    for name, worker in self.workers.items()
                },
                "ring": {
                    doc_hash: self.ring.node_for(doc_hash)
                    for doc_hash in self.documents
                },
                "documents": sorted(self.documents),
                "default": self.default_document,
                **self._counters(),
            }
        if op == "metrics":
            per_worker: dict[str, dict | None] = {}
            for name, worker in self.workers.items():
                if not worker.alive:
                    per_worker[name] = None
                    continue
                try:
                    reply = await worker.call(
                        {"op": "metrics"}, timeout=self.request_timeout
                    )
                    per_worker[name] = reply.get("metrics")
                except (WorkerUnavailable, asyncio.TimeoutError):
                    per_worker[name] = None
            return {
                "ok": True,
                "workers": per_worker,
                "fleet": self._fleet_health(),
            }
        if op == "prometheus":
            texts = []
            for worker in self.workers.values():
                if not worker.alive:
                    continue
                try:
                    reply = await worker.call(
                        {"op": "prometheus"}, timeout=self.request_timeout
                    )
                except (WorkerUnavailable, asyncio.TimeoutError):
                    continue
                if reply.get("ok"):
                    texts.append(reply["prometheus"])
            texts.append(self._acceptor_exposition())
            return {"ok": True, "prometheus": merge_expositions(texts)}
        if op in ("open", "close"):
            return error_reply(
                "bad-request",
                "sessions are worker-local; connect to a worker directly "
                "for session-scoped serving",
            )
        return error_reply("bad-request", f"unknown op {op!r}")


async def start_fleet(
    spec: FleetSpec,
    workers: int = 3,
    host: str = DEFAULT_HOST,
    port: int = 0,
    **kwargs,
) -> FleetAcceptor:
    """Build and start a :class:`FleetAcceptor` in one call."""
    acceptor = FleetAcceptor(spec, workers=workers, **kwargs)
    await acceptor.start(host, port)
    return acceptor


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    """Worker entry point (``python -m repro.serve.fleet --worker NAME``).

    The spec arrives as one JSON line on stdin — never on argv, so a
    process listing leaks no workload details and the handshake stays
    order-deterministic.
    """
    import argparse

    parser = argparse.ArgumentParser(prog="repro.serve.fleet")
    parser.add_argument("--worker", required=True, metavar="NAME")
    args = parser.parse_args(argv)
    # Scope fault-injection rules to this worker's name, so one shared
    # REPRO_FAULTS schedule can target individual fleet members.
    from ..faults import set_scope

    set_scope(args.worker)
    spec_line = sys.stdin.readline()
    if not spec_line.strip():
        print(
            json.dumps({"ok": False, "message": "no spec on stdin"}),
            flush=True,
        )
        return 1
    try:
        spec = FleetSpec.from_json(spec_line)
    except (TypeError, ValueError) as error:
        print(
            json.dumps({"ok": False, "message": f"bad spec: {error}"}),
            flush=True,
        )
        return 1
    return asyncio.run(_serve_worker(args.worker, spec))


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
