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
  keeps only the I/O of routing and health — every decision (breakers,
  backoff, restarts, which worker to try) is
  :class:`repro.serve.supervisor.Supervisor`'s.  Its gate differs in
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
import sys
import threading
import time
from dataclasses import dataclass, field, asdict
from typing import Callable

from ..errors import ReproError, ServiceError
from ..faults import fire as _fault_fire
from ..obs.export import merge_expositions
from .admission import AdmissionConfig
from .frontend import QueryFrontend
from .lines import (
    DEFAULT_HOST,
    LINE_LIMIT,
    LineServer,
    error_reply,
    serve_until_drained,
)
from .supervisor import Supervisor

#: Seconds to wait for a spawned worker's handshake line.
HANDSHAKE_TIMEOUT = 60.0

#: Worker-side per-connection pending cap.  The acceptor multiplexes
#: every client over ONE connection per worker, so the single-frontend
#: default (32) would spuriously shed load here.
FLEET_MAX_PENDING = 1024

DEFAULT_BUILDER = "repro.workloads.multidoc:build_multidoc_service"


class WorkerUnavailable(ServiceError):
    """The targeted worker is dead or died before replying."""


#: Seconds a health ping may take before it counts as a failure.
HEALTH_TIMEOUT = 5.0

#: Default per-request timeout (seconds) the acceptor waits on a worker
#: before counting a breaker failure and rerouting.  Queries are
#: read-only, so a timed-out (unacknowledged) request is safe to retry
#: on the next ring preference — exactly the path a dead connection
#: takes.
DEFAULT_REQUEST_TIMEOUT = 30.0


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
    """One worker subprocess + the acceptor's multiplexed connection.

    ``on_lost`` is called once, when a live connection is lost (the
    worker died, or :meth:`stop` ran).
    """

    def __init__(self, name: str, spec: FleetSpec, on_lost: Callable[[], None]) -> None:
        self.name = name
        self.spec = spec
        self._on_lost = on_lost
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
        was_alive, self.alive = self.alive, False
        if was_alive:
            self._on_lost()
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

    The socket side is :class:`repro.serve.lines.LineServer` and every
    decision is :attr:`supervisor`'s; this class holds the worker
    handles and performs what the supervisor decides: it forwards
    queries, pings workers and restarts them.
    """

    def __init__(
        self,
        spec: FleetSpec,
        workers: int = 3,
        health_interval: float = 0.5,
        request_timeout: float | None = DEFAULT_REQUEST_TIMEOUT,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        super().__init__(LINE_LIMIT)
        self.spec = spec
        names = [f"w{i}" for i in range(workers)]
        self.supervisor = Supervisor(names)
        self.workers: dict[str, WorkerHandle] = {
            name: self._handle(name) for name in names
        }
        self.health_interval = health_interval
        self.request_timeout = request_timeout
        self.documents: dict[str, str | None] = {}
        self.default_document: str | None = None
        self._health_task: asyncio.Task | None = None

    def _handle(self, name: str) -> WorkerHandle:
        def lost() -> None:
            self.supervisor.exited(name, time.monotonic())

        return WorkerHandle(name, self.spec, lost)

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
        an ``error: draining`` reply, never silently dropped — and tell
        the supervisor, which restarts nothing from now on; (2) close
        the listening socket — no new connections; (3) await every
        request task admitted before the mark; (4) :meth:`close`: stop
        the health loop, close the client connections and SIGTERM the
        workers, which run their own in-process drain before exiting.
        """
        self.draining = True
        self.supervisor.drain_began(time.monotonic())
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
        # A restart cancelled mid-handshake left its handle installed,
        # so its process is stopped here too.
        await asyncio.gather(
            *(worker.stop() for worker in self.workers.values())
        )

    # ------------------------------------------------------------------
    async def _health_loop(self) -> None:
        """Ping every worker, report the outcomes, restart what is due."""
        supervisor = self.supervisor
        while True:
            await asyncio.sleep(self.health_interval)
            for name, worker in list(self.workers.items()):
                if not worker.alive or worker.exited:
                    supervisor.exited(name, time.monotonic())
                    continue
                try:
                    await worker.call({"op": "ping"}, timeout=HEALTH_TIMEOUT)
                    ok = True
                except (WorkerUnavailable, asyncio.TimeoutError):
                    ok = False
                supervisor.pinged(name, time.monotonic(), ok)
            for name in supervisor.due_restarts(time.monotonic()):
                await self._restart(name)

    async def _restart(self, name: str) -> None:
        """Kill ``name``'s process and spawn a fresh one under its name,
        so it takes back exactly its old shard."""
        await self.workers[name].stop(kill=True, grace=2.0)
        # Installed before it starts: a close() that cancels the
        # handshake still finds, and stops, the spawned process.
        fresh = self.workers[name] = self._handle(name)
        try:
            await fresh.start()
        except (ReproError, OSError, asyncio.TimeoutError):
            return  # the booked attempt already pushed the next one out
        self.supervisor.restarted(name, time.monotonic())

    # ------------------------------------------------------------------
    async def _route_query(self, message: dict) -> dict:
        """Try the supervisor's workers in order until one replies.

        Retrying on :class:`WorkerUnavailable` or a timeout is safe
        because queries are read-only and either means *no reply was
        received* — an acknowledged request never re-enters this loop.
        """
        supervisor = self.supervisor
        doc_hash = str(message.get("document") or self.default_document)
        for name, probe in supervisor.route(doc_hash, time.monotonic()):
            try:
                reply = await self.workers[name].call(
                    message, timeout=self.request_timeout
                )
            except (WorkerUnavailable, asyncio.TimeoutError) as error:
                timeout = isinstance(error, asyncio.TimeoutError)
                supervisor.failed(name, time.monotonic(), timeout=timeout, probe=probe)
                continue
            if reply.get("error") == "draining":
                supervisor.refused_draining(name, time.monotonic())
                continue
            supervisor.replied(name, time.monotonic(), probe=probe)
            return reply
        return error_reply(
            "service", "no live worker for this document shard"
        )

    async def _ask_every_worker(self, op: str) -> dict[str, dict | None]:
        """Each worker's reply to ``op`` (``None`` where it gave none)."""
        replies: dict[str, dict | None] = {}
        for name, worker in self.workers.items():
            try:
                replies[name] = await worker.call(
                    {"op": op}, timeout=self.request_timeout
                )
            except (WorkerUnavailable, asyncio.TimeoutError):
                replies[name] = None
        return replies

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
            health = self.supervisor.as_dict(time.monotonic())
            for name, worker in self.workers.items():
                health["workers"][name].update(pid=worker.pid, port=worker.port)
            return {
                "ok": True,
                **health,
                "ring": {
                    doc_hash: self.supervisor.ring.node_for(doc_hash)
                    for doc_hash in self.documents
                },
                "documents": sorted(self.documents),
                "default": self.default_document,
            }
        if op == "metrics":
            replies = await self._ask_every_worker("metrics")
            return {
                "ok": True,
                "workers": {
                    name: reply and reply.get("metrics")
                    for name, reply in replies.items()
                },
                "fleet": self.supervisor.as_dict(time.monotonic()),
            }
        if op == "prometheus":
            replies = await self._ask_every_worker("prometheus")
            texts = [
                reply["prometheus"]
                for reply in replies.values()
                if reply is not None and reply.get("ok")
            ]
            texts.append(self.supervisor.exposition(time.monotonic()))
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
