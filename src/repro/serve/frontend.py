"""Async I/O front-end: a newline-delimited-JSON socket server.

The network face of the service: clients connect over TCP and exchange
one JSON object per line.  The connection loop is
:class:`repro.serve.lines.LineServer` (framing, byte cap, one task per
line, id echo, the ``internal`` catch-all); this module supplies its two
hooks — :meth:`QueryFrontend.reply_for`, the ops below, and
:meth:`QueryFrontend.gate`, which refuses ``query`` lines while draining
or past the per-connection pending cap.  Every ``query`` op goes through
the :class:`repro.serve.admission.AdmissionController`, so requests
arriving concurrently — from many connections, or pipelined on one —
coalesce into waves and share one
:class:`repro.serve.batch.BatchEvaluator` document pass.  Evaluation
runs in a worker thread; the event loop keeps reading sockets while a
wave evaluates.

Protocol (one request object per line, one reply object per line)::

    {"op": "open",    "tenant": T}                  -> {"ok": true, "session": S, ...}
    {"op": "query",   "tenant": T, "query": Q,
     "session": S?, "algorithm": A?, "limit": N?,
     "document": H?, "deadline_ms": D?}             -> {"ok": true, "count": n, "ids": [...],
                                                        "document": H,
                                                        "wave": {"size": k, "lanes": l, ...}}
    {"op": "close",   "session": S}                 -> {"ok": true, "requests": n, ...}
    {"op": "metrics"}                               -> {"ok": true, "metrics": {...}}
    {"op": "prometheus"}                            -> {"ok": true, "prometheus": "..."}
    {"op": "documents"}                             -> {"ok": true, "documents": {...}, "default": H}
    {"op": "trace",   "limit": N?}                  -> {"ok": true, "traces": [...], ...}
    {"op": "ping"}                                  -> {"ok": true, "pong": true}

``document`` selects which cataloged document a query runs over, by
content hash (omitted = the service's default document); the reply
echoes the hash the answer was computed over.  ``documents`` lists every
serveable content hash (the fleet acceptor uses it to build its routing
ring).

Observability: construct the front-end with a
:class:`repro.obs.trace.Tracer` and every query gets a root ``request``
span whose children cover admission hold, plan/compile, document
resolution, pool queue-wait and evaluation; retained traces are served
by the ``trace`` op (newest first).  ``prometheus`` renders the metrics
snapshot in the Prometheus text exposition
(:func:`repro.obs.export.render_prometheus`).  An
:class:`repro.obs.log.AccessLogger` adds trace-correlated NDJSON
access/slow-query logging.

The ``metrics`` payload is :meth:`MetricsSnapshot.as_dict`, which since
the two-tier plan cache includes the plan-tier counters
(``plan_l1_hits`` / ``plan_l2_hits`` / ``plan_misses``) and the
per-stage compile timings (``compile``) — a restarted server fronting a
populated ``--plan-dir`` shows ``rewrite`` counts of zero for
previously-seen queries.

Any request may carry an ``"id"`` field, echoed verbatim in its reply;
pipelined requests on one connection are answered in *completion* order,
so clients that pipeline must correlate by id
(:meth:`FrontendClient.query_many` does).  Failures never close the
connection: they come back as ``{"ok": false, "error": KIND, "message":
...}`` where ``KIND`` is ``"authorization"`` / ``"document"`` /
``"service"`` / ``"invalid-query"`` / ``"deadline"`` /
``"query-too-complex"`` (per-tenant authorisation, document-catalog,
parse, end-to-end deadline and compile-budget failures, classified
exactly as the service metrics count them), ``"bad-request"`` for
malformed protocol input, ``"invalid-request"`` for a request line past
the ``max_line_bytes`` cap (the DoS guard; the connection drops since
framing past the buffer is unrecoverable), ``"overloaded"`` for
backpressure (see below), ``"draining"`` while a graceful shutdown
refuses new admissions (see :meth:`QueryFrontend.drain`), or
``"internal"`` for an unexpected server-side error.

Deadlines: a ``query`` line may carry ``deadline_ms`` (a positive
number).  The deadline is armed at *protocol arrival* — coalescing hold,
pool queue-wait and evaluation all spend from the same budget — and an
expired request is rejected with the structured ``deadline`` kind; no
partial answer is ever sent (see ``docs/robustness.md``).

Backpressure: each connection may have at most
:attr:`QueryFrontend.max_pending` queries in flight (sent but not yet
answered).  A ``query`` line arriving past that cap is answered
immediately with a structured ``overloaded`` rejection (id echoed, the
connection stays up, other ops pass freely) and counted under the
``overloaded`` rejection kind in the service metrics — a client should
drain replies before pipelining more.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

from ..errors import ReproError
from ..faults import fire as _fault_fire
from ..guard import Deadline
from ..obs.export import render_prometheus
from ..obs.log import AccessLogger
from ..obs.trace import Tracer
from .admission import AdmissionConfig, AdmissionController
from .lines import DEFAULT_HOST, LINE_LIMIT, LineServer, error_reply
from .service import QueryRequest, QueryService, rejection_kind

DEFAULT_PORT = 7407

#: Default cap on ids returned per query reply (full count is always sent).
DEFAULT_ID_LIMIT = 100

#: Default cap on in-flight (unanswered) queries per connection; excess
#: query lines get a structured ``overloaded`` rejection.
DEFAULT_MAX_PENDING = 32


class QueryFrontend(LineServer):
    """The NDJSON socket server wrapping one :class:`QueryService`."""

    def __init__(
        self,
        service: QueryService,
        admission: AdmissionConfig | None = None,
        max_pending: int = DEFAULT_MAX_PENDING,
        tracer: Tracer | None = None,
        access_log: AccessLogger | None = None,
        worker: str | None = None,
        max_line_bytes: int = LINE_LIMIT,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if max_line_bytes < 1024:
            raise ValueError(
                f"max_line_bytes must be >= 1024, got {max_line_bytes}"
            )
        super().__init__(max_line_bytes)
        self.service = service
        self.admission = AdmissionController(service, admission)
        self.max_pending = max_pending
        self.tracer = tracer
        self.access_log = access_log
        # ``worker`` labels this process's Prometheus series so a fleet's
        # merged exposition keeps per-worker resolution.
        self.worker = worker

    async def drain(self) -> None:
        """Graceful shutdown: refuse new queries, finish in-flight ones.

        From the first await here every arriving ``query`` line is
        answered with a structured ``draining`` rejection (counted in the
        metrics; non-query ops still pass, so a supervisor can scrape
        final metrics).  Queries already admitted run to completion and
        their replies are flushed, then the access log is closed so every
        record reaches disk.  Call :meth:`close` afterwards to drop the
        listener and connections.
        """
        self.draining = True
        await self.flush_inflight()
        if self.access_log is not None:
            self.access_log.log.close()

    # ------------------------------------------------------------------
    def gate(self, message: dict, pending: int) -> tuple[str, str] | None:
        """Only ``query`` ops are gated: draining, then backpressure."""
        if message.get("op") != "query":
            return None
        if self.draining:
            # A structured kind, so a load balancer retries elsewhere.
            return "draining", "server is draining; retry elsewhere"
        if pending >= self.max_pending:
            # Backpressure: reject rather than queue without bound.
            return "overloaded", (
                f"connection has {pending} pending query(ies) "
                f"(cap {self.max_pending}); drain replies before "
                "pipelining more"
            )
        return None

    def refused(self, kind: str, message: dict | None) -> None:
        tenant = None if message is None else message.get("tenant")
        self.service.reject(kind, None if tenant is None else str(tenant))

    async def reply_for(self, message: dict) -> dict:
        fault = _fault_fire("worker.message")
        if fault is not None and fault.action == "crash":
            # Deterministic chaos: die exactly as an OOM-killed or
            # segfaulted worker would — no reply, no cleanup; the
            # acceptor's unacknowledged-retry path and health loop
            # must absorb it.
            os._exit(13)
        op = message.get("op")
        try:
            if op == "open":
                session = self.service.open_session(str(message["tenant"]))
                return {
                    "ok": True,
                    "session": session.session_id,
                    "tenant": session.tenant,
                }
            if op == "query":
                return await self._serve_query(message)
            if op == "close":
                session = self.service.sessions.close(str(message["session"]))
                return {
                    "ok": True,
                    "session": session.session_id,
                    "tenant": session.tenant,
                    "requests": session.requests,
                }
            if op == "metrics":
                snapshot = self.service.metrics_snapshot()
                return {"ok": True, "metrics": snapshot.as_dict()}
            if op == "prometheus":
                snapshot = self.service.metrics_snapshot()
                return {
                    "ok": True,
                    "prometheus": render_prometheus(
                        snapshot, worker=self.worker
                    ),
                }
            if op == "documents":
                return {
                    "ok": True,
                    "documents": self.service.documents(),
                    "default": self.service.default_document_hash,
                }
            if op == "trace":
                if self.tracer is None:
                    return error_reply(
                        "bad-request", "tracing is not enabled on this server"
                    )
                limit = message.get("limit")
                return {
                    "ok": True,
                    "traces": self.tracer.store.recent(
                        None if limit is None else int(limit)
                    ),
                    "kept": self.tracer.store.kept,
                    "dropped": self.tracer.store.dropped,
                    "started": self.tracer.started,
                }
            if op == "ping":
                return {"ok": True, "pong": True}
            return error_reply("bad-request", f"unknown op {op!r}")
        except KeyError as error:
            return error_reply(
                "bad-request", f"missing field {error.args[0]!r}"
            )
        except ReproError as error:
            return error_reply(rejection_kind(error), str(error))

    async def _serve_query(self, message: dict) -> dict:
        try:
            limit = int(message.get("limit", DEFAULT_ID_LIMIT))
        except (TypeError, ValueError):
            return error_reply(
                "bad-request",
                f"limit must be an integer, got {message['limit']!r}",
            )
        document = message.get("document")
        deadline_ms = message.get("deadline_ms")
        if deadline_ms is not None:
            try:
                deadline_ms = float(deadline_ms)
            except (TypeError, ValueError):
                deadline_ms = -1.0
            if deadline_ms <= 0 or deadline_ms != deadline_ms:
                return error_reply(
                    "bad-request",
                    "deadline_ms must be a positive number, got "
                    f"{message['deadline_ms']!r}",
                )
        request = QueryRequest(
            tenant=str(message["tenant"]),
            query=str(message["query"]),
            algorithm=message.get("algorithm"),
            session_id=message.get("session"),
            document=None if document is None else str(document),
            deadline_ms=deadline_ms,
            # Armed HERE, at protocol arrival: admission hold and pool
            # queue time spend from the same budget the client set.
            deadline=(
                None if deadline_ms is None else Deadline.after_ms(deadline_ms)
            ),
        )
        if self.tracer is None and self.access_log is None:
            admitted = await self.admission.submit(request)
            return self._query_reply(request, admitted, limit)
        started = time.perf_counter()
        root = None
        try:
            if self.tracer is not None:
                with self.tracer.trace(
                    "request", tenant=request.tenant, query=str(request.query)
                ) as root:
                    admitted = await self.admission.submit(request)
                    root.set(
                        answers=len(admitted.answer.result.ids),
                        wave=admitted.wave_size,
                    )
            else:
                admitted = await self.admission.submit(request)
        except ReproError as error:
            self._log_query(
                request,
                time.perf_counter() - started,
                root,
                error=rejection_kind(error),
            )
            raise
        self._log_query(
            request,
            time.perf_counter() - started,
            root,
            answers=len(admitted.answer.result.ids),
            wave=admitted.wave_size,
        )
        return self._query_reply(request, admitted, limit)

    def _log_query(
        self, request: QueryRequest, duration: float, root, **fields
    ) -> None:
        """One access/slow-log entry for a finished (or rejected) query.

        The trace record is exported directly from the finished root
        span, so log entries carry stage annotations even for traces the
        sampler chose not to retain in the ring buffer.
        """
        if self.access_log is None:
            return
        trace = None
        if root is not None:
            trace = Tracer.export_trace(root.trace, root, "inline")
        self.access_log.record(
            tenant=request.tenant,
            query=str(request.query),
            duration=duration,
            error=fields.pop("error", None),
            trace=trace,
            **fields,
        )

    @staticmethod
    def _query_reply(request: QueryRequest, admitted, limit: int) -> dict:
        answer = admitted.answer
        ids = answer.ids()
        return {
            "ok": True,
            "tenant": request.tenant,
            "query": answer.query_text,
            "view": answer.view,
            "algorithm": answer.algorithm,
            "document": answer.document,
            "count": len(ids),
            "ids": ids if limit < 0 else ids[:limit],
            "wave": {
                "size": admitted.wave_size,
                "lanes": admitted.wave_stats.lanes,
                "visited": admitted.wave_stats.visited_elements,
                "saved": admitted.wave_stats.saved_visits,
            },
        }


async def start_frontend(
    service: QueryService,
    host: str = DEFAULT_HOST,
    port: int = 0,
    admission: AdmissionConfig | None = None,
    max_pending: int = DEFAULT_MAX_PENDING,
    tracer: Tracer | None = None,
    access_log: AccessLogger | None = None,
    worker: str | None = None,
    max_line_bytes: int = LINE_LIMIT,
) -> QueryFrontend:
    """Build and start a :class:`QueryFrontend` in one call."""
    frontend = QueryFrontend(
        service,
        admission,
        max_pending=max_pending,
        tracer=tracer,
        access_log=access_log,
        worker=worker,
        max_line_bytes=max_line_bytes,
    )
    await frontend.start(host, port)
    return frontend


class FrontendClient:
    """Line-protocol client helper (tests, the CLI and the smoke script).

    Sequential use: :meth:`request` (or the op wrappers) sends one line
    and awaits one reply.  Concurrent use: :meth:`query_many` pipelines a
    burst of queries on this one connection — the server evaluates them
    as one or more admission waves — and returns replies in send order.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._next_id = 0

    @classmethod
    async def connect(
        cls, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT
    ) -> "FrontendClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=LINE_LIMIT
        )
        return cls(reader, writer)

    async def aclose(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "FrontendClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    async def request(self, message: dict) -> dict:
        """Send one request object; await and return its reply object."""
        self._writer.write((json.dumps(message) + "\n").encode())
        await self._writer.drain()
        return await self._read_reply()

    async def _read_reply(self) -> dict:
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("frontend closed the connection")
        return json.loads(line)

    async def query_many(self, messages: list[dict]) -> list[dict]:
        """Pipeline a burst of ``query`` payloads; replies in send order.

        Each payload is a dict of ``query``-op fields (without ``op``);
        ids are assigned here and stripped from the returned replies'
        correlation handling — the reply list lines up with ``messages``.
        """
        ids = []
        burst = []
        for message in messages:
            tag = f"c{self._next_id}"
            self._next_id += 1
            ids.append(tag)
            burst.append({"op": "query", "id": tag, **message})
        payload = "".join(json.dumps(m) + "\n" for m in burst).encode()
        self._writer.write(payload)
        await self._writer.drain()
        by_id: dict[str, dict] = {}
        while len(by_id) < len(ids):
            reply = await self._read_reply()
            by_id[reply.get("id")] = reply
        return [by_id[tag] for tag in ids]

    # ------------------------------------------------------------------
    async def open_session(self, tenant: str) -> dict:
        return await self.request({"op": "open", "tenant": tenant})

    async def query(
        self,
        tenant: str,
        query: str,
        session: str | None = None,
        algorithm: str | None = None,
        limit: int | None = None,
        document: str | None = None,
        deadline_ms: float | None = None,
    ) -> dict:
        message: dict = {"op": "query", "tenant": tenant, "query": query}
        if session is not None:
            message["session"] = session
        if algorithm is not None:
            message["algorithm"] = algorithm
        if limit is not None:
            message["limit"] = limit
        if document is not None:
            message["document"] = document
        if deadline_ms is not None:
            message["deadline_ms"] = deadline_ms
        return await self.request(message)

    async def metrics(self) -> dict:
        return await self.request({"op": "metrics"})

    async def prometheus(self) -> dict:
        return await self.request({"op": "prometheus"})

    async def documents(self) -> dict:
        return await self.request({"op": "documents"})

    async def trace(self, limit: int | None = None) -> dict:
        message: dict = {"op": "trace"}
        if limit is not None:
            message["limit"] = limit
        return await self.request(message)

    async def ping(self) -> dict:
        return await self.request({"op": "ping"})
