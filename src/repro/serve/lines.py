"""The NDJSON line server: the one connection loop under ``serve/``.

Every socket the stack listens on — a single
:class:`repro.serve.frontend.QueryFrontend`, a fleet worker (which *is*
a frontend) and the :class:`repro.serve.fleet.FleetAcceptor` — speaks
one request object per line, one reply object per line.  This module
owns everything about that exchange that is not an op:

* framing: ``readline`` under a byte cap; a line past the cap is
  answered ``invalid-request`` and the connection dropped (framing past
  the buffer is unrecoverable); blank lines are skipped; malformed JSON
  and non-object lines are answered ``bad-request``;
* the gate: ``gate(message, pending)`` may refuse a line before any work
  is spent on it, returning ``(kind, text)`` — ``pending`` is the number
  of ``query`` ops this connection has in flight;
* dispatch: one task per admitted line, so pipelined requests overlap
  and are answered in completion order; ``reply_for(message)`` builds
  the reply and any exception it leaks becomes an ``internal`` reply —
  a reply goes out for every line, no matter what;
* ``"id"`` is echoed exactly when the request carried one, on served
  replies and refusals alike;
* teardown: a cancelled connection still flushes its in-flight replies.

Owners subclass :class:`LineServer` and differ only in ``reply_for`` and
``gate`` (and may override ``refused`` to count what the server refuses
on their behalf).

:func:`serve_until_drained` is the process-level twin: the one
SIGTERM → drain → close sequence every serving process runs.
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Awaitable, Callable

DEFAULT_HOST = "127.0.0.1"

#: Default per-line stream buffer cap (server and client) — the DoS
#: guard against unbounded request lines.
LINE_LIMIT = 1 << 20

_NO_ID = object()


def error_reply(kind: str, message: str, id=_NO_ID) -> dict:
    """The one shape of every failure on the wire."""
    reply = {"ok": False, "error": kind, "message": message}
    if id is not _NO_ID:
        reply["id"] = id
    return reply


class LineServer:
    """Accept connections; frame, gate, dispatch and answer their lines."""

    def __init__(self, max_line_bytes: int) -> None:
        self.max_line_bytes = max_line_bytes
        self.host: str | None = None
        self.port: int | None = None
        #: Set by the owner's ``drain``; its gate reads it.
        self.draining = False
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._inflight: set[asyncio.Task] = set()

    async def reply_for(self, message: dict) -> dict:
        """The reply to one admitted request object (the owner's ops)."""
        raise NotImplementedError

    def gate(self, message: dict, pending: int) -> tuple[str, str] | None:
        """``(kind, text)`` to refuse ``message`` before dispatch, else
        ``None``; ``pending`` counts this connection's in-flight queries."""
        return None

    def refused(self, kind: str, message: dict | None) -> None:
        """Account one refusal (``message`` is ``None`` for an oversize
        line, which never parsed)."""

    async def start(
        self, host: str = DEFAULT_HOST, port: int = 0
    ) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``.

        ``port=0`` binds an ephemeral port (use the returned one).
        """
        self._server = await asyncio.start_server(
            self._handle_client, host, port, limit=self.max_line_bytes
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def stop_listening(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def flush_inflight(self) -> None:
        """Await every request admitted so far (their replies are sent)."""
        if self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    async def close(self) -> None:
        await self.stop_listening()
        # Stop established connections too: cancel each handler out of
        # its blocking read — its ``finally`` still flushes in-flight
        # replies and closes the transport — then wait for all of them.
        if self._connections:
            for task in list(self._connections):
                task.cancel()
            await asyncio.gather(*self._connections, return_exceptions=True)

    async def __aenter__(self):
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = asyncio.current_task()
        if conn is not None:
            self._connections.add(conn)
            conn.add_done_callback(self._connections.discard)
        lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        queries: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._refuse(
                        writer,
                        lock,
                        "invalid-request",
                        f"request line exceeds {self.max_line_bytes} bytes",
                        None,
                    )
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    message = json.loads(line)
                    if not isinstance(message, dict):
                        raise ValueError("request must be a JSON object")
                except ValueError as error:
                    await self._send(
                        writer,
                        lock,
                        error_reply(
                            "bad-request", f"invalid request line: {error}"
                        ),
                    )
                    continue
                refusal = self.gate(message, len(queries))
                if refusal is not None:
                    await self._refuse(writer, lock, *refusal, message)
                    continue
                task = asyncio.create_task(self._serve(message, writer, lock))
                tracked = [tasks, self._inflight]
                if message.get("op") == "query":
                    tracked.append(queries)
                for group in tracked:
                    group.add(task)
                    task.add_done_callback(group.discard)
        except asyncio.CancelledError:
            pass  # close() cancelled us: exit normally so the stream
            # machinery never sees a cancelled handler task (3.11 logs it)
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # already tearing down; the transport is closed

    async def _serve(
        self, message: dict, writer: asyncio.StreamWriter, lock: asyncio.Lock
    ) -> None:
        try:
            reply = await self.reply_for(message)
        except Exception as error:
            # A swallowed exception would hang the client.
            reply = error_reply("internal", f"{type(error).__name__}: {error}")
        if "id" in message:
            reply["id"] = message["id"]
        await self._send(writer, lock, reply)

    async def _refuse(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        kind: str,
        text: str,
        message: dict | None,
    ) -> None:
        self.refused(kind, message)
        id = _NO_ID if message is None else message.get("id", _NO_ID)
        await self._send(writer, lock, error_reply(kind, text, id))

    @staticmethod
    async def _send(
        writer: asyncio.StreamWriter, lock: asyncio.Lock, reply: dict
    ) -> None:
        data = (json.dumps(reply) + "\n").encode()
        async with lock:
            writer.write(data)
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; nothing left to tell it


async def serve_until_drained(
    drain: Callable[[], Awaitable[None]],
    close: Callable[[], Awaitable[None]],
    stop: asyncio.Event | None = None,
) -> None:
    """Serve until SIGTERM, ``await drain()``, then always ``await close()``.

    The listener is already accepting when this is called; the caller's
    ``drain`` refuses new work and flushes what was admitted, ``close``
    releases sockets and workers.  ``stop`` lets an out-of-band shutdown
    (a fleet worker's stdin EOF) end the wait without a drain.
    """
    stop = stop if stop is not None else asyncio.Event()
    loop = asyncio.get_running_loop()
    draining: set[asyncio.Task] = set()  # strong ref: the loop's is weak

    async def drain_and_stop() -> None:
        await drain()
        stop.set()

    try:
        loop.add_signal_handler(
            signal.SIGTERM,
            lambda: draining.add(loop.create_task(drain_and_stop())),
        )
    except NotImplementedError:  # pragma: no cover - non-Unix loops
        pass
    try:
        await stop.wait()
    finally:
        await close()
