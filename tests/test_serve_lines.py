"""The shared NDJSON line server, driven with stub handlers.

``QueryFrontend`` and ``FleetAcceptor`` are both
:class:`repro.serve.lines.LineServer` subclasses differing only in
``reply_for`` and ``gate``; everything else about a connection — the
byte cap, blank/malformed lines, id echo, one task per line, the
``internal`` catch-all, flushing on cancel — is tested here once, under
both gate policies.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve.fleet import FleetAcceptor, FleetSpec
from repro.serve.frontend import QueryFrontend
from repro.serve.lines import LineServer, error_reply, serve_until_drained
from repro.serve.service import QueryService
from repro.workloads.hospital import HospitalConfig, generate_hospital_document

MAX_PENDING = 2


class Stub(LineServer):
    """Echoes ops; ``policy`` picks the frontend's or the acceptor's gate."""

    def __init__(self, policy: str) -> None:
        super().__init__(1024)
        self.policy = policy
        self.refusals: list[tuple[str, dict | None]] = []

    async def reply_for(self, message: dict) -> dict:
        if message.get("op") == "boom":
            raise RuntimeError("kaput")
        await asyncio.sleep(message.get("sleep", 0))
        return {"ok": True, "echo": message.get("op")}

    def gate(self, message, pending):
        if self.policy == "acceptor":
            return ("draining", "stub draining") if self.draining else None
        if message.get("op") != "query":
            return None
        if self.draining:
            return "draining", "stub draining"
        if pending >= MAX_PENDING:
            return "overloaded", f"{pending} pending"
        return None

    def refused(self, kind, message):
        self.refusals.append((kind, message))


class Peer:
    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    def send(self, *lines) -> None:
        for line in lines:
            data = line if isinstance(line, bytes) else json.dumps(line).encode()
            self.writer.write(data + b"\n")

    async def recv(self) -> dict | None:
        line = await asyncio.wait_for(self.reader.readline(), 5)
        return json.loads(line) if line else None


def drive(policy, scenario):
    async def main():
        server = Stub(policy)
        host, port = await server.start()
        peer = Peer(*await asyncio.open_connection(host, port))
        try:
            return await scenario(server, peer)
        finally:
            peer.writer.close()
            await server.close()

    return asyncio.run(main())


POLICIES = pytest.mark.parametrize("policy", ["frontend", "acceptor"])


@POLICIES
def test_oversize_line_is_refused_counted_and_dropped(policy):
    async def scenario(server, peer):
        peer.send(b'{"op": "ping", "pad": "' + b"x" * 4096 + b'"}')
        return await peer.recv(), await peer.recv(), server.refusals

    reply, eof, refusals = drive(policy, scenario)
    assert reply == error_reply(
        "invalid-request", "request line exceeds 1024 bytes"
    )
    assert eof is None  # framing is unrecoverable: connection dropped
    assert refusals == [("invalid-request", None)]


@POLICIES
def test_blank_malformed_and_non_object_lines(policy):
    async def scenario(_server, peer):
        peer.send(b"", b"   ", b"{nope", b"[1, 2]", {"op": "ping"})
        return [await peer.recv() for _ in range(3)]

    malformed, non_object, served = drive(policy, scenario)
    assert malformed["error"] == non_object["error"] == "bad-request"
    assert malformed["message"].startswith("invalid request line: ")
    assert non_object["message"] == (
        "invalid request line: request must be a JSON object"
    )
    assert served == {"ok": True, "echo": "ping"}  # connection survived


@POLICIES
def test_id_is_echoed_exactly_when_present(policy):
    async def scenario(server, peer):
        peer.send({"op": "ping"}, {"op": "ping", "id": None})
        served = [await peer.recv(), await peer.recv()]
        server.draining = True
        peer.send(
            {"op": "query"}, {"op": "query", "id": None}, {"op": "query", "id": 7}
        )
        return served, [await peer.recv() for _ in range(3)]

    served, refused = drive(policy, scenario)
    assert ["id" in reply for reply in served] == [False, True]
    assert served[1]["id"] is None
    assert [reply["error"] for reply in refused] == ["draining"] * 3
    assert "id" not in refused[0]
    assert refused[1]["id"] is None and refused[2]["id"] == 7


def test_draining_frontend_policy_gates_only_queries():
    async def scenario(server, peer):
        server.draining = True
        peer.send({"op": "query", "tenant": "t"}, {"op": "ping"})
        return await peer.recv(), await peer.recv(), server.refusals

    refused, served, refusals = drive("frontend", scenario)
    assert refused["error"] == "draining" and served["ok"] is True
    assert refusals == [("draining", {"op": "query", "tenant": "t"})]


def test_draining_acceptor_policy_gates_every_op():
    async def scenario(server, peer):
        server.draining = True
        peer.send({"op": "query"}, {"op": "ping"})
        return await peer.recv(), await peer.recv()

    replies = drive("acceptor", scenario)
    assert [reply["error"] for reply in replies] == ["draining", "draining"]


def test_pending_counts_this_connections_inflight_queries_only():
    async def scenario(_server, peer):
        slow = {"op": "query", "sleep": 0.2}
        peer.send(
            {**slow, "id": "a"},
            {"op": "ping", "sleep": 0.2, "id": "p"},  # not a query: uncounted
            {**slow, "id": "b"},
            {**slow, "id": "c"},  # third query past MAX_PENDING = 2
        )
        replies = {}
        for _ in range(4):
            reply = await peer.recv()
            replies[reply["id"]] = reply
        peer.send({"op": "query", "id": "d"})  # the cap has drained
        return replies, await peer.recv()

    replies, later = drive("frontend", scenario)
    assert replies["c"]["error"] == "overloaded"
    assert replies["c"]["message"] == "2 pending"
    assert all(replies[tag]["ok"] for tag in "apb")
    assert later == {"ok": True, "echo": "query", "id": "d"}


@POLICIES
def test_handler_exception_becomes_an_internal_reply(policy):
    async def scenario(_server, peer):
        peer.send({"op": "boom", "id": 1}, {"op": "ping"})
        return await peer.recv(), await peer.recv()

    failed, served = drive(policy, scenario)
    assert failed == error_reply("internal", "RuntimeError: kaput", 1)
    assert served["ok"] is True


@POLICIES
def test_cancelled_connection_still_flushes_inflight_replies(policy):
    async def scenario(server, peer):
        peer.send({"op": "query", "sleep": 0.2, "id": "slow"})
        await peer.writer.drain()
        await asyncio.sleep(0.05)  # the line is read and dispatched
        closing = asyncio.create_task(server.close())
        reply, eof = await peer.recv(), await peer.recv()
        await closing
        return reply, eof

    reply, eof = drive(policy, scenario)
    assert reply == {"ok": True, "echo": "query", "id": "slow"}
    assert eof is None


def test_flush_inflight_awaits_admitted_requests():
    async def scenario(server, peer):
        peer.send({"op": "query", "sleep": 0.1, "id": 1})
        await peer.writer.drain()
        await asyncio.sleep(0.03)
        await server.flush_inflight()
        # The reply is already on the wire: no further waiting needed.
        return await asyncio.wait_for(peer.reader.readline(), 0.05)

    assert json.loads(drive("frontend", scenario))["id"] == 1


# ----------------------------------------------------------------------
# Fuzzed framing: whatever bytes arrive, in whatever pieces
# ----------------------------------------------------------------------
CAP = 1024  # the stub's max_line_bytes

#: What a fuzzed line may be refused with: every one a structured kind.
STRUCTURED = {"bad-request", "invalid-request", "internal", "overloaded"}


def _padded(size: int, index: int) -> bytes:
    """A ``ping`` object line of exactly ``size`` bytes, id ``index``."""
    head = json.dumps({"op": "ping", "id": index, "pad": ""}).encode()
    return head[:-2] + b"x" * (size - len(head)) + b'"}'


def _json_non_objects():
    scalars = st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    values = st.recursive(
        scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=6
    )
    return values.map(lambda value: json.dumps(value).encode())


_NOISE = st.binary(max_size=48).map(lambda raw: raw.replace(b"\n", b""))
_LINES = st.lists(
    st.one_of(
        _NOISE.map(lambda raw: ("noise", raw)),
        _json_non_objects().map(lambda raw: ("noise", raw)),
        st.just(("ping", None)),
        st.integers(CAP - 8, CAP).map(lambda size: ("ping", size)),
    ),
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(
    lines=_LINES,
    oversize=st.one_of(st.none(), st.integers(CAP + 1, CAP + 64)),
    cuts=st.lists(st.integers(0, 4 * CAP), max_size=6),
)
# The client's newline arrives after the refusal: a server that closes
# with it unread resets the connection instead of ending it.
@example(lines=[], oversize=CAP + 1, cuts=[1, CAP + 1])
def test_fuzzed_lines_get_one_structured_reply_each_and_never_wedge(
    lines, oversize, cuts
):
    """Random bytes, non-object JSON, objects up to exactly the cap and
    one past it, split across writes at random points: every non-blank
    line gets exactly one reply, each served or refused with a
    structured kind; a line past the cap is refused and ends the
    connection; otherwise the connection still answers afterwards."""
    wire: list[bytes] = []
    served_ids = set()
    for index, (kind, raw) in enumerate(lines):
        if kind == "ping":
            raw = _padded(raw, index) if raw else json.dumps(
                {"op": "ping", "id": index}
            ).encode()
            served_ids.add(index)
        wire.append(raw)
    expected = sum(1 for raw in wire if raw.strip()) + 1  # + the last line
    if oversize is not None:
        wire.append(_padded(oversize, -1))
    else:
        wire.append(b'{"op": "ping", "id": "end"}')
        served_ids.add("end")
    stream = b"".join(raw + b"\n" for raw in wire)

    async def scenario(_server, peer):
        start = 0
        for cut in sorted(cuts) + [len(stream)]:
            peer.writer.write(stream[start:cut])
            await peer.writer.drain()
            await asyncio.sleep(0)
            start = max(start, cut)
        replies = [await peer.recv() for _ in range(expected)]
        tail = await peer.recv() if oversize is not None else None
        return replies, tail

    replies, tail = drive("frontend", scenario)
    assert all(reply is not None for reply in replies), "connection wedged"
    for reply in replies:
        assert reply["ok"] is True or (
            reply["error"] in STRUCTURED and isinstance(reply["message"], str)
        ), reply
    assert served_ids <= {r.get("id") for r in replies if r["ok"] is True}
    refusals = [r for r in replies if r.get("error") == "invalid-request"]
    if oversize is None:
        assert refusals == []  # lines up to the cap are framed normally
    else:
        # Past the cap: one invalid-request, then the connection closes.
        assert refusals == [
            error_reply("invalid-request", f"request line exceeds {CAP} bytes")
        ]
        assert tail is None


# ----------------------------------------------------------------------
# The real owners' gate policies
# ----------------------------------------------------------------------
def test_frontend_gate_policy():
    doc = generate_hospital_document(HospitalConfig(num_patients=2, seed=1))
    with QueryService(doc) as service:
        service.register_tenant("t", None)  # only registered names get a row
        frontend = QueryFrontend(service, max_pending=3)
        query = {"op": "query", "tenant": "t"}
        assert frontend.gate(query, 2) is None
        assert frontend.gate(query, 3)[0] == "overloaded"
        assert frontend.gate({"op": "metrics"}, 99) is None
        frontend.draining = True
        assert frontend.gate(query, 0)[0] == "draining"
        assert frontend.gate({"op": "metrics"}, 0) is None
        frontend.refused("overloaded", query)
        frontend.refused("invalid-request", None)
        snap = service.metrics_snapshot()
        assert snap.rejected_kinds == {"overloaded": 1, "invalid-request": 1}
        assert snap.tenants["t"].rejections == 1


def test_acceptor_gate_policy():
    acceptor = FleetAcceptor(FleetSpec(), workers=1)  # not started: no processes
    assert acceptor.gate({"op": "query"}, 10_000) is None
    acceptor.draining = True
    for op in ("query", "ping", "metrics"):
        assert acceptor.gate({"op": op}, 0)[0] == "draining"


# ----------------------------------------------------------------------
# serve_until_drained: the one SIGTERM → drain → close sequence
# ----------------------------------------------------------------------
def test_sigterm_drains_then_closes():
    async def main():
        events: list[str] = []

        async def drain():
            events.append("drain")

        async def close():
            events.append("close")

        asyncio.get_running_loop().call_later(
            0.05, os.kill, os.getpid(), signal.SIGTERM
        )
        await asyncio.wait_for(serve_until_drained(drain, close), 5)
        return events

    assert asyncio.run(main()) == ["drain", "close"]


def test_stop_event_closes_without_draining():
    async def main():
        events: list[str] = []
        stop = asyncio.Event()

        async def drain():
            events.append("drain")

        async def close():
            events.append("close")

        asyncio.get_running_loop().call_later(0.05, stop.set)
        await asyncio.wait_for(serve_until_drained(drain, close, stop), 5)
        return events

    assert asyncio.run(main()) == ["close"]
