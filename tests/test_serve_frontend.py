"""Front-end tests: the NDJSON socket protocol end to end."""

import asyncio
import json

import pytest

from repro.serve.admission import AdmissionConfig
from repro.serve.frontend import FrontendClient, QueryFrontend, start_frontend
from repro.serve.service import QueryService
from repro.workloads import VIEW_QUERIES


@pytest.fixture()
def service(hospital_doc, sigma0_spec):
    svc = QueryService(hospital_doc)
    svc.register_view("research", sigma0_spec)
    svc.register_tenant("institute", "research")
    svc.register_tenant("admin", None)
    return svc


def run_with_frontend(service, scenario, admission=None):
    """Boot a frontend on an ephemeral port, run ``scenario(client)``."""

    async def main():
        frontend = QueryFrontend(
            service, admission or AdmissionConfig(max_wave=8, max_wait=0.02)
        )
        host, port = await frontend.start("127.0.0.1", 0)
        client = await FrontendClient.connect(host, port)
        try:
            return await scenario(client, frontend)
        finally:
            await client.aclose()
            await frontend.close()

    return asyncio.run(main())


class TestProtocol:
    def test_ping(self, service):
        async def scenario(client, _frontend):
            return await client.ping()

        reply = run_with_frontend(service, scenario)
        assert reply == {"ok": True, "pong": True}

    def test_query_round_trip_matches_direct_submit(self, service):
        async def scenario(client, _frontend):
            return await client.query("institute", "patient", limit=-1)

        reply = run_with_frontend(service, scenario)
        expected = service.submit("institute", "patient")
        assert reply["ok"] is True
        assert reply["count"] == len(expected.ids())
        assert reply["ids"] == expected.ids()
        assert reply["view"] == "research"
        assert reply["wave"]["size"] == 1

    def test_id_limit_truncates_ids_not_count(self, service):
        async def scenario(client, _frontend):
            return await client.query("institute", "patient", limit=2)

        reply = run_with_frontend(service, scenario)
        assert len(reply["ids"]) == 2
        assert reply["count"] > 2

    def test_session_lifecycle_over_the_wire(self, service):
        async def scenario(client, _frontend):
            opened = await client.open_session("institute")
            queried = await client.query(
                "institute", "patient", session=opened["session"]
            )
            closed = await client.request({"op": "close", "session": opened["session"]})
            return opened, queried, closed

        opened, queried, closed = run_with_frontend(service, scenario)
        assert opened["ok"] and opened["tenant"] == "institute"
        assert queried["ok"]
        assert closed["ok"] and closed["requests"] == 1

    def test_metrics_op(self, service):
        async def scenario(client, _frontend):
            await client.query("institute", "patient")
            return await client.metrics()

        reply = run_with_frontend(service, scenario)
        assert reply["ok"] is True
        counters = reply["metrics"]
        assert counters["requests"] == 1
        assert counters["waves"] == 1
        # Plan-tier and compile-stage counters are exposed and add up to
        # the one plan this run resolved (cold boot: a miss, not an L2 hit).
        assert counters["plan_misses"] + counters["plan_l2_hits"] == 1
        assert "l2_hits" in counters["cache"]
        assert counters["compile"]["normalize"]["count"] >= 1

    def test_pipelined_burst_coalesces(self, service):
        queries = sorted(VIEW_QUERIES.values())[:4]

        async def scenario(client, _frontend):
            return await client.query_many(
                [{"tenant": "institute", "query": q} for q in queries]
            )

        replies = run_with_frontend(
            service,
            scenario,
            admission=AdmissionConfig(max_wave=4, max_wait=0.5),
        )
        assert len(replies) == len(queries)
        assert all(reply["ok"] for reply in replies)
        assert max(reply["wave"]["size"] for reply in replies) >= 2
        for query, reply in zip(queries, replies):
            assert reply["query"]  # echoed normalised text
            assert reply["count"] == len(service.submit("institute", query).ids())


class TestErrorMapping:
    def test_unknown_tenant_is_authorization_error(self, service):
        async def scenario(client, _frontend):
            return await client.query("stranger", "patient")

        reply = run_with_frontend(service, scenario)
        assert reply["ok"] is False
        assert reply["error"] == "authorization"
        assert "stranger" in reply["message"]

    def test_malformed_query_is_invalid_query(self, service):
        async def scenario(client, _frontend):
            return await client.query("institute", "]][[")

        reply = run_with_frontend(service, scenario)
        assert reply == {
            "ok": False,
            "error": "invalid-query",
            "message": reply["message"],
        }

    def test_session_tenant_mismatch_is_authorization(self, service):
        async def scenario(client, _frontend):
            opened = await client.open_session("institute")
            return await client.query(
                "admin", "//pname", session=opened["session"]
            )

        reply = run_with_frontend(service, scenario)
        assert reply["ok"] is False and reply["error"] == "authorization"

    def test_unknown_algorithm_is_service_error(self, service):
        async def scenario(client, _frontend):
            return await client.query("institute", "patient", algorithm="magic")

        reply = run_with_frontend(service, scenario)
        assert reply["ok"] is False and reply["error"] == "service"

    def test_bad_json_line_is_bad_request(self, service):
        async def scenario(client, _frontend):
            client._writer.write(b"this is not json\n")
            await client._writer.drain()
            return await client._read_reply()

        reply = run_with_frontend(service, scenario)
        assert reply["ok"] is False and reply["error"] == "bad-request"

    def test_non_object_json_is_bad_request(self, service):
        async def scenario(client, _frontend):
            client._writer.write(b"[1, 2, 3]\n")
            await client._writer.drain()
            return await client._read_reply()

        reply = run_with_frontend(service, scenario)
        assert reply["ok"] is False and reply["error"] == "bad-request"

    def test_non_integer_limit_is_bad_request_not_a_hang(self, service):
        """Regression: a null/non-numeric limit killed the per-line task
        before any reply was written, hanging the client forever."""

        async def scenario(client, _frontend):
            null_limit = await asyncio.wait_for(
                client.request(
                    {
                        "op": "query",
                        "tenant": "institute",
                        "query": "patient",
                        "limit": None,
                    }
                ),
                timeout=5.0,
            )
            text_limit = await asyncio.wait_for(
                client.request(
                    {
                        "op": "query",
                        "tenant": "institute",
                        "query": "patient",
                        "limit": "ten",
                    }
                ),
                timeout=5.0,
            )
            return null_limit, text_limit

        null_limit, text_limit = run_with_frontend(service, scenario)
        for reply in (null_limit, text_limit):
            assert reply["ok"] is False and reply["error"] == "bad-request"
            assert "limit" in reply["message"]

    def test_unknown_op_and_missing_field(self, service):
        async def scenario(client, _frontend):
            unknown = await client.request({"op": "teleport"})
            missing = await client.request({"op": "query", "tenant": "admin"})
            return unknown, missing

        unknown, missing = run_with_frontend(service, scenario)
        assert unknown["error"] == "bad-request"
        assert missing["error"] == "bad-request"
        assert "query" in missing["message"]

    def test_failed_requests_keep_the_connection_alive(self, service):
        async def scenario(client, _frontend):
            await client.query("stranger", "patient")
            return await client.query("institute", "patient")

        reply = run_with_frontend(service, scenario)
        assert reply["ok"] is True

    def test_oversized_line_gets_a_reply_before_disconnect(self, service):
        """Regression: a line past the stream limit raised out of the
        read loop — no reply, an unhandled-exception log, a dead socket."""
        from repro.serve.frontend import LINE_LIMIT

        async def scenario(client, _frontend):
            huge = json.dumps(
                {"op": "query", "tenant": "institute", "query": "x" * (LINE_LIMIT + 64)}
            )
            client._writer.write(huge.encode() + b"\n")
            await client._writer.drain()
            reply = await asyncio.wait_for(client._read_reply(), timeout=5.0)
            # Framing is unrecoverable, so the server then closes.
            closed = await client._reader.readline()
            return reply, closed

        reply, closed = run_with_frontend(service, scenario)
        assert reply["ok"] is False and reply["error"] == "invalid-request"
        assert "exceeds" in reply["message"]
        assert closed == b""
        kinds = service.metrics_snapshot().rejected_kinds
        assert kinds.get("invalid-request", 0) == 1

    def test_rejections_reach_service_metrics(self, service):
        async def scenario(client, _frontend):
            await client.query("stranger", "patient")
            await client.query("institute", "]][[")
            return await client.metrics()

        reply = run_with_frontend(service, scenario)
        kinds = reply["metrics"]["rejected_kinds"]
        assert kinds == {"authorization": 1, "invalid-query": 1}


class TestDeadlines:
    def test_generous_deadline_serves_the_full_answer(self, service):
        async def scenario(client, _frontend):
            return await client.query(
                "institute", "patient", deadline_ms=60_000.0
            )

        reply = run_with_frontend(service, scenario)
        expected = service.submit("institute", "patient")
        assert reply["ok"] is True
        assert reply["count"] == len(expected.ids())

    def test_microscopic_deadline_rejects_structurally(self, service):
        async def scenario(client, _frontend):
            rejected = await client.query(
                "institute", "patient", deadline_ms=0.001
            )
            alive = await client.ping()
            return rejected, alive

        rejected, alive = run_with_frontend(service, scenario)
        assert rejected["ok"] is False
        assert rejected["error"] == "deadline"
        assert alive == {"ok": True, "pong": True}
        assert service.metrics_snapshot().rejected_kinds.get("deadline") == 1

    @pytest.mark.parametrize("bad", [0, -5, "soon", float("nan")])
    def test_non_positive_deadline_is_bad_request(self, service, bad):
        async def scenario(client, _frontend):
            return await client.request(
                {
                    "op": "query",
                    "tenant": "institute",
                    "query": "patient",
                    "deadline_ms": bad,
                }
            )

        reply = run_with_frontend(service, scenario)
        assert reply["ok"] is False
        assert reply["error"] == "bad-request"
        assert "deadline_ms" in reply["message"]


class TestBackpressure:
    def run_with_capped_frontend(
        self, service, scenario, max_pending, admission
    ):
        async def main():
            frontend = QueryFrontend(
                service, admission, max_pending=max_pending
            )
            host, port = await frontend.start("127.0.0.1", 0)
            client = await FrontendClient.connect(host, port)
            try:
                return await scenario(client, frontend)
            finally:
                await client.aclose()
                await frontend.close()

        return asyncio.run(main())

    def test_cap_validated(self, service):
        with pytest.raises(ValueError, match="max_pending"):
            QueryFrontend(service, max_pending=0)

    def test_excess_pipelined_queries_get_overloaded_replies(self, service):
        """A burst past the per-connection cap: the excess queries are
        rejected with a structured ``overloaded`` reply (ids echoed, the
        connection stays usable) while the admitted ones still answer."""

        async def scenario(client, _frontend):
            burst = [
                {
                    "op": "query",
                    "id": f"q{i}",
                    "tenant": "institute",
                    "query": "patient",
                }
                for i in range(5)
            ]
            payload = "".join(json.dumps(m) + "\n" for m in burst).encode()
            client._writer.write(payload)
            await client._writer.drain()
            replies = {}
            for _ in burst:
                reply = await asyncio.wait_for(client._read_reply(), timeout=10)
                replies[reply["id"]] = reply
            # The connection survives backpressure.
            follow_up = await asyncio.wait_for(
                client.query("institute", "patient"), timeout=10
            )
            metrics = await client.metrics()
            return replies, follow_up, metrics

        # A long admission window keeps the first queries pending while
        # the rest of the burst hits the cap.
        replies, follow_up, metrics = self.run_with_capped_frontend(
            service,
            scenario,
            max_pending=2,
            admission=AdmissionConfig(max_wave=8, max_wait=0.25),
        )
        overloaded = [r for r in replies.values() if not r["ok"]]
        served = [r for r in replies.values() if r["ok"]]
        assert len(served) == 2
        assert len(overloaded) == 3
        for reply in overloaded:
            assert reply["error"] == "overloaded"
            assert "drain replies" in reply["message"]
        assert follow_up["ok"] is True
        assert metrics["metrics"]["rejected_kinds"]["overloaded"] == 3

    def test_non_query_ops_pass_while_queries_are_capped(self, service):
        async def scenario(client, _frontend):
            client._writer.write(
                (
                    json.dumps(
                        {
                            "op": "query",
                            "id": "pending",
                            "tenant": "institute",
                            "query": "patient",
                        }
                    )
                    + "\n"
                ).encode()
            )
            await client._writer.drain()
            # While the query waits out the admission window, pings and
            # metrics are not subject to the cap.
            pong = await asyncio.wait_for(client.ping(), timeout=10)
            pending = await asyncio.wait_for(client._read_reply(), timeout=10)
            return pong, pending

        pong, pending = self.run_with_capped_frontend(
            service,
            scenario,
            max_pending=1,
            admission=AdmissionConfig(max_wave=8, max_wait=0.2),
        )
        assert pong["pong"] is True
        assert pending["id"] == "pending" and pending["ok"] is True


class TestLifecycle:
    def test_start_frontend_helper_and_id_echo(self, service):
        async def main():
            frontend = await start_frontend(service, port=0)
            client = await FrontendClient.connect(frontend.host, frontend.port)
            try:
                reply = await client.request({"op": "ping", "id": "abc"})
            finally:
                await client.aclose()
                await frontend.close()
            return reply

        reply = asyncio.run(main())
        assert reply["id"] == "abc" and reply["pong"] is True

    def test_close_returns_while_a_client_is_still_connected(self, service):
        """Regression: ``close()`` awaited connection handlers without
        cancelling them, so it hung until every client disconnected."""

        async def main():
            frontend = await start_frontend(service, port=0)
            client = await FrontendClient.connect(frontend.host, frontend.port)
            assert (await client.ping())["pong"] is True
            # Idle client stays connected; close must not wait for it.
            await asyncio.wait_for(frontend.close(), timeout=5.0)
            await client.aclose()

        asyncio.run(main())

    def test_two_connections_share_the_service(self, service):
        async def main():
            frontend = await start_frontend(service, port=0)
            one = await FrontendClient.connect(frontend.host, frontend.port)
            two = await FrontendClient.connect(frontend.host, frontend.port)
            try:
                first, second = await asyncio.gather(
                    one.query("institute", "patient"),
                    two.query("admin", "//pname"),
                )
            finally:
                await one.aclose()
                await two.aclose()
                await frontend.close()
            return first, second

        first, second = asyncio.run(main())
        assert first["ok"] and second["ok"]
        snap = service.metrics_snapshot()
        assert snap.requests == 2
