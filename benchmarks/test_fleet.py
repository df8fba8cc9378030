"""Fleet smoke: correctness and warm-start guarantees of the worker fleet.

The checks ``make fleet-smoke`` runs in CI:

* **Byte-identical answers** — the multidoc workload replayed through a
  3-worker fleet returns exactly what one in-process
  :class:`repro.serve.service.QueryService` returns, request by request;
* **Warm workers do zero compile work** — a fleet booted against
  plan/doc dirs a previous fleet populated reports zero MFA ``rewrite``
  stage runs and zero document index builds across every worker;
* **Killing a worker mid-load loses no acknowledged request** — a
  pipelined burst keeps answering (rerouted through the ring's
  preference order) while one worker is SIGKILLed, and the health loop
  restarts it under its old ring name;
* **A conservative throughput floor** — scaling is only physical with
  cores to scale onto, so the ``>= 2x`` floor applies on >= 4-cpu hosts;
  elsewhere the fleet must simply not collapse under its own overhead.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time

import pytest

from repro.hype.api import OPTHYPE
from repro.serve.fleet import FleetSpec, start_fleet
from repro.serve.frontend import LINE_LIMIT, FrontendClient
from repro.workloads.multidoc import (
    MultiDocConfig,
    build_multidoc_service,
    generate_multidoc_traffic,
)

CFG = MultiDocConfig(
    patients=12,
    terms=16,
    chain_depth=6,
    seed=5,
    num_requests=30,
    ontology_variants=2,
    algorithm=OPTHYPE,
)

#: Fleet scaling floor, gated on cores (process parallelism is physical).
FLEET_FLOOR = 2.0
FLEET_MIN_CPUS = 4


@pytest.fixture(scope="module")
def reference():
    """The single-process ground truth: traffic + per-request answers."""
    service, hashes = build_multidoc_service(CFG)
    traffic = generate_multidoc_traffic(CFG, hashes)
    try:
        answers = [
            service.submit(r.tenant, r.query, document=r.document).ids()
            for r in traffic
        ]
    finally:
        service.close()
    payloads = [
        {
            "tenant": r.tenant,
            "query": r.query,
            "document": r.document,
            "limit": -1,
        }
        for r in traffic
    ]
    return payloads, answers


def _spec(tmp_path, **overrides) -> FleetSpec:
    return FleetSpec(
        config=CFG.as_dict(),
        plan_dir=str(tmp_path / "plans"),
        doc_dir=str(tmp_path / "docs"),
        **overrides,
    )


async def _replay(acceptor, payloads):
    client = await FrontendClient.connect(acceptor.host, acceptor.port)
    try:
        return await client.query_many(payloads)
    finally:
        await client.aclose()


async def _oversize_exchange(acceptor):
    reader, writer = await asyncio.open_connection(
        acceptor.host, acceptor.port
    )
    try:
        writer.write(b'{"op": "ping", "pad": "' + b"x" * LINE_LIMIT + b'"}\n')
        await writer.drain()
        refusal = json.loads(await asyncio.wait_for(reader.readline(), 10))
        return refusal, await asyncio.wait_for(reader.readline(), 10)
    finally:
        writer.close()


def test_fleet_answers_byte_identical_to_single_process(tmp_path, reference):
    payloads, expected = reference

    async def main():
        acceptor = await start_fleet(_spec(tmp_path), workers=3)
        try:
            replies = await _replay(acceptor, payloads)
            return replies, await _oversize_exchange(acceptor)
        finally:
            await acceptor.close()

    replies, (refusal, after) = asyncio.run(main())
    assert all(reply["ok"] for reply in replies)
    assert [reply["ids"] for reply in replies] == expected
    # >= 2 structurally different documents actually exercised.
    assert len({reply["document"] for reply in replies}) >= 2
    # The acceptor's door is the frontend's line server: a line past the
    # cap is the documented ``invalid-request`` (it used to drift to
    # ``bad-request``), then the connection drops.
    assert refusal["ok"] is False and refusal["error"] == "invalid-request"
    assert f"exceeds {LINE_LIMIT} bytes" in refusal["message"]
    assert after == b""


def test_warm_fleet_zero_rewrites_zero_index_builds(tmp_path, reference):
    payloads, expected = reference

    async def run_fleet() -> dict:
        acceptor = await start_fleet(_spec(tmp_path), workers=3)
        try:
            replies = await _replay(acceptor, payloads)
            assert [r["ids"] for r in replies] == expected
            client = await FrontendClient.connect(acceptor.host, acceptor.port)
            try:
                return await client.request({"op": "metrics"})
            finally:
                await client.aclose()
        finally:
            await acceptor.close()

    asyncio.run(run_fleet())  # cold pass populates the shared tiers
    metrics = asyncio.run(run_fleet())  # fresh processes, warm tiers
    workers = metrics["workers"]
    assert len(workers) == 3
    for name, snapshot in workers.items():
        assert snapshot is not None, f"worker {name} unreachable"
        rewrites = snapshot["compile"].get("rewrite", {}).get("count", 0)
        assert rewrites == 0, f"warm worker {name} ran {rewrites} rewrite(s)"
        builds = snapshot["doc_index_builds"]
        assert builds == 0, f"warm worker {name} built {builds} index(es)"


def test_kill_worker_mid_load_loses_no_acknowledged_request(
    tmp_path, reference
):
    payloads, expected = reference

    async def main():
        # A long admission hold keeps the burst in flight so the kill
        # lands while queries are genuinely unanswered.
        acceptor = await start_fleet(
            _spec(tmp_path, max_wave=64, max_wait_ms=400.0),
            workers=3,
            health_interval=0.2,
        )
        try:
            client = await FrontendClient.connect(acceptor.host, acceptor.port)
            try:
                fleet = await client.request({"op": "fleet"})
                # Kill the worker that owns the busiest shard.
                owners = list(fleet["ring"].values())
                victim = max(set(owners), key=owners.count)
                victim_pid = fleet["workers"][victim]["pid"]
                burst = asyncio.ensure_future(client.query_many(payloads))
                await asyncio.sleep(0.1)  # burst sent; waves held
                os.kill(victim_pid, signal.SIGKILL)
                replies = await burst
                # Wait for the health loop to restart the victim.
                deadline = time.monotonic() + 20
                while time.monotonic() < deadline:
                    fleet = await client.request({"op": "fleet"})
                    fresh = fleet["workers"][victim]
                    if fresh["alive"] and fresh["pid"] != victim_pid:
                        break
                    await asyncio.sleep(0.2)
                return replies, fleet, victim
            finally:
                await client.aclose()
        finally:
            await acceptor.close()

    replies, fleet, victim = asyncio.run(main())
    # Every request in the burst got an answer — rerouting covered the
    # killed worker's shard — and every answer is correct.
    assert all(reply["ok"] for reply in replies), [
        reply for reply in replies if not reply["ok"]
    ]
    assert [reply["ids"] for reply in replies] == expected
    assert fleet["restarts"] >= 1
    assert fleet["workers"][victim]["alive"] is True
    # The restarted worker holds exactly its old shard.
    assert victim in fleet["ring"].values()


def test_fleet_throughput_conservative_floor(tmp_path, reference):
    payloads, _ = reference

    async def timed(workers: int) -> float:
        acceptor = await start_fleet(_spec(tmp_path), workers=workers)
        try:
            client = await FrontendClient.connect(acceptor.host, acceptor.port)
            try:
                await client.query_many(payloads)  # warm
                best = float("inf")
                for _ in range(3):
                    started = time.perf_counter()
                    replies = await client.query_many(payloads)
                    best = min(best, time.perf_counter() - started)
                    assert all(r["ok"] for r in replies)
                return best
            finally:
                await client.aclose()
        finally:
            await acceptor.close()

    single_s = asyncio.run(timed(1))
    fleet_s = asyncio.run(timed(4))
    scaling = single_s / fleet_s
    cpus = os.cpu_count() or 1
    if cpus >= FLEET_MIN_CPUS:
        assert scaling >= FLEET_FLOOR, (
            f"fleet scaling x{scaling:.2f} < {FLEET_FLOOR} with 4 workers "
            f"on {cpus} cpus"
        )
    else:
        # One core cannot run four workers concurrently; hold the
        # conservative line instead: routing + multiplexing overhead
        # must not eat the fleet alive.
        assert scaling >= 0.4, (
            f"fleet {fleet_s:.3f}s vs single {single_s:.3f}s "
            f"(x{scaling:.2f}) — overhead regression"
        )
