"""Graceful drain on SIGTERM, tested against real subprocesses.

Covers every shape the fleet relies on: the ``serve-front`` CLI server,
a bare fleet worker (``python -m repro.serve.fleet --worker``), and the
``serve-fleet`` acceptor fronting its workers.  In each, a query
admitted *before* the signal must still get its reply, a query arriving
*after* it must get a structured ``draining`` rejection, logs must be
flushed, and the process must exit cleanly (status 0).  Also: an
acceptor's ``close()`` stops a worker restart cancelled mid-handshake.
"""

import asyncio
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time

from repro.serve.fleet import FleetAcceptor, FleetSpec, WorkerHandle

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _connect(host, port, attempts=50):
    for _ in range(attempts):
        try:
            return socket.create_connection((host, port), timeout=10)
        except OSError:
            time.sleep(0.1)
    raise ConnectionError(f"could not reach {host}:{port}")


def _send(stream, message):
    stream.write((json.dumps(message) + "\n").encode())
    stream.flush()


def _drain_scenario(proc, host, port):
    """The shared choreography: one held query, SIGTERM, one late query.

    The server's admission hold (``max_wait`` ≈ 0.5 s) keeps the first
    query in flight long enough for the signal and the second query to
    land while draining.  Returns the two replies (by id).
    """
    sock = _connect(host, port)
    stream = sock.makefile("rwb")
    try:
        _send(stream, {"op": "ping", "id": "warm"})
        assert json.loads(stream.readline())["ok"] is True
        _send(
            stream,
            {"op": "query", "id": "held", "tenant": "inst-0", "query": "patient"},
        )
        time.sleep(0.15)  # server has read + admitted into the held wave
        proc.send_signal(signal.SIGTERM)
        time.sleep(0.1)  # drain flag set; wave still held
        _send(
            stream,
            {"op": "query", "id": "late", "tenant": "inst-0", "query": "ward"},
        )
        replies = {}
        while len(replies) < 2:
            line = stream.readline()
            assert line, "connection closed before both replies arrived"
            reply = json.loads(line)
            replies[reply["id"]] = reply
        return replies["held"], replies["late"]
    finally:
        sock.close()


def test_serve_front_sigterm_drains(tmp_path):
    access_log = tmp_path / "access.ndjson"
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve-front",
            "--port",
            "0",
            "--patients",
            "8",
            "--tenants",
            "2",
            "--max-wait-ms",
            "500",
            "--access-log",
            str(access_log),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(),
    )
    try:
        boot = proc.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", boot)
        assert match, f"no listening line: {boot!r}"
        held, late = _drain_scenario(
            proc, match.group(1), int(match.group(2))
        )
        # The admitted query completed; the late one was refused.
        assert held["ok"] is True and held["count"] > 0
        assert late["ok"] is False and late["error"] == "draining"
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert "draining: refusing new admissions" in out
        assert "drained: all in-flight requests flushed" in out
        # The flushed access log holds exactly the served query, as
        # complete NDJSON (no truncated tail).
        entries = [
            json.loads(line)
            for line in access_log.read_text().splitlines()
        ]
        assert len(entries) == 1
        assert entries[0]["tenant"] == "inst-0"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_fleet_worker_sigterm_drains(tmp_path):
    from repro.serve.fleet import FleetSpec

    access_log = tmp_path / "{worker}.ndjson"
    spec = FleetSpec(
        config={
            "patients": 8,
            "terms": 12,
            "chain_depth": 4,
            "tenants": 2,
        },
        max_wait_ms=500.0,
        access_log=str(access_log),
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve.fleet", "--worker", "w9"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=_env(),
    )
    try:
        proc.stdin.write(spec.to_json() + "\n")
        proc.stdin.flush()
        hello = json.loads(proc.stdout.readline())
        assert hello["ok"] is True and hello["pid"] == proc.pid
        held, late = _drain_scenario(proc, hello["host"], hello["port"])
        assert held["ok"] is True and held["count"] > 0
        assert late["ok"] is False and late["error"] == "draining"
        proc.communicate(timeout=30)
        assert proc.returncode == 0
        flushed = tmp_path / "w9.ndjson"
        entries = [
            json.loads(line) for line in flushed.read_text().splitlines()
        ]
        assert len(entries) == 1 and entries[0]["tenant"] == "inst-0"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_fleet_acceptor_sigterm_drains():
    """The acceptor front door drains on SIGTERM like its workers do.

    Same choreography as above, but the query is routed acceptor →
    worker: the reply for the held query must come back through the
    acceptor before it stops its workers, the late query must get the
    structured ``draining`` refusal from the acceptor itself, and the
    whole fleet must exit 0.
    """
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve-fleet",
            "--port",
            "0",
            "--workers",
            "2",
            "--patients",
            "8",
            "--tenants",
            "2",
            "--max-wait-ms",
            "500",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(),
    )
    try:
        boot = proc.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", boot)
        assert match, f"no listening line: {boot!r}"
        held, late = _drain_scenario(
            proc, match.group(1), int(match.group(2))
        )
        assert held["ok"] is True and held["count"] > 0
        assert late["ok"] is False and late["error"] == "draining"
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert "draining: refusing new connections" in out
        assert "drained: fleet stopped cleanly" in out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_close_stops_a_restart_whose_handshake_is_in_flight(monkeypatch):
    """A drain that lands while the health loop is restarting a worker
    must stop the freshly spawned process too, not only the old one."""
    spawned: list[int] = []

    async def spawn_then_hang(self):
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, "-c", "import time; time.sleep(60)"
        )
        spawned.append(self.proc.pid)
        await asyncio.Event().wait()  # the handshake never arrives

    monkeypatch.setattr(WorkerHandle, "start", spawn_then_hang)

    async def main():
        # Never started: w0's handle is down, so the first health tick
        # restarts it and hangs in the new handle's start().
        acceptor = FleetAcceptor(FleetSpec(), workers=1, health_interval=0.01)
        acceptor._health_task = asyncio.create_task(acceptor._health_loop())
        for _ in range(500):
            if spawned:
                break
            await asyncio.sleep(0.01)
        await asyncio.wait_for(acceptor.drain(), 30)

    try:
        asyncio.run(main())
        assert spawned, "the health loop never restarted w0"
        for pid in spawned:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            raise AssertionError(f"spawned worker {pid} outlived close()")
    finally:
        for pid in spawned:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
