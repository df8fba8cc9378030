"""The fleet's decisions, tested as the pure state machine they are.

:class:`repro.serve.supervisor.Supervisor` reads no clock and touches no
socket, so everything here runs on a fake clock with a seeded RNG: no
processes, milliseconds per example.  ``TestBreaker`` pins the circuit
breaker's transitions, ``TestBackoffAndRestarts`` the one backoff and
the restart schedule, and ``FleetMachine`` drives the acceptor's routing
and health loops (minus their I/O) through random interleavings of
replies, timeouts, draining replies, crashes, pings, restarts and a
drain, checking the fleet's invariants after every step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.serve.supervisor import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    BREAKER_THRESHOLD,
    Supervisor,
    backoff,
)

NAMES = ["w0", "w1", "w2"]


def one_worker() -> Supervisor:
    return Supervisor(["w0"], rng=random.Random(7))


def routes(supervisor: Supervisor, now: float) -> list[str]:
    """Every worker a query may try (one worker: claiming its probe is
    all the consuming does)."""
    return [name for name, _probe in supervisor.route("doc", now)]


def trip(supervisor: Supervisor, now: float, name: str = "w0") -> None:
    for _ in range(BREAKER_THRESHOLD):
        supervisor.failed(name, now)


class TestBreaker:
    def test_threshold_trips_open(self):
        supervisor = one_worker()
        for _ in range(BREAKER_THRESHOLD - 1):
            supervisor.failed("w0", 100.0)
        record = supervisor.workers["w0"]
        assert record.breaker == "closed" and routes(supervisor, 100.0) == ["w0"]
        supervisor.failed("w0", 100.0)
        assert record.breaker == "open"
        assert record.opened == 1
        assert routes(supervisor, 100.0) == []

    def test_half_open_admits_exactly_one_probe(self):
        supervisor = one_worker()
        trip(supervisor, 100.0)
        assert routes(supervisor, 100.0) == []
        unlocked = supervisor.workers["w0"].open_until
        assert routes(supervisor, unlocked) == ["w0"]  # the probe
        assert supervisor.workers["w0"].breaker == "half-open"
        assert routes(supervisor, unlocked) == []  # only one
        assert routes(supervisor, unlocked + 60.0) == []  # until it reports

    def test_probe_success_closes(self):
        supervisor = one_worker()
        trip(supervisor, 100.0)
        routes(supervisor, supervisor.workers["w0"].open_until)
        supervisor.replied("w0", 101.0, probe=True)
        record = supervisor.workers["w0"]
        assert record.breaker == "closed"
        assert record.failures == 0
        assert routes(supervisor, 101.0) == ["w0"]

    def test_probe_failure_reopens_longer(self):
        supervisor = one_worker()
        trip(supervisor, 100.0)
        record = supervisor.workers["w0"]
        first = record.open_until - 100.0
        routes(supervisor, record.open_until)
        supervisor.failed("w0", 200.0, probe=True)
        second = record.open_until - 200.0
        # Jitter is a 0.5–1.0 factor, so doubling the raw delay always
        # at least matches the previous jittered value's floor.
        assert second > first * 0.5
        assert record.breaker == "open"
        assert record.failures == BREAKER_THRESHOLD + 1 and record.opened == 2

    def test_delay_is_jittered_and_capped(self):
        supervisor = one_worker()
        for _ in range(20):
            supervisor.failed("w0", 0.0)
        # failures >> threshold: the raw delay is capped, and the jitter
        # factor keeps it within [0.5, 1.0] * cap.
        assert BACKOFF_CAP / 2 <= supervisor.workers["w0"].open_until <= BACKOFF_CAP

    def test_only_the_probe_moves_a_half_open_breaker(self):
        supervisor = one_worker()
        trip(supervisor, 100.0)
        routes(supervisor, supervisor.workers["w0"].open_until)  # probe out
        record = supervisor.workers["w0"]
        # A request sent before the trip, and a health ping, report back
        # while the probe is out: neither re-opens nor closes the breaker,
        # so no second probe can be handed out.
        supervisor.failed("w0", 200.0)
        supervisor.pinged("w0", 200.0, ok=False)
        supervisor.replied("w0", 200.0)
        assert record.breaker == "half-open"
        assert routes(supervisor, 1e9) == []
        supervisor.replied("w0", 201.0, probe=True)
        assert record.breaker == "closed" and routes(supervisor, 201.0) == ["w0"]

    def test_reset_restores_traffic(self):
        supervisor = one_worker()
        trip(supervisor, 100.0)
        supervisor.restarted("w0", 100.0)  # a fresh process: traffic again
        assert supervisor.workers["w0"].breaker == "closed"
        assert routes(supervisor, 100.0) == ["w0"]

    def test_as_dict_shape(self):
        supervisor = one_worker()
        trip(supervisor, 100.0)
        state = supervisor.as_dict(100.0)
        assert set(state) == {"restarts", "reroutes", "timeouts", "workers"}
        assert set(state["workers"]["w0"]) == {"alive", "restarts", "breaker"}
        breaker = state["workers"]["w0"]["breaker"]
        assert breaker["state"] == "open"
        assert breaker["consecutive_failures"] == BREAKER_THRESHOLD
        assert breaker["total_failures"] == BREAKER_THRESHOLD
        assert breaker["opened"] == 1
        assert breaker["backoff_ms"] > 0


class _Fixed:
    """An RNG stub: jitter factor ``0.5 + 0.5 * value``."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self) -> float:
        return self.value


class TestBackoffAndRestarts:
    def test_one_backoff_doubles_to_the_cap(self):
        top = _Fixed(1.0)
        assert [backoff(e, top) for e in range(7)] == [
            BACKOFF_BASE * 2**e if BACKOFF_BASE * 2**e < BACKOFF_CAP else BACKOFF_CAP
            for e in range(7)
        ]
        assert backoff(-3, top) == BACKOFF_BASE  # exponents clamp at 0
        assert backoff(10_000, top) == BACKOFF_CAP
        assert backoff(0, _Fixed(0.0)) == BACKOFF_BASE / 2  # jitter floor

    def test_crash_loop_backs_off_and_a_passed_ping_resets_it(self):
        supervisor = Supervisor(NAMES, rng=_Fixed(1.0))
        supervisor.exited("w0", 0.0)
        assert supervisor.due_restarts(0.0) == ["w0"]
        record = supervisor.workers["w0"]
        # First restart books exponent 1, the next 2: the delay doubles.
        assert record.restart_at == 2 * BACKOFF_BASE
        assert supervisor.due_restarts(0.1) == []  # spawn failed; waiting
        assert supervisor.due_restarts(record.restart_at) == ["w0"]
        assert record.restart_at == 2 * BACKOFF_BASE + 4 * BACKOFF_BASE
        supervisor.restarted("w0", 2.0)
        assert supervisor.due_restarts(100.0) == []
        assert (record.restarts, supervisor.restarts) == (1, 1)
        supervisor.pinged("w0", 3.0, ok=True)
        assert record.restart_attempts == 0

    def test_failed_ping_counts_against_the_breaker_and_asks_for_a_restart(self):
        supervisor = Supervisor(NAMES, rng=random.Random(1))
        supervisor.pinged("w1", 0.0, ok=False)
        assert supervisor.workers["w1"].failures == 1
        assert supervisor.due_restarts(0.0) == ["w1"]
        supervisor.pinged("w1", 0.5, ok=True)  # recovered before its restart
        assert supervisor.due_restarts(60.0) == []

    def test_nothing_restarts_once_a_drain_began(self):
        supervisor = Supervisor(NAMES, rng=random.Random(1))
        for name in NAMES:
            supervisor.exited(name, 0.0)
        supervisor.drain_began(0.0)
        assert supervisor.due_restarts(0.0) == []
        assert supervisor.due_restarts(1e9) == []

    def test_draining_worker_gets_nothing_new_until_restarted(self):
        supervisor = Supervisor(NAMES, rng=random.Random(1))
        doc = FIRST_DOC["w2"]
        supervisor.refused_draining("w2", 0.0)
        assert "w2" not in dict(supervisor.route(doc, 0.0))
        supervisor.restarted("w2", 1.0)
        assert next(supervisor.route(doc, 1.0)) == ("w2", False)

    def test_reroutes_and_timeouts_are_counted(self):
        supervisor = Supervisor(NAMES, rng=random.Random(1))
        attempts = supervisor.route(FIRST_DOC["w0"], 0.0)
        assert next(attempts) == ("w0", False)
        supervisor.failed("w0", 0.0, timeout=True)
        assert next(attempts)[0] != "w0"
        assert (supervisor.reroutes, supervisor.timeouts) == (1, 1)


def _first_docs() -> dict[str, str]:
    """One document key per worker that the ring routes to it first."""
    ring = Supervisor(NAMES).ring
    docs: dict[str, str] = {}
    for index in range(256):
        docs.setdefault(ring.node_for(f"doc-{index}"), f"doc-{index}")
    assert set(docs) == set(NAMES)
    return docs


FIRST_DOC = _first_docs()
DOCS = sorted(FIRST_DOC.values())


@dataclass
class Request:
    """One client query inside the acceptor: its remaining route and the
    worker holding it (unacknowledged) right now."""

    route: Iterator[tuple[str, bool]]
    at: str = ""
    probe: bool = False
    tried: list[str] = field(default_factory=list)


class FleetMachine(RuleBasedStateMachine):
    """The acceptor's routing and health loops with the I/O taken out.

    A request walks ``route`` exactly as ``FleetAcceptor._route_query``
    does: a reply ends it, a timeout / dead connection / ``draining``
    reply moves it to the next worker, and an exhausted route answers
    it with the structured no-live-worker error.  ``crash`` is a lost
    connection (it fails every request the worker holds), ``health``
    the restart step of ``FleetAcceptor._health_loop``.
    """

    def __init__(self) -> None:
        super().__init__()
        self.supervisor = Supervisor(NAMES, rng=random.Random(0))
        self.now = 0.0
        self.pending: dict[int, Request] = {}
        self.answers: dict[int, int] = {}
        self.acknowledged: set[int] = set()
        self.draining: set[str] = set()  # answered draining, not restarted
        self.drain_began = False

    # -- the acceptor's routing loop ----------------------------------
    def _arrive(self, doc: str) -> int:
        rid = len(self.answers)
        self.answers[rid] = 0
        self.pending[rid] = Request(self.supervisor.route(doc, self.now))
        self._advance(rid)
        return rid

    def _advance(self, rid: int) -> None:
        assert rid not in self.acknowledged, "an acknowledged request was retried"
        request = self.pending[rid]
        name, probe = next(request.route, ("", False))
        if not name:
            self._answer(rid)  # "no live worker for this document shard"
            return
        record = self.supervisor.workers[name]
        assert record.alive, f"routed to dead {name}"
        assert name not in self.draining, f"draining {name} got a new request"
        assert name not in request.tried
        assert probe == (record.breaker == "half-open")
        request.probe = probe
        if probe:
            assert not any(
                other.probe and other.at == name
                for other in self.pending.values()
                if other is not request
            ), f"two half-open probes in flight to {name}"
        else:
            assert record.breaker == "closed"
        request.at = name
        request.tried.append(name)

    def _answer(self, rid: int) -> None:
        self.answers[rid] += 1
        assert self.answers[rid] == 1, "a request was answered twice"
        del self.pending[rid]

    def _lost(self, name: str) -> None:
        """``WorkerHandle._fail_pending``: the supervisor hears of the
        loss first, then every request the worker held fails over."""
        self.supervisor.exited(name, self.now)
        for rid in [rid for rid, r in self.pending.items() if r.at == name]:
            self.supervisor.failed(name, self.now, probe=self.pending[rid].probe)
            self._advance(rid)

    def _draw_pending(self, data) -> int:
        return data.draw(st.sampled_from(sorted(self.pending)))

    # -- rules ----------------------------------------------------------
    @rule(dt=st.sampled_from([0.0, 0.05, 0.3, 1.0, 4.0, 10.0]))
    def tick(self, dt: float) -> None:
        self.now += dt

    @rule(doc=st.sampled_from(DOCS))
    def arrive(self, doc: str) -> None:
        self._arrive(doc)

    @precondition(lambda self: self.pending)
    @rule(data=st.data())
    def reply(self, data) -> None:
        rid = self._draw_pending(data)
        request = self.pending[rid]
        self.supervisor.replied(request.at, self.now, probe=request.probe)
        self.acknowledged.add(rid)
        self._answer(rid)

    @precondition(lambda self: self.pending)
    @rule(data=st.data())
    def time_out(self, data) -> None:
        rid = self._draw_pending(data)
        request = self.pending[rid]
        self.supervisor.failed(request.at, self.now, timeout=True, probe=request.probe)
        self._advance(rid)

    @precondition(lambda self: self.pending)
    @rule(data=st.data())
    def answer_draining(self, data) -> None:
        rid = self._draw_pending(data)
        name = self.pending[rid].at
        self.supervisor.refused_draining(name, self.now)
        self.draining.add(name)
        self._advance(rid)

    @rule(name=st.sampled_from(NAMES))
    def crash(self, name: str) -> None:
        self._lost(name)

    @rule(
        name=st.sampled_from(NAMES),
        ok=st.booleans(),
        ticks=st.integers(1, BREAKER_THRESHOLD),
    )
    def ping(self, name: str, ok: bool, ticks: int) -> None:
        """``ticks`` health ticks in a row with the same ping outcome."""
        for _ in range(ticks):
            if self.supervisor.workers[name].alive:  # only live connections
                self.supervisor.pinged(name, self.now, ok)

    @rule(spawned=st.booleans())
    def health(self, spawned: bool) -> None:
        due = self.supervisor.due_restarts(self.now)
        if self.drain_began:
            assert due == [], "a restart was issued after the drain began"
        for name in due:
            record = self.supervisor.workers[name]
            assert not record.alive or record.ping_failed
            self._lost(name)  # the kill
            if spawned:
                self.supervisor.restarted(name, self.now)
                self.draining.discard(name)

    @rule(name=st.sampled_from(NAMES))
    def backoff_elapses(self, name: str) -> None:
        """A healthy worker is routed to again once its backoff elapsed —
        unless its probe is still out, when its shard goes elsewhere."""
        record = self.supervisor.workers[name]
        if not record.alive or name in self.draining:
            return
        self.now = max(self.now, record.open_until)
        probing = record.breaker == "half-open"
        rid = self._arrive(FIRST_DOC[name])
        if probing:
            assert rid not in self.pending or self.pending[rid].at != name
        else:
            assert self.pending[rid].at == name
            assert self.pending[rid].probe == (record.breaker == "half-open")

    @rule(name=st.sampled_from(NAMES))
    def hang(self, name: str) -> None:
        """The worker hangs: what it holds stays unanswered while its
        pings keep failing and its shard keeps getting requests."""
        for _ in range(BREAKER_THRESHOLD + 1):
            self.ping(name, ok=False, ticks=1)
            self.backoff_elapses(name)

    @rule()
    def begin_drain(self) -> None:
        self.supervisor.drain_began(self.now)
        self.drain_began = True

    @precondition(lambda self: self.drain_began)
    @rule(looping=st.sampled_from(NAMES))
    def drain_completes(self, looping: str) -> None:
        """Drain terminates while ``looping`` crash-loops and every other
        worker times out: each round moves every request to a worker it
        has not tried, and nothing is restarted."""
        for _ in range(len(NAMES) + 1):
            if not self.pending:
                break
            self._lost(looping)
            for rid in list(self.pending):
                request = self.pending.get(rid)
                if request is not None and request.at != looping:
                    self.supervisor.failed(
                        request.at, self.now, timeout=True, probe=request.probe
                    )
                    self._advance(rid)
            self.now += BACKOFF_CAP
            assert self.supervisor.due_restarts(self.now) == []
        assert not self.pending, "drain did not terminate"

    # -- invariants -----------------------------------------------------
    @invariant()
    def healthy_workers_take_their_own_shard(self) -> None:
        for name, doc in FIRST_DOC.items():
            record = self.supervisor.workers[name]
            if record.alive and name not in self.draining and record.breaker == "closed":
                assert next(self.supervisor.route(doc, self.now)) == (name, False)

    @invariant()
    def draining_is_the_supervisors_view_too(self) -> None:
        assert self.draining == {
            name for name, r in self.supervisor.workers.items() if r.draining
        }

    @invariant()
    def each_request_tries_each_worker_at_most_once(self) -> None:
        for request in self.pending.values():
            assert len(request.tried) == len(set(request.tried)) <= len(NAMES)


FleetMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestFleetMachine = FleetMachine.TestCase
