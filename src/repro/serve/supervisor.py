"""The fleet's decisions: one clock-injected, I/O-free state machine.

:class:`repro.serve.fleet.FleetAcceptor` does the I/O — it spawns,
calls and kills worker processes.  Every decision about those workers
is made here, from one :class:`WorkerRecord` per worker:

* **events** in — a reply, a failure (dead connection or timeout), a
  ``draining`` reply, a health ping that passed or failed, a lost
  connection, a finished restart, the start of a drain;
* **decisions** out — :meth:`Supervisor.route` (which workers a query
  may try, best first), :meth:`Supervisor.due_restarts` (which workers
  to respawn now), and the state the ``fleet`` / ``metrics`` /
  ``prometheus`` ops report.

Nothing here reads a clock or touches a socket: every call takes
``now`` (a monotonic instant), and jitter comes from one seeded RNG, so
``tests/test_supervisor.py`` drives the whole policy as a state machine
in milliseconds.  Not thread-safe: the acceptor calls it from its event
loop only.

The policy:

* **Circuit breaker** per worker: closed → open → half-open → closed.
  :data:`BREAKER_THRESHOLD` consecutive failures trip it open for a
  jittered exponential delay (each further failure while open doubles
  it, capped); routing skips it, so a sick worker stops eating
  requests its ring siblings could serve.  Once the delay elapses,
  routing hands exactly ONE request to it (the half-open probe); only
  the probe's outcome — not a straggler sent before the trip, nor a
  health ping — closes the breaker or re-opens it for longer.
* **Restarts** back off the same way: a dead worker, or one failing its
  ping, is respawned under its ring name, but a crash-looping one waits
  out a growing delay between attempts; a passed ping resets the
  count.  Once a drain has begun nothing is restarted, so a drain ends
  even while a worker crash-loops.
* **Draining** workers (mid-SIGTERM) answer ``draining``; routing gives
  them nothing new until their replacement is up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from ..obs.export import Exposition, Family
from .ring import DEFAULT_REPLICAS, HashRing

#: Consecutive failures that trip a worker's circuit breaker open.
BREAKER_THRESHOLD = 3

#: First backoff delay (seconds) after the breaker trips / a restart.
BACKOFF_BASE = 0.25

#: Ceiling on any single backoff delay (seconds).
BACKOFF_CAP = 8.0

#: Numeric encoding of breaker states for the Prometheus gauge.
BREAKER_STATES = {"closed": 0, "half-open": 1, "open": 2}

#: The per-worker Prometheus families: name, kind, help and the value
#: read off a worker's record at ``now``.
WORKER_FAMILIES = (
    ("fleet_worker_restarts_total", "counter", "Restarts per worker name.",
     lambda record, now: record.restarts),
    ("fleet_worker_up", "gauge", "Worker liveness (1 = routable).",
     lambda record, now: int(record.alive)),
    ("fleet_breaker_state", "gauge",
     "Circuit breaker state (0 closed, 1 half-open, 2 open).",
     lambda record, now: BREAKER_STATES[record.breaker]),
    ("fleet_breaker_backoff_seconds", "gauge",
     "Seconds until an open breaker admits its half-open probe.",
     lambda record, now: record.backoff_remaining(now)),
)


def backoff(exponent: int, rng: random.Random) -> float:
    """``BACKOFF_BASE * 2**exponent`` seconds (exponent clamped to
    0..12), capped at :data:`BACKOFF_CAP`, times a uniform 0.5–1.0
    jitter that keeps a fleet's workers from retrying in lockstep."""
    raw = min(BACKOFF_CAP, BACKOFF_BASE * 2.0 ** min(max(exponent, 0), 12))
    return raw * (0.5 + 0.5 * rng.random())


@dataclass
class WorkerRecord:
    """Everything the supervisor knows about one worker."""

    alive: bool = True  # its connection is up
    draining: bool = False  # answered ``draining``; cleared by a restart
    ping_failed: bool = False  # the latest health ping failed
    breaker: str = "closed"  # "closed" | "open" | "half-open"
    failures: int = 0  # consecutive
    total_failures: int = 0
    opened: int = 0  # times tripped open
    open_until: float = 0.0  # instant the half-open probe unlocks
    restart_attempts: int = 0  # since the latest passed ping
    restart_at: float = 0.0  # instant the next restart may begin
    restarts: int = 0

    def backoff_remaining(self, now: float) -> float:
        """Seconds until an open breaker admits its probe (else 0)."""
        if self.breaker != "open":
            return 0.0
        return max(0.0, self.open_until - now)


class Supervisor:
    """Breakers, backoff, restarts and routing for a fleet's workers."""

    #: The fleet's scalar counters: ``metrics`` op key (the attribute
    #: name) and Prometheus family, declared once.
    FAMILIES = (
        Family("restarts", "fleet_restarts_total", "counter",
               "Worker restarts performed."),
        Family("reroutes", "fleet_reroutes_total", "counter",
               "Queries rerouted past their preferred worker."),
        Family("timeouts", "fleet_request_timeouts_total", "counter",
               "Worker requests abandoned at the per-request timeout."),
    )

    def __init__(self, names: list[str], rng: random.Random | None = None) -> None:
        self.ring = HashRing(names, DEFAULT_REPLICAS)
        self.workers = {name: WorkerRecord() for name in names}
        self.restarts = 0
        self.reroutes = 0
        self.timeouts = 0
        self.draining = False
        # One seeded RNG: jitter is deterministic per fleet while still
        # de-synchronising the workers from each other.
        self._rng = rng if rng is not None else random.Random(0x5EED)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def replied(self, name: str, now: float, probe: bool = False) -> None:
        """An acknowledged reply closes the breaker.  While it is
        half-open only the probe's outcome moves it, so ``probe`` says
        whether this request was the probe (``route`` says which was)."""
        record = self.workers[name]
        if record.breaker == "half-open" and not probe:
            return
        record.breaker = "closed"
        record.failures = 0
        record.open_until = 0.0

    def failed(self, name: str, now: float, timeout: bool = False, probe: bool = False) -> None:
        """No reply: the connection died, or the request (or a health
        ping) timed out.  Trips the breaker at the threshold; while it is
        half-open, only the probe's failure re-opens it."""
        if timeout:
            self.timeouts += 1
        record = self.workers[name]
        record.failures += 1
        record.total_failures += 1
        if record.breaker == "half-open" and not probe:
            return
        if record.failures >= BREAKER_THRESHOLD:
            if record.breaker != "open":
                record.opened += 1
            record.breaker = "open"
            record.open_until = now + backoff(record.failures - BREAKER_THRESHOLD, self._rng)

    def refused_draining(self, name: str, now: float) -> None:
        """The worker answered ``draining``: route nothing new to it."""
        self.workers[name].draining = True

    def pinged(self, name: str, now: float, ok: bool) -> None:
        """A health ping's outcome.  A pass ends any crash loop (restarts
        back off afresh); a failure counts against the breaker and asks
        for a restart once the backoff allows."""
        record = self.workers[name]
        record.ping_failed = not ok
        if ok:
            record.restart_attempts = 0
        else:
            self.failed(name, now)

    def exited(self, name: str, now: float) -> None:
        """The worker's connection is gone (the process died or was
        stopped)."""
        self.workers[name].alive = False

    def restarted(self, name: str, now: float) -> None:
        """A fresh process serves under ``name``: give it traffic."""
        record = self.workers[name]
        record.alive = True
        record.draining = False
        record.ping_failed = False
        record.restarts += 1
        self.restarts += 1
        self.replied(name, now, probe=True)  # whatever the breaker's state

    def drain_began(self, now: float) -> None:
        """The fleet is shutting down: restart nothing from now on."""
        self.draining = True

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def route(self, doc_hash: str, now: float) -> Iterator[tuple[str, bool]]:
        """The workers a query on ``doc_hash`` may try, best first, each
        as ``(name, probe)``.

        The ring's preference order minus dead, draining and open-breaker
        workers, and minus any half-open one whose probe is already out.
        Lazy on purpose: the caller asks for the next worker only after
        the previous one failed the request, so an open breaker whose
        delay has elapsed turns half-open — this request is its one
        probe, and ``probe`` is true — only when the probe is actually
        sent, and every worker after the first counts one reroute.  The
        caller passes ``probe`` back with the attempt's outcome.  ``now``
        is the instant the query arrived.
        """
        tried = False
        for name in self.ring.preference(doc_hash):
            record = self.workers[name]
            if not record.alive or record.draining or record.breaker == "half-open":
                continue
            probe = record.breaker == "open"
            if probe:
                if now < record.open_until:
                    continue
                record.breaker = "half-open"
            if tried:
                self.reroutes += 1
            tried = True
            yield name, probe

    def due_restarts(self, now: float) -> list[str]:
        """The workers to kill and respawn now: dead or failing their
        ping, and past their restart backoff.  Each one returned books
        an attempt, which pushes its next one out exponentially further.
        Empty once a drain has begun."""
        if self.draining:
            return []
        due = []
        for name, record in self.workers.items():
            if (record.alive and not record.ping_failed) or now < record.restart_at:
                continue
            record.restart_attempts += 1
            record.restart_at = now + backoff(record.restart_attempts, self._rng)
            due.append(name)
        return due

    def as_dict(self, now: float) -> dict:
        """JSON-shaped state for the ``fleet`` / ``metrics`` ops."""
        return {
            **{row.attribute: getattr(self, row.attribute) for row in self.FAMILIES},
            "workers": {
                name: {
                    "alive": record.alive,
                    "restarts": record.restarts,
                    "breaker": {
                        "state": record.breaker,
                        "consecutive_failures": record.failures,
                        "total_failures": record.total_failures,
                        "opened": record.opened,
                        "backoff_ms": round(
                            record.backoff_remaining(now) * 1000.0, 3
                        ),
                    },
                }
                for name, record in self.workers.items()
            },
        }

    def exposition(self, now: float) -> str:
        """The fleet's own Prometheus series (the ``prometheus`` op merges
        them with the workers'): restart / reroute / timeout totals plus
        per-worker restarts, liveness, breaker state and backoff."""
        out = Exposition("repro")
        out.scalars(self, self.FAMILIES)
        for family, kind, help_text, value in WORKER_FAMILIES:
            out.labelled(
                family, kind, help_text, "worker",
                ((name, value(r, now)) for name, r in self.workers.items()),
            )
        return out.render()
