"""Deterministic fault injection at the seams the stack already owns.

A :class:`FaultPlan` is a seeded, explicit schedule of faults to fire at
named **injection points** — places the serving stack already passes
through on every request, instrumented with one probe each:

==============================  ================================================
point                           seam
==============================  ================================================
``plan-store.load``             :meth:`repro.compile.store.PlanStore.load` —
                                I/O delay, artifact corruption
``plan-store.save``             ``PlanStore.save`` — I/O delay, write failure
                                (``drop``)
``doc-tier.load``               :meth:`repro.docstore.store.DocIndexTier.load`
                                — I/O delay, corruption of a document's one
                                index record (both variants)
``doc-tier.save``               ``DocIndexTier.save`` — write failure (the
                                record is written once, by the first variant)
``doc-tier.load-layout``        ``DocIndexTier.load_layout`` — as ``load``,
                                for the layout sidecar
``doc-tier.save-layout``        ``DocIndexTier.save_layout`` — as ``save``
``worker.message``              every request line a frontend (so every fleet
                                worker) dispatches (:meth:`repro.serve.
                                frontend.QueryFrontend.reply_for`) — crash
                                (``os._exit``) and hang
``worker.connect``              :meth:`repro.serve.fleet.WorkerHandle.call` on
                                the acceptor side — connection drop before
                                send (the unacknowledged-retry path)
``descend``                     every descent entry: per-lane
                                (:func:`repro.hype.kernel.descend`) and composed
                                (:func:`repro.hype.compose.descend_composed`)
                                — slow descent (exercises deadlines under load)
==============================  ================================================

The six file points are one probe each in :class:`repro.tier.FileTier`
— ``read`` fires its point once the bytes are in hand (never for a
missing file) and ``write`` on every call; the point's name is an
argument, so a file I/O site cannot be added without one
(``tests/test_serve_structure.py`` holds file I/O to that module).

Schedules are **deterministic**: a rule names the exact 1-based hit
numbers it fires on (``hits=[2, 5]``), or a modulus (``every=3`` — every
third hit, optionally the first ``limit`` times).  Two runs of the same
plan over the same traffic fire identically; the chaos smoke
(``make chaos-smoke``) relies on this to assert exact structured
outcomes under a crash + hang + delay + corruption schedule.

Activation: :func:`install` in-process, or the ``REPRO_FAULTS``
environment variable (the JSON of :meth:`FaultPlan.as_dict`) — fleet
workers inherit the acceptor's environment, so one variable faults a
whole fleet.  **Inert by default**: with no plan installed every probe
is a single module-global ``None`` check.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass

#: Actions a rule may take.  ``delay``/``hang`` sleep for
#: ``seconds`` (a hang is just a delay long enough to trip timeouts);
#: ``corrupt``, ``crash`` and ``drop`` are interpreted by the seam:
#: corrupt mangles the payload being read, crash is ``os._exit``, drop
#: raises the seam's connection error.
ACTIONS = ("delay", "hang", "corrupt", "crash", "drop")


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault: *what* fires, *where*, and on *which hits*.

    ``hits`` (exact 1-based hit numbers) and ``every`` (modulus) are
    alternative triggers; with neither, the rule fires on every hit.
    ``limit`` caps total firings (0 = unlimited).  ``scope`` restricts
    the rule to one named process (a fleet worker's name, set via
    :func:`set_scope`); empty matches every process — the lever that
    lets ONE shared ``REPRO_FAULTS`` schedule crash worker ``w0`` while
    only hanging ``w1``.
    """

    point: str
    action: str
    hits: tuple[int, ...] = ()
    every: int = 0
    limit: int = 0
    seconds: float = 0.0
    scope: str = ""

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; one of {ACTIONS}"
            )
        if self.every < 0 or self.limit < 0 or self.seconds < 0:
            raise ValueError("fault rule fields must be non-negative")

    def matches(self, hit: int, fired: int) -> bool:
        """Whether hit number ``hit`` fires, given ``fired`` prior firings."""
        if self.limit and fired >= self.limit:
            return False
        if self.hits:
            return hit in self.hits
        if self.every:
            return hit % self.every == 0
        return True

    def as_dict(self) -> dict:
        return {
            "point": self.point,
            "action": self.action,
            "hits": list(self.hits),
            "every": self.every,
            "limit": self.limit,
            "seconds": self.seconds,
            "scope": self.scope,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        return cls(
            point=str(data["point"]),
            action=str(data["action"]),
            hits=tuple(int(h) for h in data.get("hits", ())),
            every=int(data.get("every", 0)),
            limit=int(data.get("limit", 0)),
            seconds=float(data.get("seconds", 0.0)),
            scope=str(data.get("scope", "")),
        )


class FaultPlan:
    """A thread-safe, seeded schedule of :class:`FaultRule` firings.

    ``seed`` identifies the schedule (it is echoed through logs and the
    chaos smoke's output); determinism comes from the explicit hit
    schedules, not from randomness at fire time.
    """

    def __init__(self, rules, seed: int = 0) -> None:
        self.rules = tuple(rules)
        self.seed = seed
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}
        self._fired: dict[int, int] = {}

    # ------------------------------------------------------------------
    def fire(self, point: str, scope: str = "") -> FaultRule | None:
        """Count one hit at ``point``; the rule that fires, or ``None``.

        At most one rule fires per hit (first match in plan order), so a
        schedule stays readable: rules for one point are disjoint by
        construction when their ``hits`` lists are.  ``scope`` is the
        calling process's name; scoped rules only fire when it matches
        (unmatched scoped rules still consume the hit number, keeping
        hit counts identical across differently-named processes).
        """
        with self._lock:
            hit = self._hits.get(point, 0) + 1
            self._hits[point] = hit
            for idx, rule in enumerate(self.rules):
                if rule.point != point:
                    continue
                if rule.scope and rule.scope != scope:
                    continue
                if rule.matches(hit, self._fired.get(idx, 0)):
                    self._fired[idx] = self._fired.get(idx, 0) + 1
                    return rule
            return None

    def hits(self, point: str) -> int:
        """Total probe hits recorded at ``point``."""
        with self._lock:
            return self._hits.get(point, 0)

    def fired_counts(self) -> dict[str, int]:
        """``{point: firings}`` over every rule (the smoke's evidence)."""
        with self._lock:
            counts: dict[str, int] = {}
            for idx, n in self._fired.items():
                point = self.rules[idx].point
                counts[point] = counts.get(point, 0) + n
            return counts

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "rules": [rule.as_dict() for rule in self.rules],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            [FaultRule.from_dict(r) for r in data.get("rules", ())],
            seed=int(data.get("seed", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


#: The env var carrying a plan's JSON.  Fleet workers inherit the
#: acceptor's environment, so exporting it faults every process.
ENV_VAR = "REPRO_FAULTS"

#: The installed plan; ``None`` keeps every probe a single global read.
_active: FaultPlan | None = None

#: This process's name for scoped rules (a fleet worker sets its worker
#: name; empty everywhere else).
_scope: str = ""


def install(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` process-wide (``None`` uninstalls); returns it."""
    global _active
    _active = plan
    return plan


def set_scope(name: str) -> None:
    """Name this process for ``FaultRule.scope`` matching."""
    global _scope
    _scope = name


def active() -> FaultPlan | None:
    return _active


def install_from_env(environ=None) -> FaultPlan | None:
    """Install the :data:`ENV_VAR` plan if set (malformed JSON raises)."""
    raw = (environ if environ is not None else os.environ).get(ENV_VAR)
    if not raw:
        return None
    return install(FaultPlan.from_json(raw))


def fire(point: str) -> FaultRule | None:
    """The probe call sites use: one ``None`` check when no plan is on.

    Sleeping actions (``delay``/``hang``) sleep *here*, so seams only
    interpret the payload-shaped actions (corrupt/crash/drop) they own;
    the rule is returned either way for seams that also want to count.
    """
    plan = _active
    if plan is None:
        return None
    rule = plan.fire(point, _scope)
    if rule is not None and rule.seconds and rule.action in ("delay", "hang"):
        time.sleep(rule.seconds)
    return rule


# Import-time env activation: a subprocess (fleet worker, CLI) that
# imports repro with REPRO_FAULTS exported starts faulted without any
# plumbing.  A malformed value must not take the process down — it is
# ignored (the chaos harness always writes well-formed plans).
try:  # pragma: no cover - exercised via subprocess in the chaos smoke
    install_from_env()
except (ValueError, KeyError, TypeError):  # pragma: no cover
    _active = None
