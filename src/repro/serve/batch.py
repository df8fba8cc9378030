"""Batched HyPE: N plans evaluated over one document as one wave.

Sequential serving runs one :class:`repro.hype.core.CompiledPlan` pass
per query.  The batch evaluator takes the wave whole: each automaton is
a *lane* carrying its own ``mstates``/``fstates`` cursor, and every lane
runs :func:`repro.hype.kernel.descend`'s lean pass on its own, one lane
after another — the SAME code a sequential
:meth:`repro.hype.core.CompiledPlan.run` drives with one lane.  (Lanes
were once multiplexed through one traversal, which measured slower, and
later stepped as one composed product machine, which lost to the
compiled lean pass; both are gone.)

Correctness: a lane steps its plan's dense kernel only at nodes where
it is itself live, calls the same transition/pop machinery, and records
its own cans DAG into its own :class:`repro.hype.core.RunCursor` —
exactly the state the sequential run would build.  So per-lane answers
*and* per-lane statistics (visited, skipped, gate failures) are
identical to N sequential runs, and :class:`BatchStats` sums them: a
wave visits what its lanes visit.

Sharing: lanes are :class:`CompiledPlan` objects, so two lanes given the
*same* plan object (e.g. the same view query admitted for two tenants)
fill and read one set of memo tables, and the tables stay warm across
batches and across the service's worker pool — plans are thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hype.core import CompiledPlan, HyPEResult, RunCursor
from ..hype.kernel import descend
from ..xtree.node import Node


@dataclass
class BatchStats:
    """Counters of one wave (per-lane stats live on each result).

    Every lane runs its own pass, so the wave's ``visited_elements`` is
    the sum of its lanes' visits; ``sequential_visited`` is what the
    wave's *requests* would have cost one by one, which is more only
    where the service gave two requests one lane (one plan).
    """

    #: Lanes in the batch (live or not at the root).
    lanes: int = 0
    #: Elements the wave's passes visited: the sum over its lanes.
    visited_elements: int = 0
    #: Sum of per-request visited elements == cost of N sequential passes.
    sequential_visited: int = 0
    #: Inert, reads 0: only the frozen end-to-end harness reads it.
    composed_fallbacks = property(lambda self: 0)

    def merge(self, other: "BatchStats") -> None:
        """Add another pass's counters into this one."""
        self.lanes += other.lanes
        self.visited_elements += other.visited_elements
        self.sequential_visited += other.sequential_visited

    @property
    def saved_visits(self) -> int:
        """Element visits requests sharing one lane did not repeat."""
        return self.sequential_visited - self.visited_elements


@dataclass
class BatchResult:
    """Per-lane results (input order) plus the shared-pass counters."""

    results: list[HyPEResult]
    stats: BatchStats = field(default_factory=BatchStats)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


class BatchEvaluator:
    """Evaluate many compiled plans over one document in a single pass.

    Takes :class:`repro.hype.core.CompiledPlan` lanes only — plans may
    mix plain HyPE and OptHyPE (index-equipped) freely since each lane
    prunes with its own machinery, and one plan object may back several
    lanes (its memo tables are shared and thread-safe).  Passing a raw
    MFA was deprecated with the plan/run-state split: compile it first.

    ``groups`` and ``composer`` are inert: accepted and ignored, for the
    frozen end-to-end harness (every lane steps per lane).
    """

    def __init__(self, plans: list[CompiledPlan], *, groups=None, composer=None) -> None:
        if not plans:
            raise ValueError("BatchEvaluator needs at least one plan")
        for plan in plans:
            if not isinstance(plan, CompiledPlan):
                raise TypeError(
                    "BatchEvaluator takes CompiledPlan lanes only since the "
                    "plan/run-state split; wrap the automaton first: "
                    f"CompiledPlan(mfa) — got {type(plan).__name__!r}"
                )
        self.plans = list(plans)

    # ------------------------------------------------------------------
    def run(self, context: Node | int, layout=None, deadline=None) -> BatchResult:
        """Evaluate every lane's ``context[[M]]`` as one wave.

        ``context`` is a node, or a node id of ``layout``'s document
        (``0``: its root).  Every pass walks the columns of ``layout``
        (the context document's
        :class:`repro.docstore.layout.DocumentLayout`) —
        flat kid spans and per-cfg ``array('i')`` transition rows per
        lane; without one, or with one that does not cover ``context``,
        the wave builds fresh columns from the context's document once
        (:func:`repro.docstore.layout.covering_layout`) — callers that
        serve a document twice pass their
        :class:`repro.docstore.document.IndexedDocument`'s.  Either way
        the pass is the one shared :func:`repro.hype.kernel.descend`
        loop, and per-lane answers and stats are identical to N
        sequential runs.  A lane dead at the root never enters the pass
        (the sequential run returns the all-zero result immediately).

        ``deadline`` (a :class:`repro.guard.Deadline`) arms the kernel's
        cooperative cancellation checkpoint: an expired pass raises
        :class:`repro.errors.DeadlineError` and the batch's local cursors
        are discarded with it, so no partial answer can escape.
        """
        stats = BatchStats(lanes=len(self.plans))
        cursors = [RunCursor(plan) for plan in self.plans]
        descend(list(zip(self.plans, cursors)), context, layout, deadline=deadline)
        results = [cursor.finish() for cursor in cursors]
        stats.visited_elements = stats.sequential_visited = sum(
            r.stats.visited_elements for r in results
        )
        return BatchResult(results, stats)
