"""Batched HyPE: N plans evaluated over one document as one wave.

Sequential serving runs one :class:`repro.hype.core.CompiledPlan` pass
per query.  The batch evaluator takes the wave whole: each automaton is
a *lane* carrying its own ``mstates``/``fstates`` cursor, and every lane
runs :func:`repro.hype.kernel.descend`'s lean pass on its own, the SAME
code a sequential :meth:`repro.hype.core.CompiledPlan.run` drives with
one lane — except the groups the caller names, whose lanes are stepped
together down a *single* depth-first pass by :mod:`repro.hype.compose`
(a subtree is descended iff **at least one** lane keeps live states for
it).  The composed machine is interpreted: it saves work over the
interpreted lean pass and costs time against the compiled one, so
:class:`repro.serve.service.QueryService` names groups only in a process
that runs the Python lean pass.  (The per-lane lanes were once also
multiplexed through one traversal; once the lean pass existed that
measured slower than running them one after the other, so it is gone.)

Correctness: a lane steps its plan's dense kernel only at nodes where
it is itself live, calls the same transition/pop machinery, and records
its own cans DAG into its own :class:`repro.hype.core.RunCursor` —
exactly the state the sequential run would build.  So per-lane answers
*and* per-lane statistics (visited, skipped, gate failures) are
identical to N sequential runs; :class:`BatchStats` adds what the wave
has in common — the union of the lanes' visits against their sum.

Sharing: lanes are :class:`CompiledPlan` objects, so two lanes given the
*same* plan object (e.g. the same view query admitted for two tenants)
fill and read one set of memo tables, and the tables stay warm across
batches and across the service's worker pool — plans are thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..docstore.layout import covering_layout
from ..hype.compose import ComposedKernel, ComposeError, ComposedOverflow, descend_composed
from ..hype.core import CompiledPlan, HyPEResult, RunCursor
from ..hype.kernel import descend
from ..xtree.node import Node


@dataclass
class BatchStats:
    """Counters of the *shared* pass (per-lane stats live on each result).

    The batch makes one pass per composed group plus one per-lane pass
    for the leftovers, and ``visited_elements``/``skipped_subtrees`` sum
    over those passes.  A composed group really traverses only these
    elements; for the per-lane leftovers they are the union of the
    lanes' visit sets — the traversal a shared pass would make.
    """

    #: Lanes in the batch (live or not at the root).
    lanes: int = 0
    #: Elements the shared pass visited (unique nodes with >= 1 live lane).
    visited_elements: int = 0
    #: Subtrees skipped because *no* lane kept live states.
    skipped_subtrees: int = 0
    #: Sum of per-lane visited elements == cost of N sequential passes.
    sequential_visited: int = 0
    #: Groups stepped as ONE composed machine this batch.
    composed_groups: int = 0
    #: Lanes advanced by a composed kernel (the rest step per-lane).
    composed_lanes: int = 0
    #: Groups that hit the ccfg cap mid-wave and re-ran per-lane.
    composed_fallbacks: int = 0

    def merge(self, other: "BatchStats") -> None:
        """Add another pass's (or group's) counters into this one."""
        self.lanes += other.lanes
        self.visited_elements += other.visited_elements
        self.skipped_subtrees += other.skipped_subtrees
        self.sequential_visited += other.sequential_visited
        self.composed_groups += other.composed_groups
        self.composed_lanes += other.composed_lanes
        self.composed_fallbacks += other.composed_fallbacks

    @property
    def saved_visits(self) -> int:
        """Element visits shared between lanes: avoided outright inside
        composed groups, overlap between the passes of per-lane lanes."""
        return self.sequential_visited - self.visited_elements


@dataclass
class BatchResult:
    """Per-lane results (input order) plus the shared-pass counters.

    ``composed`` holds the lane indices that were actually advanced by a
    composed kernel this run (a group that fell back past the ccfg cap
    contributes none), keyed so callers can attribute per-request trace
    spans to the path that really served them.
    """

    results: list[HyPEResult]
    stats: BatchStats = field(default_factory=BatchStats)
    composed: frozenset = frozenset()

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

    ``groups`` (lists of lane indices, disjoint, each >= 2 lanes) routes
    those lanes through ONE :class:`repro.hype.compose.ComposedKernel`
    pass — the caller (the service) groups by (view fingerprint,
    algorithm, document) so members share state structure.  ``composer``
    optionally supplies the kernel for a member list (the service's
    composed-cache hook); without it a throwaway kernel is built per
    run.  A group that overflows the ccfg cap mid-wave discards its
    partial cursors and re-runs per-lane — counted in
    ``BatchStats.composed_fallbacks``, and per-lane answers/stats stay
    identical either way.
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
        self.composer = composer
        self.groups: list[tuple[int, ...]] = []
        if groups:
            seen: set[int] = set()
            for group in groups:
                members = tuple(group)
                if len(members) < 2:
                    continue  # nothing to compose; lane steps per-lane
                for idx in members:
                    if not 0 <= idx < len(self.plans):
                        raise ValueError(f"composed group index {idx} out of range")
                    if idx in seen:
                        raise ValueError(f"lane {idx} appears in two composed groups")
                    seen.add(idx)
                self.groups.append(members)

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
        :class:`repro.docstore.document.IndexedDocument`'s.  Either way the pass is the one shared
        :func:`repro.hype.kernel.descend` loop, and per-lane answers and
        stats are identical to N sequential runs.  A lane dead at the
        root never enters the pass (the sequential run returns the
        all-zero result immediately).

        ``deadline`` (a :class:`repro.guard.Deadline`) arms the kernel's
        cooperative cancellation checkpoint: an expired pass raises
        :class:`repro.errors.DeadlineError` and the batch's local cursors
        are discarded with it, so no partial answer can escape.
        """
        layout, root = covering_layout(context, layout)
        stats = BatchStats(lanes=len(self.plans))
        cursors = [RunCursor(plan) for plan in self.plans]
        leftover = set(range(len(self.plans)))
        composed_lanes: set[int] = set()
        for group in self.groups:
            members = [self.plans[i] for i in group]
            try:
                if self.composer is not None:
                    kernel = self.composer(members)
                else:
                    kernel = ComposedKernel(members)
            except ComposeError:
                continue  # mixed family slipped through grouping: per-lane
            except ComposedOverflow:
                stats.composed_fallbacks += 1
                continue
            pass_stats = BatchStats(composed_groups=1, composed_lanes=len(group))
            try:
                descend_composed(
                    kernel,
                    [cursors[i] for i in group],
                    root,
                    layout,
                    shared=pass_stats,
                    deadline=deadline,
                )
            except ComposedOverflow:
                # The product blew past the ccfg cap mid-wave: discard the
                # partial cursors and let the group re-run per-lane below.
                stats.composed_fallbacks += 1
                for i in group:
                    cursors[i] = RunCursor(self.plans[i])
                continue
            stats.merge(pass_stats)
            composed_lanes.update(group)
            leftover.difference_update(group)
        if leftover:
            lanes = [(self.plans[i], cursors[i]) for i in sorted(leftover)]
            descend(lanes, root, layout, shared=stats, deadline=deadline)
        results = [cursor.finish() for cursor in cursors]
        stats.sequential_visited = sum(r.stats.visited_elements for r in results)
        return BatchResult(results, stats, frozenset(composed_lanes))
