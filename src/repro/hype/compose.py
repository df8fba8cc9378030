"""Wave-level automata composition: step a whole wave as ONE machine.

:class:`repro.serve.batch.BatchEvaluator` (PR 1) collapsed N document
traversals into one shared pass, and the dense kernel (PR 7) made each
lane's step a packed-int table read — but the shared pass still pays one
table lookup **per lane** at every node, so batch cost stays linear in
wave width.  This module builds the product/overlay construction (the
network-of-automata model the ROADMAP calls for): a
:class:`ComposedKernel` takes N :class:`repro.hype.core.CompiledPlan`
members and interns *tuples of per-lane configurations* into one dense
composed-cfg id space:

* a **ccfg** is an interned tuple ``(cfg_0, ..., cfg_{N-1})`` of member
  dense-kernel cfg ids (:mod:`repro.hype.kernel`); ccfg ``0`` is the
  all-dead tuple.  Per-ccfg push data — which lanes are live, their
  packed flag words and mstates — is computed once at mint time, so the
  hot loop advances *every* lane with **one** table lookup per child;
* the transition table closes over the **union alphabet** of the
  members, with the ``\\x00other`` aliasing preserved *per member*: a
  label in lane A's alphabet but not lane B's resolves lane B through
  its own OTHER column, so the composed table stays finite and (for the
  plain family) document-independent;
* pops are compiled **per composed cfg** the way the member kernels
  compile theirs: ``cpops[ccfg] = (preds, outcomes)`` gathers every
  popping member's node-dependent predicates, and one probe on the
  observed predicate bits (plus the frozen truths the children
  reported) yields a :class:`_Outcome` that resolves *every* member
  lane's bottom-up pop at that configuration — the cross-MFA memo
  sharing open since PR 3 (member state ids differ; composed ids do
  not).  A miss (:meth:`ComposedKernel.fill_pop`) resolves each member
  from its own kernel (:meth:`~repro.hype.kernel.DenseKernel.pop_quiet`
  / :meth:`~repro.hype.kernel.DenseKernel.pop_frame`), so nothing is
  computed twice across the wave.

Composed state spaces are products and can blow up, so interning is
capped (``max_ccfgs``): minting past the cap raises
:class:`ComposedOverflow`, and the caller
(:meth:`repro.serve.batch.BatchEvaluator.run`) falls back to per-lane
stepping for the group — counted in the batch stats and the service
metrics, never silently.

Per-lane answers and :class:`repro.hype.core.HyPEStats` are **identical**
to sequential runs: each member lane records into its own
:class:`repro.hype.core.RunCursor` exactly where its own automaton is
live (a lane dead in a ccfg component simply has no entry in the ccfg's
live list), and pops delegate to the member kernels' own machinery —
property-tested across all three algorithms.  Like the per-lane
descent, the composed pass walks a
:class:`repro.docstore.layout.DocumentLayout`'s columns and nothing
else (:func:`repro.docstore.layout.covering_layout`).

The composed pass is interpreted.  It beats the interpreted lean pass
stepped per lane and loses to the compiled one, so the service routes
waves here only in a process whose :data:`repro.hype.kernel.DESCENT`
is a fallback (:class:`repro.serve.service.QueryService`).

Composed tables live in memory only
(:class:`repro.serve.cache.ComposedCache`): a restarted process
recomposes them on its first wave.
"""

from __future__ import annotations

import threading
import time
from array import array

from ..docstore.layout import covering_layout
from ..faults import fire as _fault_fire
from ..guard import CHECK_INTERVAL
from .kernel import (
    CFG_SHIFT,
    DEAD,
    FINAL_BIT,
    OTHER_LABEL,
    POP_BIT,
    UNFILLED,
    _UNBUILT,
    _expired,
)

#: Default cap on interned composed configurations per kernel.  Products
#: of real view-query waves stay far below this; adversarial mixes hit
#: the cap and fall back to per-lane stepping.
DEFAULT_CCFG_CAP = 4096

#: Cap on memoised pop outcomes per composed cfg.  A member kernel's pop
#: table grows with the truth sets *one* lane observes; a composed key
#: combines every lane's, so a diverse corpus could mint a product of
#: them.  Past the cap a miss is resolved per member and not stored.
POP_OUTCOME_CAP = 512


class ComposeError(ValueError):
    """The members cannot form one composed machine (mixed families)."""


class ComposedOverflow(RuntimeError):
    """Interning would exceed ``max_ccfgs``; fall back to per-lane."""


class ComposedKernel:
    """Dense product tables over N member plans' kernels.

    Members must be one algorithm family: all index-free (plain HyPE),
    or all OptHyPE(-C) executables of one ``(label table, variant)`` —
    they read one mask column, that of the document the wave runs on —
    and mixed families raise :class:`ComposeError`.  Like the
    member kernels, every table is fill-only with entries that are pure
    functions of their key; only id minting takes the lock.
    """

    __slots__ = (
        "plans",
        "kerns",
        "width",
        "indexed",
        "alphabet",
        "max_ccfgs",
        "_lock",
        "ccfg_ids",
        "ccfg_tuples",
        "ccfg_live",
        "cpops",
        "trans",
        "cedge_ids",
        "cedge_lanes",
        "cedge_filters",
        "__weakref__",
    )

    def __init__(self, plans, max_ccfgs: int = DEFAULT_CCFG_CAP) -> None:
        if len(plans) < 2:
            raise ComposeError("composition needs at least two member plans")
        first = plans[0]
        for plan in plans:
            if (
                plan.bit_of is not first.bit_of
                or plan.compressed != first.compressed
            ):
                raise ComposeError(
                    "composed members must share one algorithm family: all "
                    "index-free, or all of one label table and index variant"
                )
        self.plans = list(plans)
        self.kerns = [plan.kernel for plan in plans]
        self.width = len(plans)
        self.indexed = first.bit_of is not None
        alphabet: set[str] = set()
        for kern in self.kerns:
            alphabet |= kern.alphabet
        self.alphabet = frozenset(alphabet)
        self.max_ccfgs = max_ccfgs
        self._lock = threading.Lock()
        # tuple of member cfg ids -> ccfg; parallel per-ccfg tables.
        dead = (DEAD,) * self.width
        self.ccfg_ids: dict = {dead: 0}
        self.ccfg_tuples: list = [dead]
        #: ccfg -> tuple of (lane_idx, member packed word, mstates) for
        #: the *live* components — everything a push needs, precomputed.
        self.ccfg_live: list = [()]
        #: ccfg -> composed pop table ``(preds, outcomes)``: every
        #: popping member's ``(bit, holds)`` predicates renumbered into
        #: one bit space, and ``bits`` — or ``(bits, truths)`` once
        #: children reported truths, a frozenset of ``(lane, watcher)``
        #: pairs — to the :class:`_Outcome` for all lanes.  Built on the
        #: ccfg's first pop, like the member kernels' tables.
        self.cpops: list = [_UNBUILT]
        # (ccfg, label) -> child ccfg (plain) / 0-or-ceid+1 (indexed),
        # for the union alphabet's labels and OTHER_LABEL only.
        self.trans: dict = {}
        # tuple of (lane_idx, member edge id) -> composed edge id.
        self.cedge_ids: dict = {}
        self.cedge_lanes: list = []
        # ceid -> {mask_key -> child ccfg}.
        self.cedge_filters: list[dict] = []

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def ccfg_of(self, cfgs: tuple) -> int:
        """The interned id of a member-cfg tuple (minted once, capped)."""
        ccfg = self.ccfg_ids.get(cfgs)
        if ccfg is not None:
            return ccfg
        kerns = self.kerns
        with self._lock:
            ccfg = self.ccfg_ids.get(cfgs)
            if ccfg is not None:
                return ccfg
            if len(self.ccfg_tuples) >= self.max_ccfgs:
                raise ComposedOverflow(
                    f"composed state space exceeds {self.max_ccfgs} cfgs"
                )
            ccfg = len(self.ccfg_tuples)
            live = tuple(
                (i, kerns[i].cfg_packed[cfg], kerns[i].cfg_mstates[cfg])
                for i, cfg in enumerate(cfgs)
                if cfg != DEAD
            )
            self.ccfg_tuples.append(cfgs)
            self.ccfg_live.append(live)
            self.cpops.append(_UNBUILT)
            # Publish last (same contract as the member kernels).
            self.ccfg_ids[cfgs] = ccfg
            return ccfg

    def cedge_of(self, lanes: tuple) -> int:
        """The composed edge id of per-lane pre-filter edges (indexed)."""
        ceid = self.cedge_ids.get(lanes)
        if ceid is not None:
            return ceid
        with self._lock:
            ceid = self.cedge_ids.get(lanes)
            if ceid is not None:
                return ceid
            ceid = len(self.cedge_lanes)
            self.cedge_lanes.append(lanes)
            self.cedge_filters.append({})
            self.cedge_ids[lanes] = ceid
            return ceid

    # ------------------------------------------------------------------
    # Transition resolution
    # ------------------------------------------------------------------
    def root_ccfg(self, key) -> int:
        """The composed cfg the wave enters its context with (``key``:
        the context's mask key, ``None`` for the plain family)."""
        cfgs = tuple(plan.kernel.root_cfg(plan, key) for plan in self.plans)
        if not any(cfgs):
            return 0
        return self.ccfg_of(cfgs)

    def lookup_trans(self, ccfg: int, label: str) -> int:
        """``(ccfg, label)``'s composed word, computing on miss.

        Labels outside the union alphabet resolve through — and are
        stored under — one OTHER column, and each member resolves *its
        own* aliasing inside :meth:`_compute_trans`, so a label known to
        some members and unknown to others advances each member exactly
        as its private table would.
        """
        if label not in self.alphabet:
            label = OTHER_LABEL
        key = (ccfg, label)
        word = self.trans.get(key)
        if word is None:
            word = self.trans[key] = self._compute_trans(ccfg, label)
        return word

    def _compute_trans(self, ccfg: int, label: str) -> int:
        cfgs = self.ccfg_tuples[ccfg]
        kerns = self.kerns
        plans = self.plans
        if self.indexed:
            lanes = []
            for i, cfg in enumerate(cfgs):
                if cfg == DEAD:
                    continue
                word = kerns[i].lookup_trans(plans[i], cfg, label)
                if word != DEAD:
                    lanes.append((i, word >> 1))
            if not lanes:
                return 0
            return self.cedge_of(tuple(lanes)) + 1
        child = [DEAD] * self.width
        any_live = False
        for i, cfg in enumerate(cfgs):
            if cfg == DEAD:
                continue
            packed = kerns[i].lookup_trans(plans[i], cfg, label)
            if packed != DEAD:
                child[i] = packed >> CFG_SHIFT
                any_live = True
        if not any_live:
            return 0
        return self.ccfg_of(tuple(child))

    def fill_filter(self, ceid: int, mask_key: int) -> int:
        """Resolve one composed ``edge × mask_key`` entry (OptHyPE)."""
        kerns = self.kerns
        child = [DEAD] * self.width
        any_live = False
        for i, eid in self.cedge_lanes[ceid]:
            kern = kerns[i]
            packed = kern.edge_filters[eid].get(mask_key, UNFILLED)
            if packed == UNFILLED:
                packed = kern.fill_filter(self.plans[i], eid, mask_key)
            if packed != DEAD:
                child[i] = packed >> CFG_SHIFT
                any_live = True
        ccfg = self.ccfg_of(tuple(child)) if any_live else 0
        self.cedge_filters[ceid][mask_key] = ccfg
        return ccfg

    # ------------------------------------------------------------------
    # Pops, compiled per composed cfg
    # ------------------------------------------------------------------
    def fill_pop(self, ccfg: int, columns, node_id: int, truths=None) -> "_Outcome":
        """The miss path of a composed pop at node ``node_id`` of
        ``columns`` (the wave's document): resolve every popping member
        from its own kernel and store the outcome."""
        cfgs = self.ccfg_tuples[ccfg]
        kerns = self.kerns
        plans = self.plans
        poppers = [
            i for i, packed, _m in self.ccfg_live[ccfg] if packed & POP_BIT
        ]
        entry = self.cpops[ccfg]
        if entry is _UNBUILT:
            holds = [
                holds
                for i in poppers
                for _bit, holds in kerns[i].pop_entry(plans[i], cfgs[i])[0]
            ]
            entry = self.cpops[ccfg] = (
                tuple((1 << n, h) for n, h in enumerate(holds)),
                {},
            )
        bits = 0
        for bit, holds in entry[0]:
            if holds(columns, node_id):
                bits |= bit
        entries = []
        reports = []
        for i in poppers:
            mine = truths and {w for lane, w in truths if lane == i}
            if mine:
                dead, report, resolved = kerns[i].pop_frame(
                    plans[i], cfgs[i], columns, node_id, mine
                )
            else:
                dead, report, resolved = kerns[i].pop_quiet(
                    plans[i], cfgs[i], columns, node_id
                )
            entries.append((i, dead, resolved))
            reports.extend((i, watcher) for watcher in report)
        outcome = _Outcome(tuple(entries), tuple(reports))
        if len(entry[1]) < POP_OUTCOME_CAP:
            entry[1][bits if truths is None else (bits, truths)] = outcome
        return outcome

    # ------------------------------------------------------------------
    # Gauges
    # ------------------------------------------------------------------
    @property
    def interned_ccfgs(self) -> int:
        """Interned composed configurations (the capped resource)."""
        return len(self.ccfg_tuples)


# ----------------------------------------------------------------------
# The composed descent: ONE machine stepping the whole wave
# ----------------------------------------------------------------------
class _CLane:
    """Per-member bound cursor methods and resolution tally."""

    __slots__ = (
        "deaths",
        "visit_ids",
        "ids_append",
        "parents_append",
        "mstates_append",
        "finals_append",
        "resolved",
    )

    def __init__(self, cursor) -> None:
        self.deaths = cursor.deaths
        self.visit_ids = cursor.visit_ids
        self.ids_append = cursor.visit_ids.append
        self.parents_append = cursor.visit_parents.append
        self.mstates_append = cursor.visit_mstates.append
        self.finals_append = cursor.finals_seen.append
        self.resolved = 0


class _Outcome:
    """One composed pop, resolved for every lane: ``entries`` holds a
    ``(lane, dead, resolved)`` per popping member, ``report`` the
    ``(lane, watcher)`` truths to tell the parent.  ``simple`` — no
    death, no report — pops are pure resolution counts: the descent
    tallies them per outcome (instances hash by identity) and applies
    the counts at writeback."""

    __slots__ = ("simple", "entries", "report")

    def __init__(self, entries: tuple, report: tuple) -> None:
        self.entries = entries
        self.report = report
        self.simple = not report and not any(dead for _i, dead, _r in entries)

    def apply(self, vidx, clanes) -> tuple:
        """Record deaths and resolution counts; returns the report."""
        for i, dead, resolved in self.entries:
            lane = clanes[i]
            if dead:
                lane.deaths[vidx[i]] = dead
            lane.resolved += resolved
        return self.report


def descend_composed(
    ck, cursors, context, layout=None, shared=None, deadline=None
) -> None:
    """Drive the whole wave down one pass of ONE composed machine.

    ``cursors`` is parallel to ``ck.plans`` — each member records into
    its own :class:`repro.hype.core.RunCursor`, so per-lane answers and
    stats are identical to sequential runs.  ``shared`` (a
    :class:`repro.serve.batch.BatchStats`-shaped object) accumulates the
    shared-pass visit/skip counters.  Raises :class:`ComposedOverflow`
    when interning passes the cap — the caller re-runs the group through
    the per-lane path with fresh cursors.  ``deadline`` arms the same
    amortized cancellation checkpoint as
    :func:`repro.hype.kernel.descend`: an expired deadline raises
    :class:`repro.errors.DeadlineError` mid-pass and the caller discards
    every member cursor (no partial answers).

    The loop has the shape of the kernel's lean pass with a ccfg where
    that has a cfg: the current frame lives in locals — ``vidx`` maps
    lane index to the lane's visit index at this node, ``tts`` is the
    lazily created set of ``(lane, watcher)`` truths its children
    reported — the stack holds one tuple per open ancestor, and
    childless elements are visited and popped inline.
    """
    _fault_fire("descend")
    layout, node = covering_layout(context, layout)
    for cursor in cursors:
        cursor.layout = layout
    # The members' one (label table, variant): one column serves them all.
    mask_keys = layout.mask_keys(ck.plans[0])
    width = ck.width
    clanes = [_CLane(cursor) for cursor in cursors]
    ccfg = ck.root_ccfg(None if mask_keys is None else mask_keys[node])
    if ccfg == 0:
        return
    ccfg_live = ck.ccfg_live
    vidx = [0] * width
    for i, packed, mstates in ccfg_live[ccfg]:
        cl = clanes[i]
        vidx[i] = len(cl.visit_ids)
        cl.ids_append(node)
        cl.parents_append(-1)
        cl.mstates_append(mstates)
        if packed & FINAL_BIT:
            cl.finals_append(vidx[i])
    labels = layout.table.labels
    rows = layout.table.rows_for(ck)
    blank = array("i", [UNFILLED]) * len(labels)
    kid_ids = layout.kid_ids
    kid_labels = layout.kid_labels
    kid_start = layout.kid_start
    columns = layout.columns  # what text() / position() filters read
    row = rows.get(ccfg)
    if row is None:
        row = rows.setdefault(ccfg, blank[:])
    ki = kid_start[node]
    kend = kid_start[node + 1]
    indexed = ck.indexed
    cedge_filters = ck.cedge_filters
    cpops = ck.cpops
    fill_pop = ck.fill_pop
    tts = None
    visited = 1
    skipped = 0
    # Outcome -> tally of effect-free pops (no deaths, no reports): one
    # dict bump replaces a per-lane loop; resolution counts are applied
    # per lane in the writeback sweep below.
    tally: dict = {}
    # ccfg -> element children examined under nodes visited in that ccfg
    # (every live lane examined them): per-lane ``skipped`` falls out at
    # writeback without re-walking the visit columns.
    kid_counts: dict = {ccfg: kend - ki}
    # ccfg -> per-live-lane push tuples with the cursor appends pre-bound
    # for THIS run (lane methods differ per run, ccfg structure doesn't).
    push_ops: dict = {}
    stack = []
    push = stack.append
    pop = stack.pop
    checks = CHECK_INTERVAL
    deadline_at = None if deadline is None else deadline.expires_at
    perf_counter = time.perf_counter
    while True:
        if deadline_at is not None:
            checks -= 1
            if checks < 0:
                checks = CHECK_INTERVAL
                if perf_counter() >= deadline_at:
                    raise _expired(deadline)
        if ki == kend:
            # Children done: pop every member lane (Fig. 6 lines 11-21)
            # from one table probe, then resume the parent.
            preds, outcomes = cpops[ccfg]
            bits = 0
            for bit, holds in preds:
                if holds(columns, node):
                    bits |= bit
            if tts is None:
                outcome = outcomes.get(bits) or fill_pop(ccfg, columns, node)
            else:
                truths = frozenset(tts)
                outcome = outcomes.get((bits, truths)) or fill_pop(
                    ccfg, columns, node, truths
                )
            if outcome.simple:
                tally[outcome] = tally.get(outcome, 0) + 1
                report = ()
            else:
                report = outcome.apply(vidx, clanes)
            if not stack:
                break
            node, ccfg, vidx, tts, row, ki, kend = pop()
            if report:
                if tts is None:
                    tts = set(report)
                else:
                    tts.update(report)
            continue
        lid = kid_labels[ki]
        child = kid_ids[ki]
        ki += 1
        word = row[lid]
        if word == UNFILLED:
            word = row[lid] = ck.lookup_trans(ccfg, labels[lid])
        if indexed and word:
            ceid = word - 1
            mask_key = mask_keys[child]
            word = cedge_filters[ceid].get(mask_key, UNFILLED)
            if word == UNFILLED:
                word = ck.fill_filter(ceid, mask_key)
        if word == 0:
            # Every member prunes: one skip for the whole wave.
            skipped += 1
            continue
        ki2 = kid_start[child]
        kend2 = kid_start[child + 1]
        vidx2 = [0] * width
        ops = push_ops.get(word)
        if ops is None:
            ops = push_ops[word] = tuple(
                (
                    i,
                    clanes[i].visit_ids,
                    clanes[i].ids_append,
                    clanes[i].parents_append,
                    clanes[i].mstates_append,
                    clanes[i].finals_append if packed & FINAL_BIT else None,
                    mstates,
                )
                for i, packed, mstates in ccfg_live[word]
            )
        for i, vn, na, pa, ma, fa, mstates in ops:
            vidx2[i] = len(vn)
            na(child)
            pa(vidx[i])
            ma(mstates)
            if fa is not None:
                fa(vidx2[i])
        visited += 1
        if ki2 == kend2:
            # Childless: no child can report a truth, so the pop is the
            # table probe, applied to the node still in hand.
            preds, outcomes = cpops[word]
            bits = 0
            for bit, holds in preds:
                if holds(columns, child):
                    bits |= bit
            outcome = outcomes.get(bits) or fill_pop(word, columns, child)
            if outcome.simple:
                tally[outcome] = tally.get(outcome, 0) + 1
            else:
                report = outcome.apply(vidx2, clanes)
                if report:
                    if tts is None:
                        tts = set(report)
                    else:
                        tts.update(report)
            continue
        kid_counts[word] = kid_counts.get(word, 0) + kend2 - ki2
        push((node, ccfg, vidx, tts, row, ki, kend))
        node = child
        ccfg = word
        vidx = vidx2
        tts = None
        ki = ki2
        kend = kend2
        row = rows.get(word)
        if row is None:
            row = rows.setdefault(word, blank[:])
    if shared is not None:
        shared.visited_elements += visited
        shared.skipped_subtrees += skipped
    # Writeback — the composed machine keeps no per-lane prune counters
    # (a prune is per member, a step is per wave): a lane skipped what it
    # examined and did not visit.
    for outcome, count in tally.items():
        for i, _dead, resolved in outcome.entries:
            clanes[i].resolved += resolved * count
    examined = [0] * width
    for pc, count in kid_counts.items():
        for i, _packed, _mstates in ccfg_live[pc]:
            examined[i] += count
    for i, cursor in enumerate(cursors):
        visited = len(cursor.visit_ids)
        if not visited:
            continue
        cursor.visited = visited
        cursor.skipped = examined[i] - (visited - 1)
        cursor.cans_vertices = sum(map(len, cursor.visit_mstates))
        cursor.stats.afa_states_resolved += clanes[i].resolved
