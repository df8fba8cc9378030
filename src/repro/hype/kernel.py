"""The dense automaton kernel: one flat int-array descent for all paths.

PR 5's interned columnar loop still carried a 9-slot tuple per cached
child transition and re-derived flags (`has_final`, `has_ann`, the pop
condition) per visit.  This module compiles each
:class:`repro.hype.core.CompiledPlan` one level further, into a *dense
transition table* over interned run configurations:

* a **cfg** is an interned ``(mstates, relevant, watch)`` triple — the
  complete automaton-side state of one descent frame.  Cfg ``0`` is the
  dead configuration.  Per-cfg flags are computed once at mint time and
  packed into the transition word, so the hot loop never touches a set:

  ``packed = (cfg << 2) | has_final | (pop_needed << 1)``

  ``packed == 0`` ⇔ dead (prune the subtree for this lane); ``-1`` marks
  an unfilled slot in the per-label-table ``array('i')`` rows.
* plain-HyPE transitions resolve ``(cfg, label) -> packed`` directly;
  index-equipped plans (OptHyPE/-C) resolve ``(cfg, label) -> edge`` —
  an interned ``(base, relevant, watch)`` pre-filter triple — and then
  ``edge × mask_key -> packed`` through the per-edge filter row, which
  caches the *post*-filter flags too.  The mask key is read from the
  mask column of the document the run is over
  (:meth:`repro.docstore.layout.DocumentLayout.mask_keys`); an
  executable owns no index.
* per label table, each cfg is bound to an ``array('i')`` row indexed
  by interned label id (kept in the weak-key row cache of
  :class:`repro.hype.index.LabelTable`, shared by every document of that
  label set), so a visit is one C-array read plus two shifts.

Labels the automaton does not distinguish — anything outside the MFA's
transition alphabet — all share one ``OTHER`` column per cfg: an unseen
label can only take wildcard moves, so its transition is independent of
the label text.  That makes the table *finite and document-independent*,
which is what lets :func:`close` close it eagerly — in place, in the
index-free plan that then serves HyPE on every document — and
:meth:`DenseKernel.seed` fill every other executable of the same MFA
from it.  The closure is a pure function of the automaton, so it is
never persisted: a :class:`repro.compile.artifact.PlanArtifact` carries
the MFA alone, and a plan decoded from a store or a peer is closed again
on its first executable build.

Ownership runs one way: a plan owns its kernel and the kernel holds no
reference back.  The slow paths that need the automaton (transition and
pop misses, seeding) take the plan as their first argument — every
lane holds its plan for the run anyway — so a plan dropped by the cache
is freed by reference count, not by the cycle collector.

The descent — :func:`descend` — is the **single** entry point behind
both :meth:`repro.hype.core.CompiledPlan.run` (a one-lane batch) and
:class:`repro.serve.batch.BatchEvaluator` (N lanes), and it has a
single algorithm: the *lean pass*, run once per live lane.  The lean
pass keeps the current frame — node, visit index, cfg, its
``array('i')`` row, the truths its children reported, the child cursor
— in locals, pushes one tuple of those per visited element that has
element children and pops childless elements inline.  It exists twice:
:func:`_descend_lane_py` is the reference, and ``_lean.c`` the same
pass compiled.  The same extension carries phase 2
(:meth:`repro.hype.core.CompiledPlan._collect_answers_py`, compiled)
and the *cold path* — what a never-seen plan pays before its tables
are warm: the dense closure (:func:`close` runs it; :func:`_close_py`
is its reference) and the pop fills (:meth:`DenseKernel.fill_pop`'s
reference, with :meth:`~repro.hype.core.CompiledPlan._relevant_plan`,
``_resolve``, ``_compute_dead`` and ``AFAPool._analyze`` under it).
Both build the Python objects the references build, and both keep one
rule: order is by state id; contents decide.  A cfg's watch tuple, its
predicate bits and the resolved values walk their state sets in
ascending id, and sets and cfgs are minted in a fixed order, so every
table entry is a function of set contents, never of how a
set object was built.  :mod:`repro.native` builds the extension on
first import; :data:`DESCENT` records which passes this process runs
(``"compiled"``, or ``"python: <reason>"``), and :func:`descend` and
:func:`close` follow it.

In a compiled process every table's hit path runs in C, a row miss
whose transition the closure already holds included, and so does a
pop miss.  What still calls the Python code here: a transition the
table lacks (:meth:`DenseKernel.lookup_trans` — a cfg past a truncated
closure, or one an OptHyPE filter minted), every OptHyPE filter miss
(:meth:`DenseKernel.fill_filter` → ``_apply_index`` and the viability
analyzer), the root cfg (:meth:`DenseKernel.root_cfg`), the
predicates' ``holds``, a pop fill over more than 63 finals or of an
automaton with a NOT in an ε-cycle (the reference raises), and the
clock.
A wave's lanes are stepped one after the other (stepping them together
through one multiplexed loop measured slower at every width), and a
wave's counters are its lanes' own: no pass is shared, so none is
reported.
The document the pass walks is always a
:class:`~repro.docstore.layout.DocumentLayout`'s columns — the caller's
when it covers the context, fresh ones otherwise
(:func:`repro.docstore.layout.covering_layout`).

The pop side is compiled like the push side: ``pops[cfg] = (preds,
outcomes)`` holds the cfg's node-dependent predicates and, per observed
predicate-bit pattern, the finished ``(dead, report, resolved)`` of the
bottom-up resolution — so a pop that heard no truth from its children
is "evaluate the predicates, one dict probe, apply", inline in the lean
pass.  Only pops whose children reported truths enter
:meth:`DenseKernel.pop_frame`, which memoises on the truth set in the
same table.

Thread safety follows the plan contract: cfg/edge minting is
lock-guarded (ids must be unique), every other table is fill-only with
entries that are pure functions of their key, so lost races cost
duplicated work, never wrong answers.
"""

from __future__ import annotations

import logging
import threading
import time
from array import array
from types import MappingProxyType

from ..docstore.layout import covering_layout
from ..errors import DeadlineError
from ..faults import fire as _fault_fire
from ..guard import CHECK_INTERVAL
from .. import native

#: Flag bits of a packed transition word (see module docstring).
FINAL_BIT = 1
POP_BIT = 2
CFG_SHIFT = 2

#: The dead configuration's id — and, conveniently, its packed word.
DEAD = 0

#: Sentinel for unfilled slots in the per-label-table ``array('i')`` rows.
UNFILLED = -1

#: Alias column for labels outside the automaton's transition alphabet.
#: NUL is illegal in XML names, so no document label collides with it.
OTHER_LABEL = "\x00other"

#: The pop table of a cfg that has not popped yet, shared and never
#: written: every probe misses, so building the real entry is part of
#: the miss path (:meth:`DenseKernel.fill_pop`) instead of a branch in
#: the loops — and a plan that is compiled but rarely run keeps no
#: per-cfg tables alive.
_UNBUILT = ((), MappingProxyType({}))


class DenseKernel:
    """Dense transition tables of one :class:`CompiledPlan`.

    Built empty with the plan and filled lazily — or eagerly: closed in
    place (:func:`close`) or seeded from a closed kernel
    (:meth:`seed`); shared by every run and lane of the plan, across
    threads.
    """

    __slots__ = (
        "finals",
        "ann",
        "alphabet",
        "closure",
        "_lock",
        "cfg_ids",
        "cfg_mstates",
        "cfg_relevant",
        "cfg_watch",
        "cfg_m",
        "cfg_r",
        "cfg_has_ann",
        "cfg_packed",
        "roots",
        "pops",
        "trans",
        "edge_ids",
        "edge_base",
        "edge_base_id",
        "edge_relevant",
        "edge_r",
        "edge_watch",
        "edge_filters",
        "flat",
        "__weakref__",
    )

    def __init__(self, plan) -> None:
        from ..automata.afa import TRANS, WILDCARD

        nfa = plan.mfa.nfa
        # What the per-cfg flags need of the automaton (not the plan).
        self.finals = nfa.finals
        self.ann = nfa.ann
        labels = nfa.alphabet()
        for holder in plan.mfa.pool.states:
            if holder.kind == TRANS and holder.label != WILDCARD:
                labels.add(holder.label)
        labels.discard(WILDCARD)
        #: Labels with their own transition column; everything else
        #: aliases to :data:`OTHER_LABEL`.
        self.alphabet = frozenset(labels)
        #: :func:`close`'s record; ``None`` until the table is closed.
        self.closure = None
        self._lock = threading.Lock()
        # (m_id, r_id, watch) -> cfg id; parallel per-cfg tables below.
        self.cfg_ids: dict = {}
        self.cfg_mstates: list = []
        self.cfg_relevant: list = []
        self.cfg_watch: list = []
        self.cfg_m: list[int] = []
        self.cfg_r: list[int] = []
        self.cfg_has_ann: list[bool] = []
        self.cfg_packed: list[int] = []
        # Root mask key (``None`` in an index-free plan, whose root is a
        # constant) -> the cfg a run enters its context with.
        self.roots: dict = {}
        # cfg -> pop table ``(preds, outcomes)``: ``preds`` pairs a bit
        # with the bound ``holds`` of each node-dependent predicate of
        # the cfg's relevant set; ``outcomes`` maps the predicate bits
        # observed at a node — ``(bits, truths)`` once children reported
        # truths — to the pop's ``(dead, report, resolved)``.  Built on
        # the cfg's first pop (:data:`_UNBUILT` until then).
        self.pops: list = []
        # (cfg, label) -> packed word (plain) or edge word (indexed),
        # for the alphabet's labels and OTHER_LABEL only.
        self.trans: dict = {}
        # (base_id, r_id, watch) -> edge id; parallel per-edge tables.
        self.edge_ids: dict = {}
        self.edge_base: list = []
        self.edge_base_id: list[int] = []
        self.edge_relevant: list = []
        self.edge_r: list[int] = []
        self.edge_watch: list = []
        # edge id -> {mask_key -> packed word}: a function of the mask
        # key in the executable's label table, whichever document of
        # that label set the key was read from.
        self.edge_filters: list[dict] = []
        #: The compiled cold path's flat automaton (``None`` until the
        #: first compiled closure or pop miss builds it; shared by the
        #: plans of one MFA through :meth:`seed`).
        self.flat = None
        empty, empty_id = plan._intern(frozenset())
        assert self.cfg_of(empty, empty_id, empty, empty_id, ()) == DEAD

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def cfg_of(self, mstates, m_id, relevant, r_id, watch) -> int:
        """The cfg id of ``(mstates, relevant, watch)`` (minted once)."""
        key = (m_id, r_id, watch)
        cfg = self.cfg_ids.get(key)
        if cfg is not None:
            return cfg
        with self._lock:
            cfg = self.cfg_ids.get(key)
            if cfg is not None:
                return cfg
            cfg = len(self.cfg_packed)
            has_final = bool(mstates & self.finals)
            ann = self.ann
            has_ann = any(s in ann for s in mstates)
            pop_needed = bool(relevant) and bool(watch or has_ann)
            packed = (cfg << CFG_SHIFT) | (FINAL_BIT if has_final else 0)
            if pop_needed:
                packed |= POP_BIT
            self.cfg_mstates.append(mstates)
            self.cfg_relevant.append(relevant)
            self.cfg_watch.append(watch)
            self.cfg_m.append(m_id)
            self.cfg_r.append(r_id)
            self.cfg_has_ann.append(has_ann)
            self.cfg_packed.append(packed)
            self.pops.append(_UNBUILT)
            # Publish last: readers only index the tables by ids they
            # obtained from this dict.
            self.cfg_ids[key] = cfg
            return cfg

    def edge_of(self, base, base_id, relevant, r_id, watch) -> int:
        """The pre-filter edge id of ``(base, relevant, watch)``."""
        key = (base_id, r_id, watch)
        eid = self.edge_ids.get(key)
        if eid is not None:
            return eid
        with self._lock:
            eid = self.edge_ids.get(key)
            if eid is not None:
                return eid
            eid = len(self.edge_base)
            self.edge_base.append(base)
            self.edge_base_id.append(base_id)
            self.edge_relevant.append(relevant)
            self.edge_r.append(r_id)
            self.edge_watch.append(watch)
            self.edge_filters.append({})
            self.edge_ids[key] = eid
            return eid

    # ------------------------------------------------------------------
    # Transition resolution (slow path; results land in the tables)
    # ------------------------------------------------------------------
    def root_cfg(self, plan, key) -> int:
        """The cfg the run enters its context with (DEAD when pruned):
        a constant of an index-free plan (``key`` is ``None``), a
        function of the context's mask key in an indexed one — derived
        once per key."""
        cfg = self.roots.get(key)
        if cfg is None:
            mstates0, m_id0, relevant0, r_id0 = plan.initial_sets(key)
            if not mstates0 and not relevant0:
                cfg = DEAD
            else:
                cfg = self.cfg_of(mstates0, m_id0, relevant0, r_id0, ())
            self.roots[key] = cfg
        return cfg

    def lookup_trans(self, plan, cfg: int, label: str) -> int:
        """``(cfg, label)``'s packed (or edge) word, computing on miss.

        A label outside the alphabet resolves through — and is stored
        under — the OTHER column only (the caller caches the word in its
        label table's row), so a long-lived plan serving ever-new labels
        does not grow.
        """
        if label not in self.alphabet:
            label = OTHER_LABEL
        key = (cfg, label)
        packed = self.trans.get(key)
        if packed is None:
            packed = self.trans[key] = self._compute_trans(plan, cfg, label)
        return packed

    def _compute_trans(self, plan, cfg: int, label: str) -> int:
        (
            base_v,
            base_idv,
            mstates_v,
            m_idv,
            relevant_v,
            r_idv,
            watch,
            _has_final,
            _has_ann,
        ) = plan._compute_child_sets(
            self.cfg_mstates[cfg], self.cfg_relevant[cfg], label
        )
        if not mstates_v and not relevant_v:
            return DEAD
        if plan.bit_of is not None:
            eid = self.edge_of(base_v, base_idv, relevant_v, r_idv, watch)
            return (eid << 1) | 1
        child = self.cfg_of(mstates_v, m_idv, relevant_v, r_idv, watch)
        return self.cfg_packed[child]

    def fill_filter(self, plan, eid: int, mask_key: int) -> int:
        """Resolve one ``edge × mask_key`` filter-row entry (OptHyPE)."""
        mstates_f, m_idf, relevant_f, r_idf = plan._apply_index(
            self.edge_base[eid],
            self.edge_base_id[eid],
            self.edge_relevant[eid],
            self.edge_r[eid],
            mask_key,
        )
        if not mstates_f and not relevant_f:
            packed = DEAD
        else:
            cfg = self.cfg_of(
                mstates_f, m_idf, relevant_f, r_idf, self.edge_watch[eid]
            )
            packed = self.cfg_packed[cfg]
        self.edge_filters[eid][mask_key] = packed
        return packed

    # ------------------------------------------------------------------
    # Pop (bottom-up AFA resolution), cfg-keyed
    # ------------------------------------------------------------------
    def pop_frame(self, plan, cfg: int, columns, node_id: int, truths) -> tuple:
        """Pop node ``node_id`` of ``columns`` (the run's document), whose
        children reported ``truths`` (lines 11-21 of the paper's Fig. 6);
        returns ``(dead, report, resolved)``.

        Truth-free pops never come here (the lean pass resolves them
        inline).  The fixpoint is still a pure function of (cfg,
        predicate bits, truth set) — documents repeat structure, so the
        observed truth sets are memoised in the same per-cfg table.
        """
        preds, outcomes = self.pops[cfg]
        bits = 0
        for bit, holds in preds:
            if holds(columns, node_id):
                bits |= bit
        truths = frozenset(truths)
        outcome = outcomes.get((bits, truths))
        if outcome is None:
            outcome = self.fill_pop(plan, cfg, columns, node_id, truths)
        return outcome

    def pop_entry(self, plan, cfg: int) -> tuple:
        """The cfg's pop table, built on first use."""
        entry = self.pops[cfg]
        if entry is _UNBUILT:
            finals = plan._relevant_plan(
                self.cfg_r[cfg], self.cfg_relevant[cfg]
            )[0]
            entry = self.pops[cfg] = (
                tuple(
                    (1 << position, pred.holds)
                    for position, (_state, pred) in enumerate(finals)
                    if pred is not None
                ),
                {},
            )
        return entry

    def fill_pop(self, plan, cfg: int, columns, node_id: int, truths=None) -> tuple:
        """The miss path of a pop at ``node_id``: resolve and store the
        table entry — the dead NFA states, the watchers to report to
        the parent (fstates↑) and the number of AFA states resolved."""
        r_id = self.cfg_r[cfg]
        finals, trans, groups = plan._relevant_plan(
            r_id, self.cfg_relevant[cfg]
        )
        # The table is keyed by the node-dependent predicates only;
        # finals without a predicate hold everywhere.
        bits = full = 0
        for position, (_state, pred) in enumerate(finals):
            if pred is None:
                full |= 1 << position
            elif pred.holds(columns, node_id):
                bits |= 1 << position
        full |= bits
        # 3-tuple keys cannot collide with the truth-free 2-tuple keys
        # in the plan-wide caches (shared by cfgs with one relevant set).
        cache_key = (r_id, full) if truths is None else (r_id, full, truths)
        values = plan._pop_cache.get(cache_key)
        if values is None:
            values = plan._resolve(finals, trans, groups, truths, full)
            plan._pop_cache[cache_key] = values
        dead = None
        if self.cfg_has_ann[cfg]:
            dead_key = (self.cfg_m[cfg],) + cache_key
            dead = plan._dead_cache.get(dead_key)
            if dead is None:
                dead = plan._compute_dead(self.cfg_mstates[cfg], values)
                plan._dead_cache[dead_key] = dead
        report = tuple(
            watcher
            for watcher, target in self.cfg_watch[cfg]
            if values.get(target, False)
        )
        outcome = (dead, report, len(values))
        outcomes = self.pop_entry(plan, cfg)[1]
        outcomes[bits if truths is None else (bits, truths)] = outcome
        return outcome

    # ------------------------------------------------------------------
    # Seeding: another plan's closed tables
    # ------------------------------------------------------------------
    def seed(self, plan, closed: "DenseKernel") -> int:
        """Fill the transitions from a closed kernel's tables (the
        index-free plan of the same MFA that :func:`close` closed) — how
        every executable but that plan itself starts warm.  The closed
        kernel's cfgs are minted here in its order, its own frozensets
        interned into ``plan``; a plain plan gets the packed words, an
        index-equipped one (OptHyPE/-C) pre-filter edge words (its mask
        filter rows stay lazy — they fill as documents bring masks).
        Returns the number of entries installed; entries already present
        are kept."""
        order, children, bases, num_cfgs = closed.closure
        if self.flat is None:
            self.flat = closed.flat
        intern = plan._intern
        mstates = [intern(s) for s in closed.cfg_mstates[:num_cfgs]]
        relevant = [intern(s) for s in closed.cfg_relevant[:num_cfgs]]
        cfg_map = [DEAD] + [
            self.cfg_of(*mstates[cfg], *relevant[cfg], closed.cfg_watch[cfg])
            for cfg in range(1, num_cfgs)
        ]
        indexed = plan.bit_of is not None
        columns = sorted(closed.alphabet) + [OTHER_LABEL]
        width = len(columns)
        trans = self.trans
        installed = 0
        for i, base in enumerate(bases):
            base, base_id = intern(base)
            key = (cfg_map[order[i // width]], columns[i % width])
            if key in trans:
                continue
            child = cfg_map[children[i]]
            if child == DEAD:
                trans[key] = DEAD
            elif indexed:
                eid = self.edge_of(
                    base,
                    base_id,
                    self.cfg_relevant[child],
                    self.cfg_r[child],
                    self.cfg_watch[child],
                )
                trans[key] = (eid << 1) | 1
            else:
                trans[key] = self.cfg_packed[child]
            installed += 1
        return installed


def close(plan, max_cfgs: int = 256) -> None:
    """Eagerly close a (plain) plan's dense table, in place: the compiled
    closure (``_lean.c``) when :data:`DESCENT` is ``"compiled"``, else
    :func:`_close_py`, the reference it reproduces — the same cfgs and
    interned sets minted in the same order, the same closure record and
    tables."""
    if _cold is None:
        return _close_py(plan, max_cfgs)
    if plan.bit_of is not None:
        raise ValueError("dense closures are built in index-free plans")
    kern = plan.kernel
    if kern.closure is not None:
        return
    nfa = plan.mfa.nfa
    if nfa._closure is None:
        nfa._closure = _cold.eps_closures(nfa.eps)
    root = kern.root_cfg(plan, None)
    with plan._intern_lock, kern._lock:
        order, children, bases, num_cfgs = _cold.close(plan, root, max_cfgs)
    kern.closure = (array("i", order), array("i", children), bases, num_cfgs)


def _close_py(plan, max_cfgs: int = 256) -> None:
    """Eagerly close a (plain) plan's dense table, in place — the
    reference of the compiled closure.

    BFS from the root cfg over the automaton's alphabet plus the OTHER
    column.  The closure is finite because unseen labels alias to one
    column; ``max_cfgs`` caps expansion against adversarial queries (a
    truncated closure is still valid — the kernel fills the rest
    lazily).  A column whose label no NFA state of the cfg's ``mstates``
    and no transition state of its ``relevant`` set names can only take
    wildcard moves, exactly like OTHER: its child sets are OTHER's, so
    only the named columns are computed (in column order, which keeps
    the cfg minting order that of computing every column).  The plan
    must be index-free: the closed table is the *pre-filter* one, which
    serves all three algorithm variants (:meth:`DenseKernel.seed`).
    """
    from ..automata.afa import TRANS

    if plan.bit_of is not None:
        raise ValueError("dense closures are built in index-free plans")
    kern = plan.kernel
    if kern.closure is not None:
        return
    columns = sorted(kern.alphabet) + [OTHER_LABEL]
    nfa_trans = plan.mfa.nfa.trans
    states = plan.mfa.pool.states
    trans = kern.trans
    children = array("i")
    bases: list = []
    root = kern.root_cfg(plan, None)
    seen = {DEAD}
    queue: list[int] = []
    if root != DEAD:
        seen.add(root)
        queue.append(root)
    for cfg in queue:  # grows while iterated: the BFS frontier
        mstates = kern.cfg_mstates[cfg]
        relevant = kern.cfg_relevant[cfg]
        named = set()
        for state in mstates:
            named.update(nfa_trans[state])
        for state in relevant:
            holder = states[state]
            if holder.kind == TRANS:
                named.add(holder.label)
        other = plan._compute_child_sets(mstates, relevant, OTHER_LABEL)
        for label in columns:
            if label in named:
                sets = plan._compute_child_sets(mstates, relevant, label)
            else:
                sets = other
            base_v, _, mstates_v, m_idv, relevant_v, r_idv, watch, _, _ = sets
            if not mstates_v and not relevant_v:
                child = packed = DEAD
            else:
                child = kern.cfg_of(mstates_v, m_idv, relevant_v, r_idv, watch)
                packed = kern.cfg_packed[child]
            trans[(cfg, label)] = packed
            children.append(child)
            bases.append(base_v)
            if child not in seen:
                seen.add(child)
                if len(seen) <= max_cfgs:
                    queue.append(child)
    # The cfg count is part of the record: a truncated closure's plan
    # mints further cfgs while it runs, and they are not the closure's.
    kern.closure = (array("i", queue), children, bases, len(kern.cfg_packed))


def _expired(deadline) -> DeadlineError:
    return DeadlineError(
        "deadline exceeded mid-descent "
        f"({-deadline.remaining_ms():.1f} ms over)"
    )


def descend(lanes, context, layout=None, deadline=None) -> None:
    """THE descent: every lane's automaton driven over ``context``.

    ``lanes`` is a list of ``(plan, cursor)`` pairs; a sequential run is
    a one-lane batch.  Each live lane is finished by one lean pass
    (compiled, or :func:`_descend_lane_py` — :data:`DESCENT` says
    which), one lane after the other, over the columns
    of ``layout`` (flat kid spans, ``array('i')`` transition rows), by
    node id.  ``context`` is a node, or a node id of ``layout``'s
    document.  A missing layout, or one that does not cover ``context``
    (a foreign document's), is never indexed: the pass walks
    fresh columns of the context's document instead
    (:func:`repro.docstore.layout.covering_layout`) — same visits, same
    order, same counters.  Every cursor records the columns it was run
    over (what phase 2 and its answers read).  An OptHyPE(-C) lane
    prunes on the mask column of *that* document, and is refused when it
    has none of the lane's label table and variant
    (:meth:`repro.docstore.layout.DocumentLayout.mask_keys`).

    ``deadline`` (a :class:`repro.guard.Deadline`) arms a cooperative
    cancellation checkpoint: every :data:`repro.guard.CHECK_INTERVAL`
    loop iterations — counted across the lanes, never reset between
    them — the clock is read once and an expired deadline raises
    :class:`repro.errors.DeadlineError` mid-descent; the caller's
    cursors are abandoned wholesale, never finished partially.  With
    ``deadline=None`` the checkpoint is a single dead branch per
    iteration, keeping the hot path inside the tracing-off overhead
    floor.
    """
    _fault_fire("descend")
    layout, root = covering_layout(context, layout)
    checks = CHECK_INTERVAL
    for plan, cursor in lanes:
        cursor.layout = layout
        mask_keys = layout.mask_keys(plan)
        cfg = plan.kernel.root_cfg(
            plan, None if mask_keys is None else mask_keys[root]
        )
        if cfg == DEAD:
            # Dead at the root: the lane finishes with the all-zero result.
            continue
        checks = _descend_lane(
            plan, cursor, layout, mask_keys, root, cfg, deadline, checks
        )


def _descend_lane_py(
    plan, cursor, layout, mask_keys, node: int, cfg: int, deadline, checks: int
) -> int:
    """The lean pass: run one lane — ``plan`` recording into ``cursor``
    — over node ``node``'s subtree in ``layout``, pruning on the
    document's ``mask_keys`` column (``None``: plain HyPE).

    The reference implementation, and the pass this process runs when
    the compiled one (``_lean.c``, the same algorithm statement by
    statement) is unavailable — see :data:`DESCENT`.

    The current node's frame lives in locals (node id, visit index, cfg,
    its ``array('i')`` row, the truths its children reported, the child
    cursor into the layout's kid columns); the stack holds one tuple of
    those per *open* ancestor, pushed only for visited elements that
    have element children — a childless element is visited and popped
    inline.  ``checks`` is the countdown to the next deadline
    checkpoint; it is returned so a wave of short lanes still reads the
    clock every ``CHECK_INTERVAL`` steps.
    """
    kern = plan.kernel
    pops = kern.pops
    fill_pop = kern.fill_pop
    lookup_trans = kern.lookup_trans
    cfg_mstates = kern.cfg_mstates
    deaths = cursor.deaths
    ids_append = cursor.visit_ids.append
    parents_append = cursor.visit_parents.append
    mstates_append = cursor.visit_mstates.append
    finals_append = cursor.finals_seen.append
    indexed = mask_keys is not None
    filters = kern.edge_filters
    table = layout.table
    labels = table.labels
    kid_ids = layout.kid_ids
    kid_labels = layout.kid_labels
    kid_start = layout.kid_start
    columns = layout.columns  # what text() / position() filters read
    # cfg -> this label table's label-id-indexed row of packed words.
    rows = table.rows_for(plan)
    blank = array("i", [UNFILLED]) * len(labels)
    packed = kern.cfg_packed[cfg]
    ids_append(node)
    parents_append(-1)
    mstates_append(cfg_mstates[cfg])
    if packed & FINAL_BIT:
        finals_append(0)
    pflag = packed & POP_BIT
    row = rows.get(cfg)
    if row is None:
        row = rows.setdefault(cfg, blank[:])
    ki = kid_start[node]
    kend = kid_start[node + 1]
    vidx = 0
    nvis = 1
    trues = None
    skipped = resolved = 0
    stack = []
    push = stack.append
    pop = stack.pop
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
            # Children done: pop the node, then resume its parent.
            report = ()
            if pflag:
                if trues:
                    dead, report, n = kern.pop_frame(plan, cfg, columns, node, trues)
                else:
                    preds, outcomes = pops[cfg]
                    bits = 0
                    for bit, holds in preds:
                        if holds(columns, node):
                            bits |= bit
                    outcome = outcomes.get(bits)
                    if outcome is None:
                        outcome = fill_pop(plan, cfg, columns, node)
                    dead, report, n = outcome
                if dead:
                    deaths[vidx] = dead
                resolved += n
            if not stack:
                break
            node, vidx, cfg, row, pflag, trues, ki, kend = pop()
            if report:
                if trues is None:
                    trues = set(report)
                else:
                    trues.update(report)
            continue
        lid = kid_labels[ki]
        child = kid_ids[ki]
        ki += 1
        packed = row[lid]
        if packed == UNFILLED:
            packed = row[lid] = lookup_trans(plan, cfg, labels[lid])
        if indexed and packed:
            eid = packed >> 1
            mask_key = mask_keys[child]
            packed = filters[eid].get(mask_key, UNFILLED)
            if packed == UNFILLED:
                packed = kern.fill_filter(plan, eid, mask_key)
        if packed == DEAD:
            skipped += 1
            continue
        cfg2 = packed >> CFG_SHIFT
        ki2 = kid_start[child]
        kend2 = kid_start[child + 1]
        ids_append(child)
        parents_append(vidx)
        mstates_append(cfg_mstates[cfg2])
        if packed & FINAL_BIT:
            finals_append(nvis)
        if ki2 == kend2:
            # Childless: no child can report a truth, so the pop is the
            # table probe, applied to the node still in hand.
            if packed & POP_BIT:
                preds, outcomes = pops[cfg2]
                bits = 0
                for bit, holds in preds:
                    if holds(columns, child):
                        bits |= bit
                outcome = outcomes.get(bits)
                if outcome is None:
                    outcome = fill_pop(plan, cfg2, columns, child)
                dead, report, n = outcome
                if dead:
                    deaths[nvis] = dead
                resolved += n
                if report:
                    if trues is None:
                        trues = set(report)
                    else:
                        trues.update(report)
            nvis += 1
            continue
        push((node, vidx, cfg, row, pflag, trues, ki, kend))
        node = child
        vidx = nvis
        nvis += 1
        cfg = cfg2
        pflag = packed & POP_BIT
        trues = None
        ki = ki2
        kend = kend2
        row = rows.get(cfg2)
        if row is None:
            row = rows.setdefault(cfg2, blank[:])
    # Writeback: a lane examines every element child of every node it
    # visits, so ``visited`` is the length of its visit columns and
    # ``skipped`` the prunes counted on the way.
    cursor.visited = nvis
    cursor.skipped = skipped
    cursor.cans_vertices = sum(map(len, cursor.visit_mstates))
    cursor.stats.afa_states_resolved += resolved
    return checks


def _new_row(width: int) -> array:
    """A fresh transition row: ``width`` :data:`UNFILLED` slots."""
    return array("i", [UNFILLED]) * width


def _select_pass(cache_dir=None) -> tuple:
    """``(lean pass, phase 2, cold path, DESCENT record)`` for this
    process: the compiled ones when :func:`repro.native.load` builds or
    finds them (in ``cache_dir``, default the package's ``__pycache__``)
    and the build accepts this module's helpers and constants — the cold
    path is the extension itself, whose ``close`` and ``eps_closures``
    :func:`close` calls — else :func:`_descend_lane_py`, ``None`` (phase
    2 is then the plan's own
    :meth:`~repro.hype.core.CompiledPlan._collect_answers_py`), ``None``
    (:func:`close` runs :func:`_close_py`) and the reason."""
    lean, reason = native.load(__package__, "_lean.c", cache_dir)
    if lean is not None:
        try:
            lean.setup(
                _expired,
                _new_row,
                time.perf_counter,
                CHECK_INTERVAL,
                (FINAL_BIT, POP_BIT, CFG_SHIFT, DEAD, UNFILLED),
                _UNBUILT,
                OTHER_LABEL,
            )
            return lean.descend_lane, lean.collect_answers, lean, "compiled"
        except (TypeError, ValueError) as error:
            reason = f"the build refused its setup: {error}"
    return _descend_lane_py, None, None, f"python: {reason}"


#: The lean pass :func:`descend` runs, the compiled phase 2 and cold path
#: (``None``: the Python ones), and which they are: ``"compiled"`` or
#: ``"python: <why the compiled passes are unavailable>"``.
_descend_lane, _collect_answers, _cold, DESCENT = _select_pass()
# INFO, not WARNING: a library prints nothing unless logging is set up,
# and the fallback is a supported configuration, not a fault.
logging.getLogger(__name__).info("descent: %s", DESCENT)
