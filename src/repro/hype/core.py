"""HyPE — Hybrid Pass Evaluation of MFAs (Section 6, Fig. 6).

One top-down depth-first pass over the document combines:

* the selecting-NFA run: ``mstates(n)`` per node, with subtrees skipped as
  soon as no NFA state and no relevant AFA state survives (*pruning*);
* AFA evaluation: ``fstates↓`` relevance sets flow down, truth values flow
  back up at pop time (``fstates↑``), with operator states resolved by the
  least-fixpoint machinery of :mod:`repro.automata.truth`;
* construction of the candidate-answer structure ``cans``.

``cans`` representation.  The paper describes cans as a DAG with one vertex
per ``(tree node, NFA state)`` pair of the run, ε-edges kept stepwise, and
vertices *deleted* when their filter gate turns out false at pop time; a
final traversal from the initial vertex separates real answers from
candidates.  We store the same DAG **node-major**: the visit list (node
id, parent visit index, interned ``mstates`` set), the visit indices of the
*candidates* (visits whose ``mstates`` hold a final state) plus the rare
*death records* (gate-failed states per node).  ``alive(n)`` — the
ε-closure (avoiding dead states) of the transitions from
``alive(parent)`` — is exactly vertex reachability in the paper's DAG,
and phase 2 computes it only where an answer can come from: for each
candidate it climbs to the nearest ancestor whose alive set it already
knows (or to the root) and recomputes the chain back down, so the
traversal is restricted to the vertices that can reach a final one.
Because state sets are interned, chains unaffected by any death re-use
the phase-1 sets by identity, and when no gate failed at all, phase 2
degenerates to reading off the candidates.  The answers are node ids
(:attr:`HyPEResult.ids`); :class:`Node` objects are created from them
only when a caller asks (:attr:`HyPEResult.answers`).

OptHyPE/OptHyPE-C plug in a subtree-label index plus the viability oracle
(:mod:`repro.hype.analyze`) to skip subtrees even when states are live but
provably cannot produce answers or flip a filter to true.  What they
derive is a function of (automaton, label set), so such an executable
belongs to a *label table* (:class:`repro.hype.index.LabelTable`), not to
a document: it owns no index, and each run prunes on the mask column of
the document it is over.

Plan/run split.  Evaluation state comes in two kinds with very different
lifetimes, and the classes here mirror that:

* :class:`CompiledPlan` — the reusable half: the MFA, the optional
  viability analyzer, and every per-MFA memo table (interned state
  sets, child-transition cache, relevant-set plans, pop/death caches,
  phase-2 caches).  A plan is *immutable after warmup*: the tables only
  ever gain entries, every entry is a pure function of its key, and the
  id-minting intern table is lock-guarded — so one plan can be executed
  by many threads at once and shared across tenants, lanes and services.
* :class:`RunCursor` — the per-run half: the visit list, death records
  and counters of ONE evaluation.  Cursors are cheap, built per run, and
  never shared between threads.

The descent itself lives in :mod:`repro.hype.kernel`: each plan owns a
:class:`repro.hype.kernel.DenseKernel` compiling its memo tables one
level further — interned run configurations with flags packed into flat
``array('i')`` transition words — and :func:`repro.hype.kernel.descend`
is the single loop behind both :meth:`CompiledPlan.run` (a one-lane
batch) and the batched evaluator of :mod:`repro.serve.batch`.  It walks
the columns of a :class:`repro.docstore.layout.DocumentLayout` and
nothing else.  Phase 2 (:meth:`CompiledPlan._collect_answers_py`) is
compiled into the same extension as the lean pass and runs compiled
wherever that pass does; its ε-closure step (:meth:`CompiledPlan._alive`)
stays Python either way.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..automata.afa import FINAL, TRANS, WILDCARD
from ..automata.mfa import MFA
from ..automata.truth import child_relevant, relevance_closure
from ..xtree.node import Node, XMLTree
from . import kernel
from .analyze import ViabilityAnalyzer
from .index import Index
from .kernel import DenseKernel, descend


@dataclass
class HyPEStats:
    """Counters for the experiments of Section 7."""

    visited_elements: int = 0
    skipped_subtrees: int = 0
    cans_vertices: int = 0
    gate_failures: int = 0
    afa_states_resolved: int = 0
    answers: int = 0


@dataclass
class HyPEResult:
    """Answer ids (ascending document order) plus run statistics.

    ``answers`` — the answer :class:`Node` objects — is created from the
    ids only when a caller asks: the serving path reads ``ids`` and
    creates no node.
    """

    ids: list[int]
    #: The document the ids are of (what ``answers`` are created from).
    tree: XMLTree
    stats: HyPEStats

    @property
    def answers(self) -> set[Node]:
        """The answer nodes (the tree's own objects, one per id)."""
        nodes = self.tree.nodes
        return {nodes[node_id] for node_id in self.ids}


_EMPTY = frozenset()


class CompiledPlan:
    """One compiled MFA plus its reusable, thread-safe memo tables.

    Concurrency contract: every table is fill-only, every entry is a
    deterministic function of its key, and the canonical objects inside
    entries all come from the lock-guarded intern table — so concurrent
    fills of the same key produce identical values and a lost write costs
    only duplicated work, never a wrong answer.  Only :meth:`_intern`
    takes the lock (it mints ids; a race there could alias two different
    sets to one id, which WOULD corrupt the keyed caches).
    """

    def __init__(self, mfa: MFA, index: Index | None = None) -> None:
        self.mfa = mfa
        #: What an OptHyPE(-C) executable keeps of ``index``: its label
        #: table's immutable bit map (which also identifies the table —
        #: :meth:`repro.docstore.layout.DocumentLayout.mask_keys`), the
        #: variant, and for OptHyPE-C the table's mask list.  Never the
        #: table (it dies with its last document, and this executable
        #: with it), never the index (a document's, read per run).
        self.bit_of = self.masks = self.analyzer = None
        self.compressed = False
        if index is not None:
            self.bit_of = index.table.bit_of
            self.compressed = index.compressed
            if index.compressed:
                self.masks = index.table.masks
            self.analyzer = ViabilityAnalyzer(mfa, self.bit_of)
        # Guards id minting in _intern; every other table is benign to
        # race on (see class docstring).
        self._intern_lock = threading.Lock()
        # fs -> (canonical fs object, id); the canonical object makes the
        # phase-2 `is` fast path valid.
        self._set_ids: dict[frozenset, tuple[frozenset, int]] = {}
        # (mstates id, relevant id, mask) -> filtered pair
        self._filter_cache: dict = {}
        # relevant id -> (finals plan, trans plan, operator groups)
        self._plan_cache: dict[int, tuple] = {}
        # (r_id, finals bitmask) -> resolved values, for pops with no child
        # contributions (the overwhelmingly common case).
        self._pop_cache: dict = {}
        # (m_id, r_id, finals bitmask) -> frozenset of dead states
        self._dead_cache: dict = {}
        # Phase 2: (alive(parent), label, phase-1 set, dead) -> alive set.
        self._alive_cache: dict = {}
        #: The dense evaluation core: interned run configurations, packed
        #: transition words, the per-cfg pop tables, and the single
        #: shared descent (:func:`repro.hype.kernel.descend`).  Owned
        #: one way — the kernel keeps no reference to this plan.
        self.kernel = DenseKernel(self)

    # ------------------------------------------------------------------
    @classmethod
    def for_algorithm(
        cls,
        mfa: MFA,
        algorithm: str,
        document,
        indexes,
        kernel: dict | None = None,
    ) -> "CompiledPlan":
        """Build (or rehydrate) the plan realising ``algorithm`` on ``mfa``.

        This is the constructor path everything above the evaluator
        uses — the plan cache building an OptHyPE executable per label
        table, and the persistent tier rehydrating an MFA decoded from
        a :class:`repro.compile.artifact.PlanArtifact` (only the compile
        pipeline's dense stage builds a bare plan itself).  Artifacts carry
        only the automaton: the label table and variant come from
        ``indexes``, an *index provider* (anything with an
        ``index_for(compressed)`` method — canonically the
        :class:`repro.docstore.document.IndexedDocument` of
        ``document``, which builds or tier-loads each variant exactly
        once under a lock and parks it on its layout, where runs find
        it).  Every memo
        table starts empty, filling lazily on first run — unless the
        artifact shipped its eager dense closure, passed as ``kernel``
        and preloaded into the plan's
        :class:`repro.hype.kernel.DenseKernel` (pre-filter transitions
        for all three algorithm variants; the mask filter rows always
        stay lazy).
        """
        from .api import ALGORITHMS, HYPE, OPTHYPE_C

        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        if algorithm == HYPE:
            plan = cls(mfa)
        else:
            plan = cls(mfa, index=indexes.index_for(algorithm == OPTHYPE_C))
        if kernel:
            plan.kernel.preload(plan, kernel)
        return plan

    # ------------------------------------------------------------------
    def _intern(self, fs: frozenset) -> tuple[frozenset, int]:
        existing = self._set_ids.get(fs)
        if existing is not None:
            return existing
        with self._intern_lock:
            existing = self._set_ids.get(fs)
            if existing is not None:
                return existing
            entry = (fs, len(self._set_ids))
            self._set_ids[fs] = entry
            return entry

    # ------------------------------------------------------------------
    def cursor(self) -> "RunCursor":
        """A fresh per-run cursor over this plan."""
        return RunCursor(self)

    def initial_sets(self, mask_key: int | None):
        """Root ``(mstates, m_id, relevant, r_id)``, filtered on the
        context's ``mask_key`` (``None``: index-free plan).

        The slow path of :meth:`repro.hype.kernel.DenseKernel.root_cfg`,
        which derives it once per root mask key (once per plan when
        there is no index) and memoises the resulting cfg.
        """
        nfa = self.mfa.nfa
        pool = self.mfa.pool
        base0, base_id0 = self._intern(frozenset({nfa.start}))
        mstates0 = nfa.eps_closure_of(nfa.start)
        relevant0 = relevance_closure(pool, self._ann_entries(mstates0))
        mstates0, m_id0 = self._intern(mstates0)
        relevant0, r_id0 = self._intern(relevant0)
        if mask_key is not None:
            mstates0, m_id0, relevant0, r_id0 = self._apply_index(
                base0, base_id0, relevant0, r_id0, mask_key
            )
        return mstates0, m_id0, relevant0, r_id0

    def _collect_answers_py(
        self, visit_ids, visit_parents, visit_mstates, deaths, finals_seen, label
    ) -> list[int]:
        """Phase 2 over a run's cans DAG: the answer node ids, in visit
        (= document) order.  The reference implementation, and the
        phase 2 a process runs when ``_lean.c``'s (the same algorithm) is
        unavailable — see :data:`repro.hype.kernel.DESCENT`.

        ``finals_seen`` holds the visit indices of the *candidates* — the
        visits whose phase-1 ``mstates`` contain a final state.  A vertex
        alive in phase 2 was present in phase 1, so every answer is one
        of them, and the traversal is restricted to the vertices that can
        reach one: per candidate, climb ``visit_parents`` to the nearest
        ancestor whose alive set this call already knows (or to the
        root), come back down filling the chain, and test ``alive &
        finals`` at the candidate.  With no death recorded no chain is
        built at all: the candidates are the answers.  ``label`` is the
        document's per-node label column (read on a chain only).
        """
        if not deaths:
            return [visit_ids[i] for i in finals_seen]
        finals = self.mfa.nfa.finals
        alive_cache = self._alive_cache
        alive: dict[int, frozenset] = {}
        answers: list[int] = []
        for candidate in finals_seen:
            chain = []
            i = candidate
            while i != -1 and i not in alive:
                chain.append(i)
                i = visit_parents[i]
            while chain:
                parent = i
                i = chain.pop()
                phase1 = visit_mstates[i]
                dead = deaths.get(i)
                # ``None`` above the root — which no phase-1 set is, so
                # the root never takes the identity path below.
                parent_alive = None if parent == -1 else alive[parent]
                if dead is None and parent_alive is visit_mstates[parent]:
                    # No divergence above or here: phase-1 set is exact.
                    current = phase1
                else:
                    # Every component is canonical (interned sets, the
                    # dead-cache's records), so the key is stable across
                    # runs of this plan.
                    key = (parent_alive, label[visit_ids[i]], phase1, dead)
                    current = alive_cache.get(key)
                    if current is None:
                        current = alive_cache[key] = self._alive(*key)
                alive[i] = current
            if alive[candidate] & finals:
                answers.append(visit_ids[candidate])
        return answers

    # ------------------------------------------------------------------
    def run(self, context: Node | int, layout=None, deadline=None) -> HyPEResult:
        """Evaluate ``context[[M]]`` in one pass + one cans traversal.

        Safe to call from many threads at once: all mutable per-run
        state lives on a private :class:`RunCursor`.  The pass itself is
        :func:`repro.hype.kernel.descend` driven with a single lane —
        the same loop the batched evaluator
        (:class:`repro.serve.batch.BatchEvaluator`) drives with N lanes,
        so there is exactly one descent implementation to maintain.

        ``context`` is a node, or a node id of ``layout``'s document
        (``0``: its root — how the serving path runs without creating a
        node).  ``layout`` — the :class:`repro.docstore.layout.
        DocumentLayout` of the context's document — holds the columns
        the descent walks (flat kid spans, per-cfg ``array('i')``
        transition rows indexed by interned label id); a caller that
        evaluates a document more than once passes its
        :class:`repro.docstore.document.IndexedDocument`'s.  Without one
        — or with one that does not cover ``context`` (a foreign
        document's), which is never indexed — this run builds
        fresh columns from the context's document
        (:func:`repro.docstore.layout.covering_layout`); answers and
        per-run :class:`HyPEStats` are identical either way
        (property-tested in ``tests/test_lattice.py``).  A tree
        that was never frozen raises :class:`repro.errors.EvaluationError`.

        ``deadline`` — an optional :class:`repro.guard.Deadline` — arms
        the descent's cooperative cancellation checkpoint; expiry raises
        :class:`repro.errors.DeadlineError` and the private cursor is
        discarded, so a deadline-hit run never yields partial answers.
        """
        cursor = RunCursor(self)
        descend([(self, cursor)], context, layout, deadline=deadline)
        return cursor.finish()

    # ------------------------------------------------------------------
    # Descent bookkeeping
    # ------------------------------------------------------------------
    def _compute_child_sets(self, mstates, relevant, label):
        nfa = self.mfa.nfa
        pool = self.mfa.pool
        base: set[int] = set()
        for state in mstates:
            base |= nfa.step_targets(state, label)
        mstates_v = nfa.eps_closure(base)
        targets = child_relevant(pool, relevant, label)
        targets |= set(self._ann_entries(mstates_v))
        relevant_v = relevance_closure(pool, targets)
        states = pool.states
        # In ascending state id: a cfg's key depends on set contents only.
        watch = tuple(
            (state, states[state].target)
            for state in sorted(relevant)
            if states[state].kind == TRANS
            and (states[state].label == label or states[state].label == WILDCARD)
        )
        base_v, base_idv = self._intern(frozenset(base))
        mstates_v, m_idv = self._intern(mstates_v)
        relevant_v, r_idv = self._intern(relevant_v)
        has_final = bool(mstates_v & nfa.finals)
        has_ann = any(s in nfa.ann for s in mstates_v)
        return (
            base_v,
            base_idv,
            mstates_v,
            m_idv,
            relevant_v,
            r_idv,
            watch,
            has_final,
            has_ann,
        )

    def _ann_entries(self, mstates) -> list[int]:
        ann = self.mfa.nfa.ann
        if not ann:
            return []
        return [ann[s] for s in mstates if s in ann]

    def _apply_index(self, base, base_id, relevant, r_id, mask_key: int):
        """Index-based subtree filtering (OptHyPE), a function of the
        subtree's mask key alone.

        The filtered ``mstates`` must be the ε-closure of the *base*
        transition targets restricted to viable states: a viable state
        whose only ε-path from the base runs through an impassable gate
        (definitely-false annotation) must NOT survive — intersecting the
        already-closed set would incorrectly keep it.
        """
        # mask_key is an int for both variants: the raw mask (OptHyPE) or
        # the table's interned mask id (OptHyPE-C) — small and O(1) to
        # hash even when the label alphabet makes masks wide.
        key = (base_id, r_id, mask_key)
        cached = self._filter_cache.get(key)
        if cached is not None:
            return cached
        mask = self.masks[mask_key] if self.compressed else mask_key
        nfa = self.mfa.nfa
        viable = self.analyzer.viable_nfa_states(mask)
        closed: set[int] = set()
        stack = [s for s in base if s in viable]
        while stack:
            state = stack.pop()
            if state in closed:
                continue
            closed.add(state)
            for target in nfa.eps[state]:
                if target in viable and target not in closed:
                    stack.append(target)
        mstates_f, m_idf = self._intern(frozenset(closed))
        possible = self.analyzer.afa_possibly_true(mask)
        relevant_f, r_idf = self._intern(
            frozenset(s for s in relevant if possible[s])
        )
        result = (mstates_f, m_idf, relevant_f, r_idf)
        self._filter_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Pop: bottom-up AFA resolution and death recording
    # ------------------------------------------------------------------
    def _relevant_plan(self, r_id: int, relevant):
        """Static per-relevant-set evaluation plan (cached).

        Returns (finals, trans, op_groups): final states with their
        predicates, transition states, and operator states grouped by SCC
        in dependency-first order — each in ascending state id (the sort
        by SCC is stable), so predicate bits and the resolved values'
        order depend on the set's contents only.
        """
        cached = self._plan_cache.get(r_id)
        if cached is not None:
            return cached
        pool = self.mfa.pool
        states = pool.states
        finals: list[tuple[int, object]] = []
        trans: list[int] = []
        operators: list[int] = []
        for state in sorted(relevant):
            holder = states[state]
            if holder.kind == FINAL:
                finals.append((state, holder.pred))
            elif holder.kind == TRANS:
                trans.append(state)
            else:
                operators.append(state)
        operators.sort(key=pool.scc_of)
        groups: list[list[tuple[int, str, list[int]]]] = []
        i = 0
        while i < len(operators):
            scc = pool.scc_of(operators[i])
            group: list[tuple[int, str, list[int]]] = []
            while i < len(operators) and pool.scc_of(operators[i]) == scc:
                holder = states[operators[i]]
                group.append((operators[i], holder.kind, holder.eps))
                i += 1
            groups.append(group)
        plan = (tuple(finals), tuple(trans), tuple(groups))
        self._plan_cache[r_id] = plan
        return plan

    def _resolve(self, finals, trans, groups, trans_true, bits) -> dict[int, bool]:
        """Leaf values + operator fixpoint for one node (or cache entry)."""
        values: dict[int, bool] = {}
        for position, (state, _pred) in enumerate(finals):
            values[state] = bool(bits >> position & 1)
        if trans_true is None:
            for state in trans:
                values[state] = False
        else:
            for state in trans:
                values[state] = state in trans_true
        get = values.get
        for group in groups:
            if len(group) == 1:
                state, kind, eps = group[0]
                if kind == "and":
                    values[state] = all(get(s, False) for s in eps)
                elif kind == "or":
                    values[state] = any(get(s, False) for s in eps)
                else:  # not
                    values[state] = not get(eps[0], False)
            else:
                for state, _kind, _eps in group:
                    values.setdefault(state, False)
                changed = True
                while changed:
                    changed = False
                    for state, kind, eps in group:
                        if kind == "and":
                            new = all(get(s, False) for s in eps)
                        else:  # or (NOT cannot be in a cycle)
                            new = any(get(s, False) for s in eps)
                        if new and not values[state]:
                            values[state] = True
                            changed = True
        return values

    def _compute_dead(self, mstates, values) -> frozenset[int]:
        ann = self.mfa.nfa.ann
        dead: list[int] = []
        get = values.get
        for state in mstates:
            entry = ann.get(state)
            if entry is not None and not get(entry, False):
                dead.append(state)
        return frozenset(dead)

    # ------------------------------------------------------------------
    # Phase 2: the ε-closure step of :meth:`_collect_answers_py`
    # ------------------------------------------------------------------
    def _alive(self, parent_alive, label, phase1, dead) -> frozenset:
        """``alive(n)``: the transitions from ``alive(parent)`` on
        ``label`` (the start state at the root, ``parent_alive=None``),
        ε-closed within the node's phase-1 set avoiding its dead states.
        Both phase-2 implementations call it on every ``_alive_cache``
        miss."""
        nfa = self.mfa.nfa
        if parent_alive is None:
            base = {nfa.start}
        else:
            base = {t for s in parent_alive for t in nfa.step_targets(s, label)}
        return self._closure_avoiding(base & phase1, dead, phase1)

    def _closure_avoiding(self, base, dead, universe) -> frozenset:
        """Stepwise ε-closure within ``universe``, skipping dead states
        (interned, and ``universe`` itself when nothing was lost — the
        identity phase 2's fast path tests)."""
        nfa = self.mfa.nfa
        if dead is None and base == universe:
            return universe
        result: set[int] = set()
        stack = [s for s in base if (dead is None or s not in dead)]
        while stack:
            state = stack.pop()
            if state in result:
                continue
            result.add(state)
            for target in nfa.eps[state]:
                if target in universe and target not in result:
                    if dead is None or target not in dead:
                        stack.append(target)
        frozen = frozenset(result)
        if frozen == universe:
            return universe
        return self._intern(frozen)[0]


class RunCursor:
    """Per-run traversal state of ONE evaluation of one plan.

    A cursor carries exactly what one depth-first pass accumulates: the
    node-major cans DAG (visit lists), the death records, the candidates
    (visit indices with a final state in phase 1), and the counters.
    Cursors are cheap to build, private to their run, and never
    synchronised — all sharing happens through the plan's memo tables.  Both the sequential :meth:`CompiledPlan.run` and
    the lanes of :class:`repro.serve.batch.BatchEvaluator` record through
    this class, so a batched lane is *observationally identical* to a
    sequential run.
    """

    __slots__ = (
        "plan",
        "stats",
        "layout",
        "visit_ids",
        "visit_parents",
        "visit_mstates",
        "deaths",
        "finals_seen",
        "visited",
        "skipped",
        "cans_vertices",
    )

    def __init__(self, plan: CompiledPlan) -> None:
        self.plan = plan
        self.stats = HyPEStats()
        #: The columns the descent walked (set by it): what phase 2 reads
        #: labels from and the result's answers are created from.
        self.layout = None
        #: Per visit, the node id (document order).
        self.visit_ids: list[int] = []
        self.visit_parents: list[int] = []
        self.visit_mstates: list[frozenset] = []
        self.deaths: dict[int, frozenset] = {}
        #: Visit indices whose phase-1 ``mstates`` hold a final state.
        self.finals_seen: list[int] = []
        self.visited = 0
        self.skipped = 0
        self.cans_vertices = 0

    def finish(self) -> HyPEResult:
        """Phase 2 (cans traversal) + the run's final counters."""
        stats = self.stats
        stats.visited_elements = self.visited
        stats.skipped_subtrees = self.skipped
        stats.cans_vertices = self.cans_vertices
        layout = self.layout
        ids = _collect_answers(
            self.plan,
            self.visit_ids,
            self.visit_parents,
            self.visit_mstates,
            self.deaths,
            self.finals_seen,
            layout.columns.label,
        )
        stats.answers = len(ids)
        stats.gate_failures = len(self.deaths)
        return HyPEResult(ids, layout.tree, stats)


#: Phase 2 as this process runs it, ``(plan, *cans columns) -> ids``:
#: ``_lean.c``'s when the compiled passes loaded, else the reference
#: (:data:`repro.hype.kernel.DESCENT` says which).
_collect_answers = kernel._collect_answers or CompiledPlan._collect_answers_py


def hype_eval(
    mfa: MFA,
    context: Node,
    index: Index | None = None,
) -> HyPEResult:
    """One-shot HyPE evaluation (builds a fresh plan; ``index`` names
    the label table and variant of an OptHyPE(-C) one)."""
    return CompiledPlan(mfa, index=index).run(context)
