"""Alternating finite automata (AFA) for ``Xreg`` filters (Section 4).

Following the paper's definition, an AFA has three kinds of states:

* *operator* states marked ``AND``, ``OR`` or ``NOT``, whose transitions are
  ε-moves to other states *at the same tree node*;
* *transition* states, defined for exactly one label, moving to exactly one
  state *at a child node*;
* *final* states, optionally annotated with a predicate ``text() = 'c'`` or
  ``position() = k``.

We keep all AFA states of one MFA in a single :class:`AFAPool`; a "binding"
``X_i = AFA_i`` of the paper is simply an entry-state id into the pool.
This makes composition (nested filters, rewriting, NFA→AFA embedding) a
matter of adding states and wiring ids — no copying between automata.

Truth values are per ``(tree node, state)``: ``X(n, s)`` in the paper.
They are independent of where a filter was invoked, which is what lets HyPE
share filter work across invocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import AutomatonError

#: Transition-state label matching any element tag.
WILDCARD = "*"

AND = "and"
OR = "or"
NOT = "not"
TRANS = "trans"
FINAL = "final"


@dataclass(frozen=True)
class TextPred:
    """Final-state predicate ``text() = value``.

    Predicates are evaluated at a node id against a document's
    :class:`repro.xtree.node.TreeColumns` (the run's
    ``DocumentLayout.columns``, or a node's ``columns``): one read of
    the ``text`` column, on the HyPE hot path as everywhere else.
    """

    value: str

    def holds(self, columns, node_id: int) -> bool:
        return columns.text[node_id] == self.value


@dataclass(frozen=True)
class PositionPred:
    """Final-state predicate ``position() = k`` (1-based element position,
    the root's is 1): one read of the ``position`` column."""

    k: int

    def holds(self, columns, node_id: int) -> bool:
        return columns.position[node_id] == self.k


Predicate = Optional[TextPred | PositionPred]


class AFAState:
    """One AFA state; see module docstring for the three kinds."""

    __slots__ = ("kind", "eps", "label", "target", "pred")

    def __init__(
        self,
        kind: str,
        eps: list[int] | None = None,
        label: str | None = None,
        target: int | None = None,
        pred: Predicate = None,
    ) -> None:
        self.kind = kind
        # Operator states are always handed their ε-list (`wire` extends
        # it); transition and final states share one empty tuple.
        self.eps = eps if eps is not None else ()
        self.label = label
        self.target = target
        self.pred = pred

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind == TRANS:
            return f"AFAState(trans {self.label!r} -> {self.target})"
        if self.kind == FINAL:
            return f"AFAState(final {self.pred})"
        return f"AFAState({self.kind} -> {self.eps})"


class AFAPool:
    """All AFA states of one MFA, addressed by integer id."""

    def __init__(self) -> None:
        self.states: list[AFAState] = []
        self._order: list[int] | None = None
        self._scc_of: list[int] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _add(self, state: AFAState) -> int:
        self.states.append(state)
        self._order = None
        return len(self.states) - 1

    def new_and(self, eps: list[int] | None = None) -> int:
        """AND operator state (empty operand list is vacuously true)."""
        return self._add(AFAState(AND, eps=list(eps or [])))

    def new_or(self, eps: list[int] | None = None) -> int:
        """OR operator state (empty operand list is false)."""
        return self._add(AFAState(OR, eps=list(eps or [])))

    def new_not(self, operand: int | None = None) -> int:
        """NOT operator state; the single operand may be wired later."""
        eps = [operand] if operand is not None else []
        return self._add(AFAState(NOT, eps=eps))

    def new_trans(self, label: str, target: int | None = None) -> int:
        """Transition state consuming one child edge labelled ``label``."""
        return self._add(AFAState(TRANS, label=label, target=target))

    def new_final(self, pred: Predicate = None) -> int:
        """Final state, optionally predicated."""
        return self._add(AFAState(FINAL, pred=pred))

    def wire(self, state: int, *successors: int) -> None:
        """Append ε-successors to an operator state (for cyclic wiring)."""
        target = self.states[state]
        if target.kind not in (AND, OR, NOT):
            raise AutomatonError(f"cannot wire ε-successors on {target.kind} state")
        target.eps.extend(successors)
        if target.kind == NOT and len(target.eps) != 1:
            raise AutomatonError("NOT state must have exactly one operand")
        self._order = None

    def set_target(self, state: int, target: int) -> None:
        """Set the successor of a transition state (for cyclic wiring)."""
        holder = self.states[state]
        if holder.kind != TRANS:
            raise AutomatonError("set_target only applies to transition states")
        holder.target = target
        self._order = None

    def with_predicates(self, preds) -> "AFAPool":
        """A pool sharing this pool's states except the finals of
        ``preds`` — ``(state, predicate)`` pairs — which are fresh finals
        under the given predicates.  The ε-graph is this pool's, and so
        is its SCC analysis."""
        pool = AFAPool()
        pool.states = list(self.states)
        for state, pred in preds:
            pool.states[state] = AFAState(FINAL, pred=pred)
        pool._order, pool._scc_of = self._order, self._scc_of
        return pool

    def __len__(self) -> int:
        return len(self.states)

    def size(self) -> int:
        """States plus ε/transition edges — the |AFA| contribution to |M|."""
        total = len(self.states)
        for state in self.states:
            if state.kind == TRANS:
                total += 1
            else:
                total += len(state.eps)
        return total

    # ------------------------------------------------------------------
    # Static structure checks and evaluation order
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Structural sanity: targets wired, NOT arity, id ranges."""
        n = len(self.states)
        for i, state in enumerate(self.states):
            if state.kind == TRANS:
                if state.target is None or not (0 <= state.target < n):
                    raise AutomatonError(f"transition state {i} has bad target")
            elif state.kind == NOT:
                if len(state.eps) != 1:
                    raise AutomatonError(f"NOT state {i} must have one operand")
            for succ in state.eps:
                if not (0 <= succ < n):
                    raise AutomatonError(f"state {i} has dangling ε-edge {succ}")

    def _analyze(self) -> None:
        """Tarjan SCC over the same-node ε-graph; reverse-topological order.

        Operator ε-edges stay on one tree node, so per-node truth values can
        be computed by walking SCCs in reverse topological order, running a
        monotone fixpoint inside each SCC.  NOT states inside a non-trivial
        SCC would make the fixpoint non-monotone; our constructions never
        produce that, and we reject it here.
        """
        n = len(self.states)
        index = [-1] * n
        low = [0] * n
        on_stack = [False] * n
        stack: list[int] = []
        counter = [0]
        scc_of = [-1] * n
        order: list[int] = []  # SCC ids in reverse topological order
        scc_count = [0]

        def edges(s: int) -> list[int]:
            state = self.states[s]
            return state.eps if state.kind in (AND, OR, NOT) else []

        for root in range(n):
            if index[root] != -1:
                continue
            work: list[tuple[int, int]] = [(root, 0)]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack[root] = True
            while work:
                node, ptr = work[-1]
                succs = edges(node)
                if ptr < len(succs):
                    work[-1] = (node, ptr + 1)
                    succ = succs[ptr]
                    if index[succ] == -1:
                        index[succ] = low[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack[succ] = True
                        work.append((succ, 0))
                    elif on_stack[succ]:
                        low[node] = min(low[node], index[succ])
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    members: list[int] = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        scc_of[member] = scc_count[0]
                        members.append(member)
                        if member == node:
                            break
                    if len(members) > 1 or any(
                        node in edges(m) for m in members for node in [m]
                    ):
                        for member in members:
                            if self.states[member].kind == NOT:
                                raise AutomatonError(
                                    "NOT state inside an ε-cycle: filter has "
                                    "non-monotone recursion"
                                )
                    order.append(scc_count[0])
                    scc_count[0] += 1
        # Tarjan emits SCCs in reverse topological order already.
        self._scc_of = scc_of
        self._order = order

    def scc_of(self, state: int) -> int:
        """SCC id of a state in the same-node ε-graph."""
        if self._order is None:
            self._analyze()
        assert self._scc_of is not None
        return self._scc_of[state]
