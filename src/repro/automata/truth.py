"""Per-node AFA truth computation (the ``X(n, s)`` variables of Section 4).

Two users:

* the *conceptual* evaluator (Fig. 4): a memoised recursive computation of
  ``X(n, s)`` used as a correctness oracle and as the multiple-pass
  baseline the paper contrasts HyPE with;
* HyPE itself, which computes the same values bottom-up during its single
  pass — it reuses :func:`relevance_closure`, :func:`child_relevant` and
  :func:`resolve_operator_values` from here.

Operator states form a same-node ε-graph that may be cyclic (Kleene stars
inside filters).  Truth is the *least fixpoint*: SCCs of the ε-graph are
resolved in reverse topological order (Tarjan order from the pool), with a
monotone false→true iteration inside each SCC.  NOT states are rejected
inside cycles by :meth:`AFAPool._analyze`, so they always see a fully
resolved operand.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..xtree.node import Node
from .afa import AFAPool, AND, FINAL, NOT, OR, TRANS, WILDCARD


def relevance_closure(pool: AFAPool, seed: Iterable[int]) -> frozenset[int]:
    """Close a state set under operator ε-edges (same-node reachability)."""
    result: set[int] = set()
    frontier = list(seed)
    while frontier:
        state = frontier.pop()
        if state in result:
            continue
        result.add(state)
        holder = pool.states[state]
        if holder.kind in (AND, OR, NOT):
            frontier.extend(holder.eps)
    return frozenset(result)


def child_relevant(pool: AFAPool, relevant: Iterable[int], label: str) -> set[int]:
    """Targets of transition states in ``relevant`` that match ``label``.

    These are the AFA states that become relevant at a child node carrying
    ``label`` (before closing under ε again).
    """
    targets: set[int] = set()
    for state in relevant:
        holder = pool.states[state]
        if holder.kind == TRANS and (
            holder.label == label or holder.label == WILDCARD
        ):
            assert holder.target is not None
            targets.add(holder.target)
    return targets


def resolve_operator_values(
    pool: AFAPool,
    relevant: Iterable[int],
    leaf_value: Callable[[int], bool],
) -> dict[int, bool]:
    """Resolve truth of all states in ``relevant`` at one tree node.

    ``leaf_value(s)`` supplies the (already known) values of transition and
    final states; operator states are resolved here via the SCC fixpoint.

    Returns a complete ``state -> bool`` map over ``relevant``.
    """
    values: dict[int, bool] = {}
    operators: list[int] = []
    for state in relevant:
        holder = pool.states[state]
        if holder.kind in (TRANS, FINAL):
            values[state] = leaf_value(state)
        else:
            operators.append(state)
    if not operators:
        return values

    # Group operator states by SCC and resolve in reverse topological order
    # (low SCC ids are dependency-first in the pool's Tarjan ordering).
    operators.sort(key=pool.scc_of)
    index = 0
    while index < len(operators):
        scc = pool.scc_of(operators[index])
        group = []
        while index < len(operators) and pool.scc_of(operators[index]) == scc:
            group.append(operators[index])
            index += 1
        _fixpoint(pool, group, values)
    return values


def _fixpoint(pool: AFAPool, group: list[int], values: dict[int, bool]) -> None:
    """Least-fixpoint iteration for one SCC of operator states."""
    for state in group:
        values.setdefault(state, False)
    changed = True
    while changed:
        changed = False
        for state in group:
            holder = pool.states[state]
            if holder.kind == AND:
                new = all(values.get(s, False) for s in holder.eps)
            elif holder.kind == OR:
                new = any(values.get(s, False) for s in holder.eps)
            else:  # NOT — operand lies in an earlier SCC, fully resolved.
                new = not values.get(holder.eps[0], False)
            if new and not values[state]:
                values[state] = True
                changed = True
            elif not new and holder.kind == NOT:
                values[state] = False


class MemoAFAEvaluator:
    """Memoised recursive computation of ``X(n, s)`` over a whole tree.

    This is the conceptual, multiple-pass evaluation of Section 4 (Fig. 4):
    each filter invocation may traverse the subtree again, but values are
    shared through the ``(node, state)`` memo table.
    """

    def __init__(self, pool: AFAPool) -> None:
        self.pool = pool
        self.memo: dict[tuple[int, int], bool] = {}
        #: Number of (node, state) evaluations actually performed.
        self.evaluations = 0

    def holds(self, entry: int, node: Node) -> bool:
        """Whether the filter with entry state ``entry`` holds at ``node``."""
        return self._value(entry, node)

    # ------------------------------------------------------------------
    def _value(self, state: int, node: Node) -> bool:
        key = (node.node_id, state)
        if key in self.memo:
            return self.memo[key]
        holder = self.pool.states[state]
        if holder.kind == FINAL:
            result = holder.pred is None or holder.pred.holds(node.columns, node.node_id)
        elif holder.kind == TRANS:
            result = self._trans_value(holder.label, holder.target, node)
        else:
            # Resolve the operator's full same-node cluster in one go.
            relevant = relevance_closure(self.pool, [state])
            values = resolve_operator_values(
                self.pool, relevant, lambda s: self._value(s, node)
            )
            for resolved, value in values.items():
                self.memo[(node.node_id, resolved)] = value
            result = values[state]
        self.memo[key] = result
        self.evaluations += 1
        return result

    def _trans_value(self, label: str | None, target: int | None, node: Node) -> bool:
        assert label is not None and target is not None
        for child in node.children:
            if not child.is_element:
                continue
            if label != WILDCARD and child.label != label:
                continue
            if self._value(target, child):
                return True
        return False
