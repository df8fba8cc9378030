"""Koch-style two-pass evaluation [16] — the pruning ablation baseline.

The algorithm of Koch (VLDB 2003), as characterised in Sections 1 and 6 of
the paper: a *pre-processing scan* converts the document into a special
per-node format, a *bottom-up pass* evaluates all filters at all nodes
(even nodes the selection will never reach), and a *top-down pass* selects
answer nodes using the precomputed filter values.

Contrast with HyPE, which does all of this in a single pass and only
evaluates filters where the selecting NFA actually goes.  The benchmarks
use this baseline to quantify the value of HyPE's pruning: the two-pass
algorithm's filter pass costs ``Θ(|T|·|AFA|)`` regardless of the query's
selectivity.
"""

from __future__ import annotations

from ..automata.afa import FINAL, TRANS, WILDCARD
from ..automata.mfa import MFA
from ..automata.truth import resolve_operator_values
from ..hype.api import to_mfa
from ..xpath import ast
from ..xtree.node import Node, XMLTree


class TwoPassEvaluator:
    """Pre-process + bottom-up filters + top-down selection."""

    name = "two-pass (Koch profile)"

    def __init__(self, query: str | ast.Path | MFA) -> None:
        self.mfa = to_mfa(query)

    # ------------------------------------------------------------------
    def run(self, tree: XMLTree) -> set[Node]:
        order = self._preprocess(tree)
        values = self._bottom_up(tree, order)
        return self._top_down(tree, values)

    # ------------------------------------------------------------------
    def _preprocess(self, tree: XMLTree) -> list[Node]:
        """The extra document scan: bottom-up node order + child tables."""
        return [node for node in reversed(tree.nodes) if node.is_element]

    def _bottom_up(self, tree: XMLTree, order: list[Node]) -> list[int]:
        """Evaluate *every* AFA state at *every* element node.

        Returns one bitmask per node id: bit ``s`` set iff pool state ``s``
        is true at that node.
        """
        pool = self.mfa.pool
        states = pool.states
        all_states = frozenset(range(len(states)))
        values: list[int] = [0] * len(tree.nodes)
        for node in order:
            node_mask = 0

            def leaf_value(state: int, node=node) -> bool:
                holder = states[state]
                if holder.kind == FINAL:
                    pred = holder.pred
                    return pred is None or pred.holds(node.columns, node.node_id)
                # TRANS: look the target up in the children's masks.
                assert holder.kind == TRANS
                target_bit = 1 << holder.target  # type: ignore[operator]
                for child in node.children:
                    if not child.is_element:
                        continue
                    if holder.label != WILDCARD and child.label != holder.label:
                        continue
                    if values[child.node_id] & target_bit:
                        return True
                return False

            resolved = resolve_operator_values(pool, all_states, leaf_value)
            for state, value in resolved.items():
                if value:
                    node_mask |= 1 << state
            values[node.node_id] = node_mask
        return values

    def _top_down(self, tree: XMLTree, values: list[int]) -> set[Node]:
        """NFA run with gates read off the precomputed masks."""
        nfa = self.mfa.nfa
        answers: set[Node] = set()
        seen: set[tuple[int, int]] = set()
        frontier: list[tuple[Node, int]] = [(tree.root, nfa.start)]
        while frontier:
            node, state = frontier.pop()
            key = (node.node_id, state)
            if key in seen:
                continue
            seen.add(key)
            entry = nfa.ann.get(state)
            if entry is not None and not (values[node.node_id] >> entry) & 1:
                continue
            if state in nfa.finals:
                answers.add(node)
            for successor in nfa.eps[state]:
                frontier.append((node, successor))
            for child in node.children:
                if not child.is_element:
                    continue
                for successor in nfa.step_targets(state, child.label):
                    frontier.append((child, successor))
        return answers
