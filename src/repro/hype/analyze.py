"""Viability analysis: can a subtree still matter to the automaton?

Given the label mask of a subtree (from :mod:`repro.hype.index`), decide

* which selecting-NFA states can still reach an accepting configuration
  consuming only labels available in the subtree (states whose filter gate
  is *definitely false* under the mask are impassable), and
* which AFA states can possibly become true within the subtree.

Both are over-approximations of "possibly useful": masks shrink as one
descends (a child's subtree labels are a subset of its parent's), so using
the subtree-root mask for all depths is sound.  NOT states are treated as
always possibly-true — refuting a negation requires proving its operand
*must* be true, which label information alone cannot.

Results are cached per mask, in an analyzer that lives as long as its
executable — per (plan, label table), not per document — and documents
expose only a handful of distinct masks, so the analysis amortises to
near-zero.
"""

from __future__ import annotations

from ..automata.afa import AND, FINAL, NOT, OR, TRANS, WILDCARD
from ..automata.mfa import MFA
from .index import TEXT_BIT_LABEL


class ViabilityAnalyzer:
    """Per-MFA viability oracle, cached by subtree label mask.

    ``bit_of`` is the label → bit map of the masks it is asked about
    (:attr:`repro.hype.index.LabelTable.bit_of`, text marker included).
    """

    def __init__(self, mfa: MFA, bit_of: dict[str, int]) -> None:
        self.mfa = mfa
        self.bit_of = bit_of
        self.text_bit = bit_of[TEXT_BIT_LABEL]
        #: Mask of all element-label bits (excludes the text marker).
        self.element_mask = sum(bit_of.values()) - self.text_bit
        self._afa_cache: dict[int, list[bool]] = {}
        self._nfa_cache: dict[int, frozenset[int]] = {}
        self._reverse = self._reverse_edges()

    # ------------------------------------------------------------------
    # AFA: possibly-true analysis
    # ------------------------------------------------------------------
    def afa_possibly_true(self, mask: int) -> list[bool]:
        """Per-pool-state "can become true in a subtree with this mask"."""
        cached = self._afa_cache.get(mask)
        if cached is not None:
            return cached
        pool = self.mfa.pool
        n = len(pool.states)
        possible = [False] * n
        element_mask = self.element_mask & mask
        text_bit = self.text_bit
        # Leaves first, then a monotone fixpoint for operator states.
        for i, state in enumerate(pool.states):
            if state.kind == FINAL:
                if state.pred is None:
                    possible[i] = True
                elif hasattr(state.pred, "value"):  # TextPred
                    possible[i] = bool(mask & text_bit)
                else:  # PositionPred — decidable anywhere
                    possible[i] = True
            elif state.kind == NOT:
                possible[i] = True  # conservative; see module docstring
        changed = True
        while changed:
            changed = False
            for i, state in enumerate(pool.states):
                if possible[i]:
                    continue
                if state.kind == TRANS:
                    assert state.target is not None
                    if state.label == WILDCARD:
                        label_ok = bool(element_mask)
                    else:
                        label_ok = bool(mask & self.bit_of.get(state.label, 0))
                    if label_ok and possible[state.target]:
                        possible[i] = True
                        changed = True
                elif state.kind == AND:
                    if all(possible[s] for s in state.eps):
                        possible[i] = True
                        changed = True
                elif state.kind == OR:
                    if any(possible[s] for s in state.eps):
                        possible[i] = True
                        changed = True
        self._afa_cache[mask] = possible
        return possible

    # ------------------------------------------------------------------
    # NFA: viable-state analysis
    # ------------------------------------------------------------------
    def viable_nfa_states(self, mask: int) -> frozenset[int]:
        """States from which some final is reachable under the mask.

        A state is *passable* when its gate (λ-annotation) is possibly true;
        the viable set is the backward closure of passable finals over
        transitions whose label lies in the mask (ε-edges always pass).
        """
        cached = self._nfa_cache.get(mask)
        if cached is not None:
            return cached
        nfa = self.mfa.nfa
        possible = self.afa_possibly_true(mask)

        def passable(state: int) -> bool:
            entry = nfa.ann.get(state)
            return entry is None or possible[entry]

        element_mask = self.element_mask & mask
        frontier = [f for f in nfa.finals if passable(f)]
        viable: set[int] = set(frontier)
        while frontier:
            state = frontier.pop()
            for source, label in self._reverse.get(state, ()):  # label edges
                if source in viable or not passable(source):
                    continue
                if label is None:  # ε
                    ok = True
                elif label == WILDCARD:
                    ok = bool(element_mask)
                else:
                    ok = bool(mask & self.bit_of.get(label, 0))
                if ok:
                    viable.add(source)
                    frontier.append(source)
        result = frozenset(viable)
        self._nfa_cache[mask] = result
        return result

    def _reverse_edges(self) -> dict[int, list[tuple[int, str | None]]]:
        reverse: dict[int, list[tuple[int, str | None]]] = {}
        nfa = self.mfa.nfa
        for source in range(nfa.num_states):
            for label, targets in nfa.trans[source].items():
                for target in targets:
                    reverse.setdefault(target, []).append((source, label))
            for target in nfa.eps[source]:
                reverse.setdefault(target, []).append((source, None))
        return reverse
