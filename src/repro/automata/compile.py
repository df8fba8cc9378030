"""Thompson-style compilation of ``Xreg`` queries into MFAs (Theorem 4.1).

The construction mirrors Thompson's for regular expressions, with two
paper-specific twists:

* **Filters** compile into the AFA pool; ``Q[q]`` routes all runs that end
  ``Q`` through a *fresh* final state annotated with the filter's entry.
  Using a fresh state matters: the end states of ``Q`` may double as loop
  hubs (e.g. inside a Kleene star), and only runs *ending* ``Q`` — not runs
  iterating further — must pass the gate.
* **Nested filters** produce a single AFA (Example 5.2): path filters are
  built in continuation-passing style, so ``p[q1]`` becomes an AND state
  (check ``q1`` here ∧ continue the enclosing path here) inside one AFA.

The resulting MFA size is linear in ``|Q|``.
"""

from __future__ import annotations

from ..xpath import ast
from ..xpath.normalize import desugar, desugar_filter, simplify, simplify_filter
from .afa import AFAPool, TextPred, WILDCARD
from .mfa import MFA
from .nfa import NFA


class MFABuilder:
    """Shared construction context: one NFA plus one AFA pool."""

    def __init__(self) -> None:
        self.nfa = NFA()
        self.pool = AFAPool()

    # ------------------------------------------------------------------
    # NFA fragments
    # ------------------------------------------------------------------
    def path_fragment(self, query: ast.Path) -> tuple[int, set[int]]:
        """Build an NFA fragment for ``query``; returns (start, finals)."""
        if isinstance(query, ast.Empty):
            state = self.nfa.new_state()
            return state, {state}
        if isinstance(query, ast.Label):
            start = self.nfa.new_state()
            end = self.nfa.new_state()
            self.nfa.add_edge(start, query.name, end)
            return start, {end}
        if isinstance(query, ast.Wildcard):
            start = self.nfa.new_state()
            end = self.nfa.new_state()
            self.nfa.add_edge(start, WILDCARD, end)
            return start, {end}
        if isinstance(query, ast.Concat):
            left_start, left_finals = self.path_fragment(query.left)
            right_start, right_finals = self.path_fragment(query.right)
            for final in left_finals:
                self.nfa.add_eps(final, right_start)
            return left_start, right_finals
        if isinstance(query, ast.Union):
            start = self.nfa.new_state()
            left_start, left_finals = self.path_fragment(query.left)
            right_start, right_finals = self.path_fragment(query.right)
            self.nfa.add_eps(start, left_start)
            self.nfa.add_eps(start, right_start)
            return start, left_finals | right_finals
        if isinstance(query, ast.Star):
            hub = self.nfa.new_state()
            inner_start, inner_finals = self.path_fragment(query.inner)
            self.nfa.add_eps(hub, inner_start)
            for final in inner_finals:
                self.nfa.add_eps(final, hub)
            return hub, {hub}
        if isinstance(query, ast.Filtered):
            start, finals = self.path_fragment(query.path)
            gate = self.nfa.new_state()
            for final in finals:
                self.nfa.add_eps(final, gate)
            entry = self.filter_entry(query.predicate)
            self.nfa.annotate(gate, entry)
            return start, {gate}
        raise TypeError(f"unknown path node {query!r}")

    # ------------------------------------------------------------------
    # AFA construction (continuation-passing over the pool)
    # ------------------------------------------------------------------
    def filter_entry(self, predicate: ast.Filter) -> int:
        """Compile a filter into the pool; returns its entry state id."""
        if isinstance(predicate, ast.Exists):
            final = self.pool.new_final(None)
            return self.afa_path(predicate.path, final)
        if isinstance(predicate, ast.TextEquals):
            final = self.pool.new_final(TextPred(predicate.value))
            return self.afa_path(predicate.path, final)
        if isinstance(predicate, ast.Not):
            return self.pool.new_not(self.filter_entry(predicate.inner))
        if isinstance(predicate, ast.And):
            return self.pool.new_and(
                [self.filter_entry(predicate.left), self.filter_entry(predicate.right)]
            )
        if isinstance(predicate, ast.Or):
            return self.pool.new_or(
                [self.filter_entry(predicate.left), self.filter_entry(predicate.right)]
            )
        raise TypeError(f"unknown filter node {predicate!r}")

    def afa_path(self, path: ast.Path, continuation: int) -> int:
        """AFA entry for "walk ``path``, then ``continuation`` holds there"."""
        if isinstance(path, ast.Empty):
            return continuation
        if isinstance(path, ast.Label):
            return self.pool.new_trans(path.name, continuation)
        if isinstance(path, ast.Wildcard):
            return self.pool.new_trans(WILDCARD, continuation)
        if isinstance(path, ast.Concat):
            rest = self.afa_path(path.right, continuation)
            return self.afa_path(path.left, rest)
        if isinstance(path, ast.Union):
            return self.pool.new_or(
                [
                    self.afa_path(path.left, continuation),
                    self.afa_path(path.right, continuation),
                ]
            )
        if isinstance(path, ast.Star):
            hub = self.pool.new_or()
            body = self.afa_path(path.inner, hub)
            self.pool.wire(hub, continuation, body)
            return hub
        if isinstance(path, ast.Filtered):
            # Reach the node via ``path.path``; there, the nested filter must
            # hold AND the continuation must hold — one AND state, single AFA.
            gate = self.pool.new_and(
                [self.filter_entry(path.predicate), continuation]
            )
            return self.afa_path(path.path, gate)
        raise TypeError(f"unknown path node {path!r}")

    # ------------------------------------------------------------------
    def finish(self, start: int, finals: set[int], description: str = "") -> MFA:
        """Assemble the MFA from a fragment."""
        self.nfa.start = start
        self.nfa.finals = set(finals)
        mfa = MFA(self.nfa, self.pool, description=description)
        mfa.validate()
        return mfa


def compile_query(query: ast.Path, description: str | None = None) -> MFA:
    """Compile an ``Xreg``/``X`` query into an equivalent MFA.

    ``//`` is desugared to ``(*)*`` first (the builder knows no ``//``),
    and the query simplified so Kleene stars over nullable bodies do not
    inject gratuitous ε-cycles.
    """
    prepared = simplify(desugar(query))
    builder = MFABuilder()
    start, finals = builder.path_fragment(prepared)
    return builder.finish(
        start, finals, description=description or "compiled query"
    )


def compile_filter(predicate: ast.Filter) -> tuple[MFA, int]:
    """Compile a stand-alone filter; returns a carrier MFA and the entry id.

    The carrier MFA has a single state that is both start and final,
    annotated with the filter — evaluating it at a node returns the node
    itself iff the filter holds (useful for testing filters in isolation).
    The filter is desugared and simplified as :func:`compile_query` does.
    """
    builder = MFABuilder()
    state = builder.nfa.new_state()
    entry = builder.filter_entry(simplify_filter(desugar_filter(predicate)))
    builder.nfa.annotate(state, entry)
    mfa = builder.finish(state, {state}, description="compiled filter")
    return mfa, entry
