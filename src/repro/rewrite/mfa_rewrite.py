"""Algorithm ``rewrite`` (Section 5): view queries → MFAs over the source.

Dynamic programming over ``(sub-query, view type)`` pairs, exactly the
``rewr(Q', A)`` of the paper: for each sub-query of ``Q`` and element type
``A`` of the view DTD, build (once — results are memoised and shared
through ε-edges) an NFA fragment over the *source* alphabet equivalent to
``Q'`` evaluated at ``A``-typed view nodes.

* a view label step ``B`` in context ``A`` inlines the compiled automaton
  of the annotation ``σ(A,B)``;
* concatenation routes each typed end of the left fragment into the right
  fragment built for that type (Example 5.1's ``M³`` construction);
* Kleene star allocates one *hub* state per view type touched by the loop
  and wires iteration ends back to the hub of their end type (the
  ε-transitions "for the recursion" of Example 5.1);
* filters compile to AFAs over the source by *embedding* the typed NFA
  fragment of the filter path into AFA form — nondeterministic branching
  becomes OR states, λ-annotations become AND gates, nested filters land in
  one flat AFA (Example 5.2).

The dynamic program is keyed by *parse-tree position* and view type — not
by sub-query value.  Value-keyed sharing would be unsound: a fragment built
for one occurrence of ``X`` may receive continuation ε-edges (say into a
Kleene hub) that must not apply to a different occurrence (``X | X*`` is
the minimal counterexample: value-sharing would accept ``X/X/Y`` for the
query ``X/Y | X*``).  Per-position memoisation still gives the paper's
bound: each position is built for at most ``|D_V|`` types and each build
inlines at most one ``σ(A,B)`` automaton, so the output MFA has size
``O(|Q|·|σ|·|D_V|)`` and is built in low polynomial time (Theorem 5.1) —
in stark contrast with the exponential direct rewriting of
:mod:`repro.rewrite.direct`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..automata.afa import TextPred, WILDCARD
from ..automata.compile import MFABuilder
from ..automata.mfa import MFA
from ..automata.nfa import NFA
from ..dtd.model import StrContent
from ..errors import RewriteError
from ..views.spec import ViewSpec
from ..xpath import ast
from ..xpath.fragment import to_xreg
from ..xpath.normalize import simplify
from ..xpath.parser import parse_query

#: Typed fragment: entry state + final states grouped by view end type.
@dataclass(frozen=True)
class TypedFragment:
    start: int
    finals: dict[str, frozenset[int]]

    def all_finals(self) -> frozenset[int]:
        result: set[int] = set()
        for finals in self.finals.values():
            result |= finals
        return result


class MFARewriter:
    """The dynamic program; one instance per (view, query) rewriting."""

    def __init__(self, spec: ViewSpec) -> None:
        self.spec = spec
        self.builder = MFABuilder()
        self._edges = set(spec.view_dtd.edges())
        self._children: dict[str, tuple[str, ...]] = {
            label: tuple(dict.fromkeys(content.child_labels()))
            for label, content in spec.view_dtd.productions.items()
        }
        self._str_types = {
            label
            for label, content in spec.view_dtd.productions.items()
            if isinstance(content, StrContent)
        }
        # Keyed by (id(position), type); _pins keeps the uniquified AST
        # alive so ids stay stable for the rewriting's duration.
        self._path_memo: dict[tuple[int, str], TypedFragment] = {}
        self._filter_memo: dict[tuple[int, str], int] = {}
        self._pins: list[ast.Path | ast.Filter] = []

    # ------------------------------------------------------------------
    def rewrite(self, query: ast.Path, *, trim: bool = True) -> MFA:
        """Compute the MFA ``M`` with ``M(T) = Q(σ(T))`` for all ``T``.

        ``trim=False`` returns the raw construction (dead filter-path
        fragments still in the selecting NFA); callers that time the
        pipeline stage-by-stage (:mod:`repro.compile`) run
        :func:`trim_mfa` themselves.
        """
        prepared = _uniquify_path(simplify(to_xreg(query)))
        self._pins.append(prepared)
        fragment = self.rewr(prepared, self.spec.view_dtd.root)
        mfa = self.builder.finish(
            fragment.start,
            set(fragment.all_finals()),
            description="rewritten view query",
        )
        return trim_mfa(mfa) if trim else mfa

    # ------------------------------------------------------------------
    # rewr(Q', A) — the typed dynamic program
    # ------------------------------------------------------------------
    def rewr(self, query: ast.Path, view_type: str) -> TypedFragment:
        key = (id(query), view_type)
        cached = self._path_memo.get(key)
        if cached is not None:
            return cached
        fragment = self._build(query, view_type)
        self._path_memo[key] = fragment
        return fragment

    def _build(self, query: ast.Path, view_type: str) -> TypedFragment:
        nfa = self.builder.nfa
        if isinstance(query, ast.Empty):
            state = nfa.new_state()
            return TypedFragment(state, {view_type: frozenset({state})})
        if isinstance(query, ast.Label):
            return self._step(view_type, query.name)
        if isinstance(query, ast.Wildcard):
            return self._wildcard(view_type)
        if isinstance(query, ast.Concat):
            return self._concat(query, view_type)
        if isinstance(query, ast.Union):
            left = self.rewr(query.left, view_type)
            right = self.rewr(query.right, view_type)
            start = nfa.new_state()
            nfa.add_eps(start, left.start)
            nfa.add_eps(start, right.start)
            return TypedFragment(start, _merge(left.finals, right.finals))
        if isinstance(query, ast.Star):
            return self._star(query, view_type)
        if isinstance(query, ast.Filtered):
            return self._filtered(query, view_type)
        raise RewriteError(f"cannot rewrite path node {query!r}")

    def _step(self, view_type: str, child: str) -> TypedFragment:
        """One view child step: inline the σ(A,B) automaton."""
        nfa = self.builder.nfa
        if (view_type, child) not in self._edges:
            dead = nfa.new_state()
            return TypedFragment(dead, {})
        annotation = self.spec.annotation(view_type, child)
        start, finals = self.builder.path_fragment(annotation)
        return TypedFragment(start, {child: frozenset(finals)})

    def _wildcard(self, view_type: str) -> TypedFragment:
        nfa = self.builder.nfa
        start = nfa.new_state()
        finals: dict[str, frozenset[int]] = {}
        for child in self._children.get(view_type, ()):
            piece = self._step(view_type, child)
            nfa.add_eps(start, piece.start)
            finals = _merge(finals, piece.finals)
        return TypedFragment(start, finals)

    def _concat(self, query: ast.Concat, view_type: str) -> TypedFragment:
        nfa = self.builder.nfa
        left = self.rewr(query.left, view_type)
        finals: dict[str, frozenset[int]] = {}
        for middle_type, left_finals in left.finals.items():
            right = self.rewr(query.right, middle_type)
            for final in left_finals:
                nfa.add_eps(final, right.start)
            finals = _merge(finals, right.finals)
        return TypedFragment(left.start, finals)

    def _star(self, query: ast.Star, view_type: str) -> TypedFragment:
        """Per-type hub states; iteration ends loop back via ε (Ex. 5.1)."""
        nfa = self.builder.nfa
        hubs: dict[str, int] = {view_type: nfa.new_state()}
        worklist = [view_type]
        while worklist:
            current = worklist.pop()
            body = self.rewr(query.inner, current)
            nfa.add_eps(hubs[current], body.start)
            for end_type, body_finals in body.finals.items():
                hub = hubs.get(end_type)
                if hub is None:
                    hub = nfa.new_state()
                    hubs[end_type] = hub
                    worklist.append(end_type)
                for final in body_finals:
                    nfa.add_eps(final, hub)
        return TypedFragment(
            hubs[view_type],
            {t: frozenset({hub}) for t, hub in hubs.items()},
        )

    def _filtered(self, query: ast.Filtered, view_type: str) -> TypedFragment:
        nfa = self.builder.nfa
        inner = self.rewr(query.path, view_type)
        finals: dict[str, frozenset[int]] = {}
        for end_type, end_finals in inner.finals.items():
            entry = self.rewr_filter(query.predicate, end_type)
            gate = nfa.new_state()
            for final in end_finals:
                nfa.add_eps(final, gate)
            self.builder.nfa.annotate(gate, entry)
            finals = _merge(finals, {end_type: frozenset({gate})})
        return TypedFragment(inner.start, finals)

    # ------------------------------------------------------------------
    # rewr for filters — typed NFA fragments embedded as AFAs
    # ------------------------------------------------------------------
    def rewr_filter(self, predicate: ast.Filter, view_type: str) -> int:
        """AFA entry for ``predicate`` at ``view_type`` contexts.

        A filter that is provably false at this type (e.g. a text
        comparison on a type that cannot reach any str-typed view node)
        compiles to an OR state with no alternatives — constant false.
        """
        key = (id(predicate), view_type)
        if key in self._filter_memo:
            return self._filter_memo[key]
        entry = self._build_filter(predicate, view_type)
        self._filter_memo[key] = entry
        return entry

    def _build_filter(self, predicate: ast.Filter, view_type: str) -> int:
        pool = self.builder.pool
        if isinstance(predicate, ast.Exists):
            fragment = self.rewr(predicate.path, view_type)
            pred_for = {t: "plain" for t in fragment.finals}
            if not fragment.finals:
                return pool.new_or([])  # false
            return self._embed(fragment, pred_for, None)
        if isinstance(predicate, ast.TextEquals):
            fragment = self.rewr(predicate.path, view_type)
            pred_for: dict[str, str] = {}
            for end_type in fragment.finals:
                if end_type in self._str_types:
                    pred_for[end_type] = "text"
                elif predicate.value == "":
                    # Non-str view nodes carry empty text.
                    pred_for[end_type] = "plain"
            if not pred_for:
                return pool.new_or([])  # false
            return self._embed(fragment, pred_for, predicate.value)
        if isinstance(predicate, ast.Not):
            return pool.new_not(self.rewr_filter(predicate.inner, view_type))
        if isinstance(predicate, ast.And):
            left = self.rewr_filter(predicate.left, view_type)
            right = self.rewr_filter(predicate.right, view_type)
            return pool.new_and([left, right])
        if isinstance(predicate, ast.Or):
            left = self.rewr_filter(predicate.left, view_type)
            right = self.rewr_filter(predicate.right, view_type)
            return pool.new_or([left, right])
        raise RewriteError(f"cannot rewrite filter node {predicate!r}")

    def _embed(
        self,
        fragment: TypedFragment,
        pred_for: dict[str, str],
        text_value: str | None,
    ) -> int:
        """Embed a typed NFA fragment into the AFA pool.

        Each NFA state reachable from the fragment start becomes an OR state
        whose alternatives are (a) one transition state per labelled edge,
        (b) the shells of its ε-successors, and (c) a final when the state
        ends the fragment at an accepting type.  λ-annotated states become
        ``AND(gate, OR(...))``.
        """
        nfa = self.builder.nfa
        pool = self.builder.pool
        finals_by_state: dict[int, str] = {}
        for end_type, finals in fragment.finals.items():
            kind = pred_for.get(end_type)
            if kind is None:
                continue
            for state in finals:
                # An NFA state ends at exactly one view type in our
                # construction (fragments keep types separate).
                finals_by_state[state] = kind

        reachable = _reachable_from(nfa, fragment.start)
        shells: dict[int, int] = {}
        anchors: dict[int, int] = {}
        for state in reachable:
            shell = pool.new_or([])
            shells[state] = shell
            gate = nfa.ann.get(state)
            if gate is not None:
                anchors[state] = pool.new_and([gate, shell])
            else:
                anchors[state] = shell

        for state in reachable:
            alternatives: list[int] = []
            for label, targets in nfa.trans[state].items():
                for target in targets:
                    if target in anchors:
                        alternatives.append(pool.new_trans(label, anchors[target]))
            for target in nfa.eps[state]:
                if target in anchors:
                    alternatives.append(anchors[target])
            kind = finals_by_state.get(state)
            if kind == "plain":
                alternatives.append(pool.new_final(None))
            elif kind == "text":
                assert text_value is not None
                alternatives.append(pool.new_final(TextPred(text_value)))
            pool.wire(shells[state], *alternatives)
        return anchors[fragment.start]


def _uniquify_path(node: ast.Path) -> ast.Path:
    """Rebuild the AST so every position is a distinct object.

    User-built ASTs may share subtree objects between positions (e.g.
    ``union(x, star(x))`` with one ``x``); the id-keyed memo requires each
    position to have its own identity.
    """
    if isinstance(node, ast.Concat):
        return ast.Concat(_uniquify_path(node.left), _uniquify_path(node.right))
    if isinstance(node, ast.Union):
        return ast.Union(_uniquify_path(node.left), _uniquify_path(node.right))
    if isinstance(node, ast.Star):
        return ast.Star(_uniquify_path(node.inner))
    if isinstance(node, ast.Filtered):
        return ast.Filtered(
            _uniquify_path(node.path), _uniquify_filter(node.predicate)
        )
    if isinstance(node, ast.Label):
        return ast.Label(node.name)
    if isinstance(node, ast.Empty):
        return ast.Empty()
    if isinstance(node, ast.Wildcard):
        return ast.Wildcard()
    raise RewriteError(f"cannot uniquify path node {node!r}")


def _uniquify_filter(node: ast.Filter) -> ast.Filter:
    if isinstance(node, ast.Exists):
        return ast.Exists(_uniquify_path(node.path))
    if isinstance(node, ast.TextEquals):
        return ast.TextEquals(_uniquify_path(node.path), node.value)
    if isinstance(node, ast.Not):
        return ast.Not(_uniquify_filter(node.inner))
    if isinstance(node, ast.And):
        return ast.And(_uniquify_filter(node.left), _uniquify_filter(node.right))
    if isinstance(node, ast.Or):
        return ast.Or(_uniquify_filter(node.left), _uniquify_filter(node.right))
    raise RewriteError(f"cannot uniquify filter node {node!r}")


def _merge(
    left: dict[str, frozenset[int]], right: dict[str, frozenset[int]]
) -> dict[str, frozenset[int]]:
    merged = dict(left)
    for end_type, finals in right.items():
        existing = merged.get(end_type)
        merged[end_type] = finals if existing is None else existing | finals
    return merged


def _reachable_from(nfa: NFA, start: int) -> set[int]:
    seen = {start}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        for targets in nfa.trans[state].values():
            for target in targets:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        for target in nfa.eps[state]:
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


def trim_mfa(mfa: MFA) -> MFA:
    """Drop NFA states unreachable from the start (AFA pool is shared as-is).

    Rewriting builds filter-path fragments inside the selecting NFA before
    embedding them into AFAs; those fragments are dead weight afterwards.
    """
    nfa = mfa.nfa
    reachable = sorted(_reachable_from(nfa, nfa.start))
    renumber = {old: new for new, old in enumerate(reachable)}
    trimmed = NFA()
    for _ in reachable:
        trimmed.new_state()
    for old in reachable:
        new = renumber[old]
        for label, targets in nfa.trans[old].items():
            for target in targets:
                if target in renumber:
                    trimmed.add_edge(new, label, renumber[target])
        for target in nfa.eps[old]:
            if target in renumber:
                trimmed.add_eps(new, renumber[target])
        entry = nfa.ann.get(old)
        if entry is not None:
            trimmed.annotate(new, entry)
    trimmed.start = renumber[nfa.start]
    trimmed.finals = {renumber[f] for f in nfa.finals if f in renumber}
    result = MFA(trimmed, mfa.pool, description=mfa.description, meta=dict(mfa.meta))
    result.validate()
    return result


def rewrite_query(
    spec: ViewSpec, query: ast.Path | str, *, trim: bool = True
) -> MFA:
    """One-shot MFA rewriting: ``rewrite_query(σ, Q)`` returns ``M``.

    For any source tree ``T``: evaluating ``M`` at ``T``'s root equals
    ``Q(σ(T))`` as source-node sets (view answers mapped by provenance).
    ``trim=False`` skips the final :func:`trim_mfa` (see
    :meth:`MFARewriter.rewrite`).
    """
    if isinstance(query, str):
        query = parse_query(query)
    return MFARewriter(spec).rewrite(query, trim=trim)
