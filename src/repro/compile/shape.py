"""Plan templates: one rewrite per query *shape*.

A query's string constants enter the MFA only at its leaves, as the
``text() = 'c'`` predicates of AFA final states; the rewritten automaton,
its trim and its dense closure (whose configurations are state-id sets)
are a function of the query with each literal replaced by a slot — its
*shape*.  The one literal that changes the structure is the empty string
(a non-str view type carries empty text, so ``text() = ''`` holds there:
``MFARewriter._build_filter``), so empty literals stay in the shape.

* :func:`shape_of` lifts the literals out of a normal form;
* :class:`Template` is a shape's compiled artifact, with the AFA finals
  each slot became;
* :func:`instantiate` builds a query's artifact from its shape's
  template: the template's NFA and non-final AFA states, a fresh final
  per slot, and a freshly closed plan — the bytes of a fresh compile.

A slot's sentinel literal is a :class:`Slot`: a template's finals are
found by the sentinel's *type*, never by its text, so a view annotation
whose literal reads like a sentinel is never substituted.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..automata.afa import FINAL, TextPred
from ..automata.mfa import MFA
from ..xpath import ast
from ..xpath.unparse import unparse
from .artifact import PlanArtifact
from .pipeline import NormalizedQuery, _dense_closure


class Slot(str):
    """The sentinel literal of a shape's slot ``index``: ``$<index>``."""

    def __new__(cls, index: int) -> "Slot":
        slot = super().__new__(cls, f"${index}")
        slot.index = index
        return slot


def shape_of(
    normalized: NormalizedQuery,
) -> tuple[NormalizedQuery, tuple[str, ...]]:
    """``(shape, literals)`` of a normalized query: the normal form with
    every non-empty literal replaced by a :class:`Slot`, and the literals
    in slot order.

    Equal literals share a slot (numbered by first occurrence, in text
    order): ``simplify`` merges equal operands of ``and`` / ``or``, so
    which literals are equal is part of the shape.  A query without a
    non-empty literal is its own shape: ``(normalized, ())``.
    """
    slots: dict[str, Slot] = {}
    shape = _lift_path(normalized.ast, slots)
    if not slots:
        return normalized, ()
    return NormalizedQuery(shape, unparse(shape)), tuple(slots)


def _lift_path(node: ast.Path, slots: dict[str, Slot]) -> ast.Path:
    if isinstance(node, (ast.Concat, ast.Union)):
        return type(node)(_lift_path(node.left, slots), _lift_path(node.right, slots))
    if isinstance(node, ast.Star):
        return ast.Star(_lift_path(node.inner, slots))
    if isinstance(node, ast.Filtered):
        return ast.Filtered(
            _lift_path(node.path, slots), _lift_test(node.predicate, slots)
        )
    return node


def _lift_test(node: ast.Filter, slots: dict[str, Slot]) -> ast.Filter:
    if isinstance(node, ast.Exists):
        return ast.Exists(_lift_path(node.path, slots))
    if isinstance(node, ast.TextEquals):
        path = _lift_path(node.path, slots)
        value = node.value
        if value:
            if value not in slots:
                slots[value] = Slot(len(slots))
            value = slots[value]
        return ast.TextEquals(path, value)
    if isinstance(node, ast.Not):
        return ast.Not(_lift_test(node.inner, slots))
    return type(node)(_lift_test(node.left, slots), _lift_test(node.right, slots))


@dataclass(frozen=True, eq=False)
class Template:
    """A shape's compiled automaton and where its slots landed.

    ``finals`` pairs each AFA state that is a slot's final with the
    slot's index.  Only the automaton is kept (the template's own dense
    closure is not: each instance closes its own), and nothing points
    back, so an evicted template dies by reference count.
    """

    mfa: MFA
    view_fingerprint: str | None
    finals: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, artifact: PlanArtifact) -> "Template":
        """The template of ``artifact``, compiled from a shape."""
        finals = tuple(
            (state, holder.pred.value.index)
            for state, holder in enumerate(artifact.mfa.pool.states)
            if holder.kind == FINAL
            and isinstance(holder.pred, TextPred)
            and isinstance(holder.pred.value, Slot)
        )
        return cls(artifact.mfa, artifact.view_fingerprint, finals)


def instantiate(
    template: Template, normalized: NormalizedQuery, literals: tuple[str, ...]
) -> PlanArtifact:
    """The artifact of ``normalized`` (whose :func:`shape_of` gave
    ``template``'s shape and ``literals``), equal to a fresh compile's
    byte for byte.

    The instance shares the template's NFA (and its cached ε-closures)
    and its non-final AFA states — an automaton is never changed once
    compiled — and gets a fresh ``TextPred`` final per slot, its own
    normalized text and description, and a fresh index-free plan closed
    by the pipeline's dense stage.
    """
    mfa = template.mfa
    pool = mfa.pool.with_predicates(
        (state, TextPred(literals[slot])) for state, slot in template.finals
    )
    # A direct query's description is its normalized text
    # (``compile_query``); a rewritten one's names the rewriting.
    description = (
        normalized.text if template.view_fingerprint is None else mfa.description
    )
    instance = MFA(mfa.nfa, pool, description=description, meta=dict(mfa.meta))
    return PlanArtifact(
        mfa=instance,
        normalized_query=normalized.text,
        view_fingerprint=template.view_fingerprint,
        description=description or normalized.text,
        closure=_dense_closure(instance),
    )
