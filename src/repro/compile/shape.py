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

One step earlier, a query *text*'s **frame** (:func:`frame_of`) is the
text with each non-empty quoted literal replaced by its equality class.
The lexer reads two texts of one frame as the same tokens apart from the
string values, and :func:`repro.xpath.normalize.normal_form` reads a
literal only through ``==``, so every text of a frame has the same
normal form up to its literals.  A :class:`Frame` records that once —
the display and normal-form texts cut at their literals, the shape and
which literal fills each slot — and :meth:`Frame.render` gives another
text of the frame its texts and literals with no parse, no
normalisation and no :func:`shape_of`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..automata.afa import FINAL, TextPred
from ..automata.mfa import MFA
from ..xpath import ast
from ..xpath.unparse import quote_literal, unparse
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

    def lift(value: str) -> Slot:
        if value not in slots:
            slots[value] = Slot(len(slots))
        return slots[value]

    shape = _map_path(normalized.ast, lift)
    if not slots:
        return normalized, ()
    return NormalizedQuery(shape, unparse(shape)), tuple(slots)


def fill(shape: NormalizedQuery, literals: tuple[str, ...]) -> NormalizedQuery:
    """The normalized query whose :func:`shape_of` is ``(shape,
    literals)``: each slot given its literal back."""
    query = _map_path(shape.ast, lambda slot: literals[slot.index])
    return NormalizedQuery(query, unparse(query))


def _map_path(node: ast.Path, fn) -> ast.Path:
    """``node`` with ``fn`` applied to each non-empty literal."""
    if isinstance(node, (ast.Concat, ast.Union)):
        return type(node)(_map_path(node.left, fn), _map_path(node.right, fn))
    if isinstance(node, ast.Star):
        return ast.Star(_map_path(node.inner, fn))
    if isinstance(node, ast.Filtered):
        return ast.Filtered(_map_path(node.path, fn), _map_test(node.predicate, fn))
    return node


def _map_test(node: ast.Filter, fn) -> ast.Filter:
    if isinstance(node, ast.Exists):
        return ast.Exists(_map_path(node.path, fn))
    if isinstance(node, ast.TextEquals):
        value = node.value
        return ast.TextEquals(_map_path(node.path, fn), fn(value) if value else value)
    if isinstance(node, ast.Not):
        return ast.Not(_map_test(node.inner, fn))
    return type(node)(_map_test(node.left, fn), _map_test(node.right, fn))


#: A quoted literal as the lexer reads one: a quote character up to the
#: next of the same (``re.split`` keeps it, between the pieces around it).
_LITERAL = re.compile(r"""('[^']*'|"[^"]*")""")


def frame_of(text: str) -> tuple[tuple, tuple[str, ...]]:
    """``(frame, values)`` of a query text: the text cut at its quoted
    literals, alternately a piece of text and a literal's equality class
    (numbered by first occurrence), and the literals in class order.

    An empty literal stays inline in its piece, as it stays in the
    shape.  A text without a non-empty literal is ``((text,), ())``.
    """
    classes: dict[str, int] = {}
    frame = _cut(text, classes)
    return frame, tuple(classes)


def _cut(text: str, classes: dict[str, int]) -> tuple:
    """``text`` cut at its quoted literals, each non-empty one mapped by
    value to its class in ``classes`` (a new value gets the next)."""
    parts = _LITERAL.split(text)
    cut = [parts[0]]
    for at in range(1, len(parts), 2):
        value = parts[at][1:-1]
        if value:
            cut += (classes.setdefault(value, len(classes)), parts[at + 1])
        else:
            cut[-1] += parts[at] + parts[at + 1]
    return tuple(cut)


def _render(cut: tuple, values: tuple[str, ...]) -> str:
    parts = list(cut)
    for at in range(1, len(parts), 2):
        parts[at] = quote_literal(values[parts[at]])
    return "".join(parts)


@dataclass(frozen=True, eq=False)
class Frame:
    """What every text of one frame shares, learnt from one of them.

    ``display`` and ``normal`` are the text's display text (the unparse
    of its parse) and normal-form text, cut at their literals like a
    frame; ``slots`` gives each of the shape's slots its literal's class.
    It holds texts and the shape, never a plan or a template.
    """

    display: tuple
    normal: tuple
    shape: NormalizedQuery
    slots: tuple[int, ...]

    @classmethod
    def of(
        cls,
        values: tuple[str, ...],
        display: str,
        normal: str,
        shape: NormalizedQuery,
        literals: tuple[str, ...],
    ) -> "Frame":
        """The frame of a text whose :func:`frame_of` gave ``values``,
        whose display and normal-form texts are ``display`` and
        ``normal``, and whose :func:`shape_of` is ``(shape, literals)``."""
        classes = {value: index for index, value in enumerate(values)}
        return cls(
            _cut(display, classes),
            _cut(normal, classes),
            shape,
            tuple(classes[literal] for literal in literals),
        )

    def render(self, values: tuple[str, ...]) -> tuple[str, str, tuple[str, ...]]:
        """``(display, normal, literals)`` of the text of this frame whose
        :func:`frame_of` gave ``values``: what parsing, normalising and
        :func:`shape_of` would give it."""
        return (
            _render(self.display, values),
            _render(self.normal, values),
            tuple(values[index] for index in self.slots),
        )


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
    template: Template, normalized: str, literals: tuple[str, ...]
) -> PlanArtifact:
    """The artifact of the query whose normal-form text is ``normalized``
    (and whose :func:`shape_of` gave ``template``'s shape and
    ``literals``), equal to a fresh compile's byte for byte.

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
    description = normalized if template.view_fingerprint is None else mfa.description
    instance = MFA(mfa.nfa, pool, description=description, meta=dict(mfa.meta))
    return PlanArtifact(
        mfa=instance,
        normalized_query=normalized,
        view_fingerprint=template.view_fingerprint,
        description=description or normalized,
        closure=_dense_closure(instance),
    )
