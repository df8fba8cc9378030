"""Hypothesis strategies and the inputs several test modules share.

Random documents over a small alphabet, random ``Xreg`` queries (paths +
filters), a family of recursive *view specifications* whose annotations
are simple enough to keep materialisation fast, and ``plan_churn``'s
query templates.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from hypothesis import strategies as st

from repro.dtd import parse_dtd
from repro.views import view_spec
from repro.xpath import ast
from repro.xtree.build import element, text_node
from repro.xtree.node import XMLTree

LABELS = ("a", "b", "c")
TEXTS = ("x", "y")

_HYGIENE = Path(__file__).resolve().parents[1] / "benchmarks" / "churn_hygiene.py"


def load_hygiene():
    """``benchmarks/churn_hygiene.py`` as a module (it is a script, not
    part of a package)."""
    spec = importlib.util.spec_from_file_location("churn_hygiene", _HYGIENE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The ``plan_churn`` templates of ``benchmarks/e2e``, one fresh constant.
CHURN = [t.format(c="k7n1") for t in load_hygiene().CHURN_TEMPLATES]

SRC_DTD = parse_dtd(
    """
    root s
    s -> a*
    a -> a*, b*, t*
    b -> t*
    t -> #PCDATA
    """
)

#: Recursive view over SRC_DTD with restructuring annotations.
VIEW_DTD = parse_dtd(
    """
    root v
    v -> p*
    p -> p*, leaf*
    leaf -> #PCDATA
    """
)


def make_view(p_annotation: str, leaf_annotation: str):
    return view_spec(
        SRC_DTD,
        VIEW_DTD,
        {
            ("v", "p"): "a",
            ("p", "p"): p_annotation,
            ("p", "leaf"): leaf_annotation,
        },
    )


VIEWS = [
    make_view("a", "t"),
    make_view("a[t]", "b/t"),
    make_view("a/a | b", "t | b/t"),
    make_view("(a)*/b", "t"),
]


# ----------------------------------------------------------------------
# Trees
# ----------------------------------------------------------------------
@st.composite
def trees(draw, max_depth: int = 4, max_children: int = 3) -> XMLTree:
    """Random element trees with occasional text leaves."""

    def build(depth: int):
        node = element(draw(st.sampled_from(LABELS)))
        if draw(st.booleans()):
            node.append(text_node(draw(st.sampled_from(TEXTS))))
        if depth < max_depth:
            for _ in range(draw(st.integers(0, max_children))):
                node.append(build(depth + 1))
        return node

    return XMLTree(build(0))


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def _atoms(labels=LABELS) -> st.SearchStrategy[ast.Path]:
    return st.one_of(
        st.sampled_from([ast.Label(label) for label in labels]),
        st.just(ast.Wildcard()),
        st.just(ast.Empty()),
        st.just(ast.DescOrSelf()),
    )


def paths(
    max_leaves: int = 8, labels=LABELS, texts=TEXTS
) -> st.SearchStrategy[ast.Path]:
    """Random ``Xreg`` path expressions (with ``//`` and filters) over
    ``labels``, comparing text against ``texts``."""
    return st.recursive(
        _atoms(labels),
        lambda inner: st.one_of(
            st.builds(ast.Concat, inner, inner),
            st.builds(ast.Union, inner, inner),
            st.builds(ast.Star, inner),
            st.builds(ast.Filtered, inner, filters(inner, texts)),
        ),
        max_leaves=max_leaves,
    )


def gated_paths() -> st.SearchStrategy[ast.Path]:
    """Queries with a gate on the way to their answers (deaths happen).
    One inner strategy object throughout: building one is the slow part."""
    inner = paths(3)
    exists = st.builds(ast.Exists, inner)
    gated = st.builds(
        ast.Filtered, inner, st.one_of(exists, st.builds(ast.Not, exists))
    )
    return st.one_of(
        gated,
        st.builds(ast.Concat, gated, inner),
        st.builds(ast.Star, gated),
        st.builds(ast.Union, st.builds(ast.Concat, gated, inner), inner),
    )


def filters(
    path_strategy: st.SearchStrategy[ast.Path], texts=TEXTS
) -> st.SearchStrategy[ast.Filter]:
    """Random filters over the given path strategy."""
    base = st.one_of(
        st.builds(ast.Exists, path_strategy),
        st.builds(
            ast.TextEquals, path_strategy, st.sampled_from(texts)
        ),
    )
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.builds(ast.Not, inner),
            st.builds(ast.And, inner, inner),
            st.builds(ast.Or, inner, inner),
        ),
        max_leaves=4,
    )


def other_literals(node: ast.Path | ast.Filter):
    """``node`` with each non-empty literal ``v`` turned to ``v~``: equal
    where ``node``'s literals are equal, so of the same shape."""
    if isinstance(node, (ast.Concat, ast.Union, ast.And, ast.Or)):
        return type(node)(other_literals(node.left), other_literals(node.right))
    if isinstance(node, (ast.Star, ast.Not)):
        return type(node)(other_literals(node.inner))
    if isinstance(node, ast.Filtered):
        return ast.Filtered(other_literals(node.path), other_literals(node.predicate))
    if isinstance(node, ast.Exists):
        return ast.Exists(other_literals(node.path))
    if isinstance(node, ast.TextEquals):
        return ast.TextEquals(other_literals(node.path), node.value and f"{node.value}~")
    return node


def x_fragment_paths(max_leaves: int = 8) -> st.SearchStrategy[ast.Path]:
    """Random ``X``-fragment paths (no Kleene star, ``//`` allowed)."""
    return st.recursive(
        _atoms(),
        lambda inner: st.one_of(
            st.builds(ast.Concat, inner, inner),
            st.builds(ast.Union, inner, inner),
            st.builds(ast.Filtered, inner, filters(inner)),
        ),
        max_leaves=max_leaves,
    )
