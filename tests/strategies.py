"""Hypothesis strategies for random trees, queries and views.

Shared by the property-based differential tests: random documents over a
small alphabet, random ``Xreg`` queries (paths + filters), and random
*view specifications* whose annotations are simple enough to keep
materialisation fast but still exercise recursion.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.xpath import ast
from repro.xtree.build import element, text_node
from repro.xtree.node import XMLTree

LABELS = ("a", "b", "c")
TEXTS = ("x", "y")


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
def _atoms() -> st.SearchStrategy[ast.Path]:
    return st.one_of(
        st.sampled_from([ast.Label(label) for label in LABELS]),
        st.just(ast.Wildcard()),
        st.just(ast.Empty()),
        st.just(ast.DescOrSelf()),
    )


def paths(max_leaves: int = 8) -> st.SearchStrategy[ast.Path]:
    """Random ``Xreg`` path expressions (with ``//`` and filters)."""
    return st.recursive(
        _atoms(),
        lambda inner: st.one_of(
            st.builds(ast.Concat, inner, inner),
            st.builds(ast.Union, inner, inner),
            st.builds(ast.Star, inner),
            st.builds(ast.Filtered, inner, filters(inner)),
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


def filters(path_strategy: st.SearchStrategy[ast.Path]) -> st.SearchStrategy[ast.Filter]:
    """Random filters over the given path strategy."""
    base = st.one_of(
        st.builds(ast.Exists, path_strategy),
        st.builds(
            ast.TextEquals, path_strategy, st.sampled_from(TEXTS)
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
