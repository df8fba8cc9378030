"""The paper's oracle, and an independent reading of it.

:func:`reference` is the left-hand side of the rewriting equation: the
query over the *materialised* view σ(T) (:func:`repro.views.materialize`
plus :class:`repro.baselines.naive.NaiveEvaluator`), mapped back to
source ids; ``tests/test_lattice.py`` holds every configuration to it,
and anchors it to the standard library's ElementTree on the fragment
both read (child steps, ``*``, ``//``, ``[tag]``, stacked predicates).
One deviation is named, not tested away: **the paper's ``text()`` reads
an element's own text children, ElementTree's ``[tag='t']`` /
``[.='t']`` its string value** (all descendant text).  They agree on
leaves.  :func:`closure_tables` is what a plan's dense closure is when
two closures are compared.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from hypothesis import strategies as st

from repro.baselines.naive import NaiveEvaluator
from repro.views import materialize

from .strategies import LABELS


def reference(spec, tree, query, context: int = 0) -> set[int]:
    """Source ids ``query`` selects at the root of ``spec``'s view of
    ``tree`` (``spec=None``: at node ``context`` of the source itself)."""
    if spec is None:
        return {node.node_id for node in NaiveEvaluator(query).run(tree.node(context))}
    view = materialize(spec, tree)
    return {node.node_id for node in view.sources(NaiveEvaluator(query).run(view.tree))}


def as_etree(node, ids: dict) -> ET.Element:
    """``node``'s elements as ElementTree's, ``ids`` mapping back."""
    element = ET.Element(node.label)
    ids[id(element)] = node.node_id
    element.extend(as_etree(child, ids) for child in node.children if child.is_element)
    return element


@st.composite
def et_queries(draw) -> tuple[str, str]:
    """``(XPath, ElementTree path)``: 1-3 steps, each a label or ``*``
    after ``/`` or ``//``, with 0-2 stacked ``[tag]`` predicates."""
    theirs = "."
    for _ in range(draw(st.integers(1, 3))):
        theirs += draw(st.sampled_from(["/", "//"])) + draw(st.sampled_from([*LABELS, "*"]))
        theirs += "".join(f"[{tag}]" for tag in draw(st.lists(st.sampled_from(LABELS), max_size=2)))
    return (theirs if theirs[1:3] == "//" else theirs[2:]), theirs


def closure_tables(plan) -> tuple:
    """A closed plan's dense closure as plain data: the column labels,
    the closure record (expanded cfgs in BFS order, each column's child
    cfg and pre-filter base set, the cfg count) and each closure cfg's
    ``(mstates, relevant, watch)``.  Sets compare by contents, so two
    plans closed apart (other processes, other passes) have equal tables
    exactly when their closures agree; cfgs minted after the closure
    (by runs) are not part of it."""
    kern = plan.kernel
    order, children, bases, num_cfgs = kern.closure
    return (
        sorted(kern.alphabet),
        list(order),
        list(children),
        list(bases),
        num_cfgs,
        kern.cfg_mstates[:num_cfgs],
        kern.cfg_relevant[:num_cfgs],
        kern.cfg_watch[:num_cfgs],
    )
