"""Convenience API over the HyPE family of evaluators.

``algorithm`` selects the variant of Section 6/7:

* ``"hype"``      — plain HyPE (single pass, mstates/fstates pruning);
* ``"opthype"``   — HyPE + subtree-label index;
* ``"opthype-c"`` — HyPE + compressed (interned-mask) index.

Queries may be given as strings, ASTs or pre-compiled MFAs; indexes are
built per document and can be passed in for reuse across queries.  An
OptHyPE(-C) plan keeps only the label table and variant of the index it
was compiled with: a run prunes on the mask column of the document it is
over (the ``layout``'s, or one swept on demand when none is supplied).
"""

from __future__ import annotations

from ..automata.compile import compile_query
from ..automata.mfa import MFA
from ..docstore.layout import DocumentLayout
from ..errors import EvaluationError
from ..xpath import ast
from ..xpath.parser import parse_query
from ..xtree.node import Node, XMLTree
from .core import CompiledPlan, HyPEResult
from .index import Index, build_index

HYPE = "hype"
OPTHYPE = "opthype"
OPTHYPE_C = "opthype-c"

ALGORITHMS = (HYPE, OPTHYPE, OPTHYPE_C)


def to_mfa(query: str | ast.Path | MFA) -> MFA:
    """Coerce a query string/AST to a compiled MFA (MFAs pass through)."""
    if isinstance(query, MFA):
        return query
    if isinstance(query, str):
        query = parse_query(query)
    return compile_query(query)


def compile_plan(
    query: str | ast.Path | MFA,
    algorithm: str = HYPE,
    index: Index | None = None,
) -> CompiledPlan:
    """Compile a query into a reusable, thread-safe :class:`CompiledPlan`.

    The returned plan is immutable after warmup: many threads may call
    its :meth:`CompiledPlan.run` concurrently, and its memo tables stay
    warm across documents and runs.

    Args:
        query: Query string, AST, or compiled MFA.
        algorithm: One of :data:`ALGORITHMS`.
        index: For the opt variants, an index of a document the plan
            is to serve (``IndexedDocument.index_for``): the plan takes
            its label table and variant and keeps neither the index nor
            the table, so it serves documents of that label set for as
            long as one of them is held.

    Raises:
        EvaluationError: for unknown algorithm names or when an opt
            variant has no index to name its label table.
    """
    if algorithm not in ALGORITHMS:
        raise EvaluationError(
            f"unknown algorithm {algorithm!r}; pick one of {ALGORITHMS}"
        )
    mfa = to_mfa(query)
    if algorithm == HYPE:
        return CompiledPlan(mfa)
    if index is None:
        raise EvaluationError(
            "OptHyPE needs an index of a document it is to serve "
            "(IndexedDocument.index_for) to name its label table"
        )
    return CompiledPlan(mfa, index=index)


def evaluate_hype(
    query: str | ast.Path | MFA,
    tree: XMLTree | Node,
    algorithm: str = HYPE,
    index: Index | None = None,
) -> HyPEResult:
    """Evaluate a (regular) XPath query or MFA with the chosen variant.

    Args:
        query: Query string, AST, or compiled MFA.
        tree: Document tree (evaluated at its root) or a context node.
        algorithm: One of :data:`ALGORITHMS`.
        index: Optional pre-built index (required shape must match the
            algorithm; plain HyPE ignores it).

    Raises:
        EvaluationError: for unknown algorithm names or when an opt variant
            is asked to run on a bare context node without an index.
    """
    if not isinstance(tree, XMLTree):
        # A bare context node: the run builds its document's columns.
        return compile_plan(query, algorithm=algorithm, index=index).run(tree)
    layout = DocumentLayout(tree)
    if index is None and algorithm in (OPTHYPE, OPTHYPE_C):
        index = build_index(tree, algorithm == OPTHYPE_C, layout.table)
    if index is not None:
        layout.indexes[index.compressed] = index
    plan = compile_plan(query, algorithm=algorithm, index=index)
    return plan.run(0, layout=layout)
