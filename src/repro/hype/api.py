"""Convenience API over the HyPE family of evaluators.

``algorithm`` selects the variant of Section 6/7:

* ``"hype"``      — plain HyPE (single pass, mstates/fstates pruning);
* ``"opthype"``   — HyPE + subtree-label index;
* ``"opthype-c"`` — HyPE + compressed (interned-mask) index.

Queries may be given as strings, ASTs or pre-compiled MFAs; indexes are
built per document and can be passed in for reuse across queries.
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
    tree: XMLTree | None = None,
    index: Index | None = None,
) -> CompiledPlan:
    """Compile a query into a reusable, thread-safe :class:`CompiledPlan`.

    The returned plan is immutable after warmup: many threads may call
    its :meth:`CompiledPlan.run` concurrently, and its memo tables stay
    warm across documents and runs.

    Args:
        query: Query string, AST, or compiled MFA.
        algorithm: One of :data:`ALGORITHMS`.
        tree: Document to build the OptHyPE index from when ``index``
            is not supplied (plain HyPE needs neither).
        index: Optional pre-built index for the opt variants.

    Raises:
        EvaluationError: for unknown algorithm names or when an opt
            variant has neither a tree nor a pre-built index.
    """
    if algorithm not in ALGORITHMS:
        raise EvaluationError(
            f"unknown algorithm {algorithm!r}; pick one of {ALGORITHMS}"
        )
    mfa = to_mfa(query)
    if algorithm == HYPE:
        return CompiledPlan(mfa)
    if index is None:
        if tree is None:
            raise EvaluationError(
                "OptHyPE needs an XMLTree (to build its index) or an "
                "explicit pre-built index"
            )
        index = build_index(tree, compressed=(algorithm == OPTHYPE_C))
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
    plan = compile_plan(query, algorithm=algorithm, tree=tree, index=index)
    return plan.run(tree.root, layout=DocumentLayout(tree))
