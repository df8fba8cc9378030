"""View materialisation ``σ(T)`` with provenance.

The engine answers queries on *virtual* views, but materialisation is still
essential: it defines the semantics the rewriting must preserve
(``Q(σ(T)) = Q'(T)``) and is how the test suite checks every rewriting
end-to-end.  Each materialised view node remembers its *source context
node*, so an answer set over the view can be compared, node for node,
against an answer set over the source.

Materialisation is top-down (Example 2.2): the view root pairs with the
source root; for a view node of type ``A`` with source context ``u`` and
each child type ``B`` of ``A``, every node of ``σ(A,B)(u)`` (in document
order) becomes one ``B`` child with that node as its context.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dtd.model import Choice, EmptyContent, Sequence, StrContent
from ..errors import ViewError
from ..xpath.evaluator import evaluate
from ..xtree.node import Node, TEXT_LABEL, XMLTree
from .spec import ViewSpec

#: Hard bound on view depth: recursive views over finite documents terminate
#: because annotations move strictly down the source tree, but a misbehaving
#: spec (e.g. an ε-annotation cycle) would recurse forever without this.
#: Kept well under Python's recursion limit (materialisation uses ~3 stack
#: frames per view level); real views track source depth, which is tiny.
MAX_VIEW_DEPTH = 256


@dataclass
class MaterializedView:
    """The result of :func:`materialize`: the view tree plus provenance."""

    tree: XMLTree
    #: view node -> source context node
    provenance: dict[Node, Node]

    def sources(self, view_nodes) -> set[Node]:
        """Map a set of view nodes to their source nodes."""
        return {self.provenance[v] for v in view_nodes}


def materialize(spec: ViewSpec, source: XMLTree) -> MaterializedView:
    """Compute ``σ(T)`` for ``σ = spec`` and ``T = source``.

    Raises:
        ViewError: if the view recurses without consuming source structure
            (depth exceeds :data:`MAX_VIEW_DEPTH`).
    """
    provenance: dict[Node, Node] = {}
    root = Node(spec.view_dtd.root)
    provenance[root] = source.root
    _expand(spec, root, source.root, 0, provenance)
    tree = XMLTree(root)
    return MaterializedView(tree, provenance)


def _expand(
    spec: ViewSpec,
    view_node: Node,
    context: Node,
    depth: int,
    provenance: dict[Node, Node],
) -> None:
    if depth > MAX_VIEW_DEPTH:
        raise ViewError(
            "view recursion exceeded depth bound - the view specification "
            "likely cycles without descending into the source document"
        )
    content = spec.view_dtd.production(view_node.label)
    if isinstance(content, StrContent):
        view_node.append(Node(TEXT_LABEL, context.text()))
        return
    if isinstance(content, EmptyContent):
        return
    if isinstance(content, Sequence):
        for item in content.items:
            _emit_children(
                spec, view_node, context, item.label, depth, provenance
            )
        return
    assert isinstance(content, Choice)
    for option in content.options:
        _emit_children(spec, view_node, context, option, depth, provenance)


def _emit_children(
    spec: ViewSpec,
    view_node: Node,
    context: Node,
    child_type: str,
    depth: int,
    provenance: dict[Node, Node],
) -> None:
    query = spec.annotation(view_node.label, child_type)
    results = sorted(evaluate(query, context), key=_document_order)
    for source_node in results:
        child = Node(child_type)
        provenance[child] = source_node
        view_node.append(child)
        _expand(spec, child, source_node, depth + 1, provenance)


def _document_order(node: Node) -> int:
    return node.node_id
