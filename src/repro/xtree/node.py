"""Ordered-tree node model used by every algorithm in this library.

The paper (Section 2) works over ordered node-labelled trees where element
nodes carry a tag and leaves may be text (PCDATA) nodes.  We model both with
a single :class:`Node` class: text nodes use the pseudo-label ``#text`` and
carry a string ``value``; element nodes have a real label and ``value`` is
``None``.

Trees are built once and then *frozen* — every node carries its id,
its parent's id and its depth in document order — after which algorithms
treat the tree as immutable.  This mirrors the read-only document trees
SMOQE evaluates over.  The XML parser freezes each node as it creates it
(text arrives in document order); trees assembled in memory
(:mod:`repro.xtree.build`, the generators) are frozen by
:func:`index_tree`, which also re-freezes a tree after structural edits.

A frozen tree owns its nodes one way: an :class:`XMLTree` holds its
nodes, a node holds its children, and nothing points back up by strong
reference.  A node knows its parent as ``parent_id`` (a position in the
owning tree's ``nodes``) plus one weak reference to that tree, shared by
all of the tree's nodes; :attr:`Node.parent` and
:meth:`Node.iter_ancestors` derive the object from the two.  So a
document is acyclic and is freed by reference count the moment its last
holder lets go — no garbage collection pass — and whoever holds a
:class:`Node` (an answer set, say) pins that node's subtree only: once
the tree itself is gone, asking such a node for its parent raises
:class:`repro.errors.EvaluationError`.
"""

from __future__ import annotations

import weakref
from typing import Iterator, Optional, Sequence

from ..errors import EvaluationError

#: Pseudo-label used for text (PCDATA) nodes.
TEXT_LABEL = "#text"


class Node:
    """A node of an ordered XML tree.

    Attributes:
        label: Element tag, or :data:`TEXT_LABEL` for text nodes.
        value: Text content for text nodes, ``None`` for elements.
        children: Ordered list of child nodes; a text node, which can
            have none, shares one empty tuple.
        parent_id: The parent's ``node_id``, ``-1`` for the root (set by
            the freeze).
        node_id: Document-order integer id (set by the freeze).
        depth: Root depth 0 (set by the freeze).
    """

    __slots__ = (
        "label",
        "value",
        "children",
        "parent_id",
        "_owner",
        "node_id",
        "depth",
        "_text_cache",
        "_elems_cache",
    )

    def __init__(self, label: str, value: Optional[str] = None) -> None:
        self.label = label
        self.value = value
        self.children: Sequence[Node] = [] if label != TEXT_LABEL else ()
        self.parent_id: int = -1
        #: Weak reference to the owning :class:`XMLTree` (one object per
        #: tree, set by the freeze); ``None`` until frozen.
        self._owner: Optional[weakref.ref] = None
        self.node_id: int = -1
        self.depth: int = 0
        self._text_cache: Optional[str] = None
        self._elems_cache: Optional[list["Node"]] = None

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def is_text(self) -> bool:
        """Whether this is a text (PCDATA) node."""
        return self.label == TEXT_LABEL

    @property
    def is_element(self) -> bool:
        """Whether this is an element node."""
        return self.label != TEXT_LABEL

    def text(self) -> str:
        """Concatenated value of this node's text-node children.

        For a text node, its own value.  This implements the ``text()``
        accessor of the query language: ``Q/text() = 'c'`` compares against
        ``node.text()`` of the nodes selected by ``Q``.
        """
        if self.is_text:
            return self.value or ""
        return "".join(c.value or "" for c in self.children if c.is_text)

    def text_cached(self) -> str:
        """Like :meth:`text`, computed once per freeze.

        Valid on frozen trees (every evaluator input): the evaluators'
        text predicates call this per relevant node, and :meth:`text`'s
        per-call list walk + join dominates pops on text-heavy queries.
        :func:`index_tree` invalidates the cache, so re-freezing after a
        structural edit keeps the two variants agreeing.
        """
        text = self._text_cache
        if text is None:
            text = self._text_cache = self.text()
        return text

    def element_children(self) -> list["Node"]:
        """Child element nodes, in document order (text children skipped)."""
        return [c for c in self.children if c.is_element]

    def element_children_cached(self) -> list["Node"]:
        """Like :meth:`element_children`, computed once per freeze.

        Callers must not mutate the returned list — it is the shared
        cache.  Invalidated by :func:`index_tree` like the text cache.
        """
        elems = self._elems_cache
        if elems is None:
            elems = self._elems_cache = self.element_children()
        return elems

    def child_elements(self, label: str) -> list["Node"]:
        """Child element nodes carrying ``label``, in document order."""
        return [c for c in self.children if c.label == label]

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def iter_subtree(self) -> Iterator["Node"]:
        """Yield this node and all descendants in document (pre-) order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_descendants(self) -> Iterator["Node"]:
        """Yield all proper descendants in document order."""
        it = self.iter_subtree()
        next(it)  # skip self
        yield from it

    def owning_tree(self) -> "XMLTree":
        """The tree whose freeze this node carries.

        Raises:
            EvaluationError: when the node was never frozen, or its tree
                has been released (a node keeps its subtree alive, not
                its document).
        """
        owner = self._owner
        if owner is None:
            raise EvaluationError(
                "node is not part of a frozen tree "
                "(freeze it with XMLTree / index_tree)"
            )
        tree = owner()
        if tree is None:
            raise EvaluationError(
                "the document this node belonged to has been released: "
                "a held node keeps its subtree, not its ancestors "
                "(hold the XMLTree to navigate upwards)"
            )
        return tree

    @property
    def parent(self) -> Optional["Node"]:
        """Parent node, ``None`` for the root and before the freeze.

        Raises:
            EvaluationError: when the owning tree has been released.
        """
        parent_id = self.parent_id
        if parent_id < 0:
            return None
        return self.owning_tree().nodes[parent_id]

    def iter_ancestors(self) -> Iterator["Node"]:
        """Yield proper ancestors, nearest first (requires an indexed tree)."""
        parent_id = self.parent_id
        if parent_id < 0:
            return
        nodes = self.owning_tree().nodes
        while parent_id >= 0:
            node = nodes[parent_id]
            yield node
            parent_id = node.parent_id

    # ------------------------------------------------------------------
    # Mutation (only valid before the tree is indexed/frozen)
    # ------------------------------------------------------------------
    def append(self, child: "Node") -> "Node":
        """Append ``child`` and return it (for fluent tree building).

        Raises:
            EvaluationError: on a text node, which is a leaf.
        """
        try:
            self.children.append(child)
        except AttributeError:
            raise EvaluationError("a text node cannot have children") from None
        return child

    def extend(self, children: Sequence["Node"]) -> None:
        """Append all ``children`` in order (refused on a text node)."""
        try:
            self.children.extend(children)
        except AttributeError:
            raise EvaluationError("a text node cannot have children") from None

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_text:
            return f"Node(#text={self.value!r}, id={self.node_id})"
        return f"Node({self.label}, id={self.node_id}, kids={len(self.children)})"


class XMLTree:
    """An indexed XML document tree.

    Wraps the root :class:`Node` together with document-wide metadata the
    algorithms need: the node count, the set of element labels, and a
    document-order list of nodes (``nodes[i].node_id == i``).
    """

    __slots__ = ("root", "nodes", "labels", "freeze_count", "__weakref__")

    def __init__(self, root: Node) -> None:
        self.root = root
        self.nodes: list[Node] = []
        self.labels: set[str] = set()
        #: Bumped by every (re-)freeze; derived structures built against
        #: one freeze (e.g. a columnar DocumentLayout) record it and
        #: stand down when the tree has been re-frozen since.
        self.freeze_count = 0
        index_tree(root, self)

    @classmethod
    def from_frozen(cls, nodes: list[Node], labels: set[str]) -> "XMLTree":
        """Wrap nodes that were frozen as they were built (the parser).

        ``nodes`` is the document-order list (``nodes[i].node_id == i``,
        parent ids and depths assigned) and ``labels`` its element
        labels.  Stamps every node with the new tree's ownership, which
        leaves the state one :func:`index_tree` freeze would.
        """
        tree = cls.__new__(cls)
        tree.root = nodes[0]
        tree.nodes = nodes
        tree.labels = labels
        tree.freeze_count = 1
        owner = weakref.ref(tree)
        for node in nodes:
            node._owner = owner
        return tree

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Total number of nodes (elements and text nodes)."""
        return len(self.nodes)

    @property
    def element_count(self) -> int:
        """Number of element nodes."""
        return sum(1 for n in self.nodes if n.is_element)

    @property
    def text_count(self) -> int:
        """Number of text nodes."""
        return sum(1 for n in self.nodes if n.is_text)

    def node(self, node_id: int) -> Node:
        """Return the node with the given document-order id."""
        return self.nodes[node_id]

    def depth(self) -> int:
        """Maximal node depth (root is depth 0)."""
        if not self.nodes:
            return 0
        return max(n.depth for n in self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"XMLTree(root={self.root.label}, size={self.size})"


def index_tree(root: Node, tree: XMLTree) -> None:
    """Freeze ``root``'s subtree as ``tree``'s document.

    Assigns ``node_id``, ``parent_id``, ``depth`` and ``tree``'s
    ownership in document order and (re)builds ``tree.nodes`` /
    ``tree.labels``.  Re-entrant: calling it again after structural
    edits re-freezes the tree.
    """
    nodes = tree.nodes
    labels = tree.labels
    nodes.clear()
    labels.clear()
    tree.freeze_count += 1
    owner = weakref.ref(tree)
    stack: list[tuple[Node, int, int]] = [(root, -1, 0)]
    while stack:
        node, parent_id, depth = stack.pop()
        node_id = len(nodes)
        node.parent_id = parent_id
        node._owner = owner
        node.depth = depth
        node.node_id = node_id
        # (Re-)freezing invalidates the lazy per-node caches: structural
        # edits before this call may have changed children or text.
        node._text_cache = None
        node._elems_cache = None
        nodes.append(node)
        if node.label != TEXT_LABEL:
            labels.add(node.label)
        for child in reversed(node.children):
            stack.append((child, node_id, depth + 1))
