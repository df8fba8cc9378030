"""Ordered-tree node model used by every algorithm in this library.

The paper (Section 2) works over ordered node-labelled trees where element
nodes carry a tag and leaves may be text (PCDATA) nodes.  We model both with
a single :class:`Node` class: text nodes use the pseudo-label ``#text`` and
carry a string ``value``; element nodes have a real label and ``value`` is
``None``.

A frozen document is *columns*: its :class:`TreeColumns` hold, per node
in document order, its label, parent id, depth, text value and
element position, plus the element-kid spans — what the evaluator walks
and what its ``text()`` / ``position()`` filters compare.  The XML parser
emits these columns directly; trees assembled in memory
(:mod:`repro.xtree.build`, the generators) are frozen into the same
columns when :class:`XMLTree` wraps them.  So there is one
representation, and a freeze is final: a frozen node's ``children`` is
a tuple, ``append`` / ``extend`` on it raise
:class:`repro.errors.EvaluationError`, and :class:`XMLTree` refuses a
node that already belongs to a tree.  Everything derived from a
document's columns (layouts, indexes) is therefore valid for as long as
the document lives; to change a document, build a new one.

:class:`Node` objects are views: ``tree.root``, ``tree.node(i)`` and
``tree.nodes[i]`` create one per id on first access (a tree keeps the
one object of each id it has handed out), and a created node derives its
``children`` from the columns when first asked.  A node holds the
columns and one weak reference to its :class:`XMLTree`, never the tree:
a document is acyclic and is freed by reference count the moment its
last holder lets go — no garbage collection pass.  Whoever holds a
:class:`Node` (an answer, say) pins the columns it reads its subtree
from; once the tree itself is gone, asking such a node for its parent
raises :class:`repro.errors.EvaluationError`.
"""

from __future__ import annotations

import threading
import weakref
from array import array
from collections.abc import Sequence
from itertools import accumulate, islice
from typing import Iterator, Optional

from ..errors import EvaluationError

#: Pseudo-label used for text (PCDATA) nodes.
TEXT_LABEL = "#text"


class TreeColumns:
    """A frozen document's columns, one entry per node in document order.

    * ``label`` — element tag or :data:`TEXT_LABEL`;
    * ``parent`` — the parent's id, ``-1`` at the root;
    * ``depth`` — root depth 0;
    * ``text`` — a text node's value; an element's ``text()`` (its text
      children's values, concatenated);
    * ``position`` — an element's 1-based position among its element
      siblings (the root is 1), ``0`` for a text node;
    * ``kid_ids`` / ``kid_start`` — the element-kid spans: node ``i``'s
      element children are ``kid_ids[kid_start[i]:kid_start[i + 1]]``
      (:func:`kid_spans`).

    The compiled scan (:mod:`repro.xtree.parse`) also hands over what it
    derived for the document's layout and index: ``node_label`` /
    ``kid_labels`` (the label ids of
    :class:`repro.docstore.layout.DocumentLayout`, which adopts these
    very lists) and ``mask_classes`` (what
    :func:`repro.hype.index.build_index` gathers its mask column from).
    They are ``None`` on every other freeze — a Python parse, a tree
    built in memory — which derive them from the columns above instead.

    Immutable once built, so freely shared across threads.
    """

    __slots__ = (
        "label",
        "parent",
        "depth",
        "text",
        "position",
        "kid_start",
        "kid_ids",
        "node_label",
        "kid_labels",
        "mask_classes",
        "_ends",
        "__weakref__",
    )

    def __init__(
        self,
        label,
        parent,
        depth,
        text,
        position,
        kid_start,
        kid_ids,
        node_label=None,
        kid_labels=None,
        mask_classes=None,
    ) -> None:
        self.label: list[str] = label
        self.parent: list[int] = parent
        self.depth: list[int] = depth
        self.text: list[str] = text
        self.position: list[int] = position
        self.kid_start: list[int] = kid_start
        self.kid_ids: list[int] = kid_ids
        self.node_label: Optional[list[int]] = node_label
        self.kid_labels: Optional[list[int]] = kid_labels
        self.mask_classes: Optional[tuple] = mask_classes
        #: Per node, one past its last descendant — only :class:`Node`
        #: views need it (:meth:`child_ids`), so it is derived on demand.
        self._ends = None

    def child_ids(self, node_id: int) -> list[int]:
        """Ids of every child of ``node_id`` (text ones included)."""
        ends = self._ends
        if ends is None:
            ends = array("i", range(1, len(self.label) + 1))
            parent = self.parent
            for child in range(len(ends) - 1, 0, -1):
                up = parent[child]
                if ends[child] > ends[up]:
                    ends[up] = ends[child]
            self._ends = ends
        ids = []
        child, end = node_id + 1, ends[node_id]
        while child < end:
            ids.append(child)
            child = ends[child]
        return ids


def kid_spans(parent, kid_counts, elements) -> tuple[list[int], list[int]]:
    """``(kid_start, kid_ids)`` of a freeze: ``elements`` (the element
    ids, in document order) grouped by parent — a stable sort keeps
    document order within a group — each group where the prefix sum of
    ``kid_counts`` (per node, its element children) says."""
    kid_start = list(accumulate(kid_counts, initial=0))
    return kid_start, sorted(islice(elements, 1, None), key=parent.__getitem__)


def _view(columns: TreeColumns, owner: weakref.ref, node_id: int) -> "Node":
    """The :class:`Node` of ``node_id`` in ``columns`` — the one place a
    node is created from columns."""
    label = columns.label[node_id]
    node = Node(label, columns.text[node_id] if label == TEXT_LABEL else None)
    if label != TEXT_LABEL:
        node._kids = None  # derived from the columns when first asked
    node.parent_id, node.depth = columns.parent[node_id], columns.depth[node_id]
    node.node_id, node._owner, node.columns = node_id, owner, columns
    return node


class Node:
    """A node of an ordered XML tree.

    Attributes:
        label: Element tag, or :data:`TEXT_LABEL` for text nodes.
        value: Text content for text nodes, ``None`` for elements.
        parent_id: The parent's ``node_id``, ``-1`` for the root (set by
            the freeze).
        node_id: Document-order integer id (set by the freeze).
        depth: Root depth 0 (set by the freeze).
        columns: The :class:`TreeColumns` of the freeze (``None`` before
            it) — what ``text()`` / ``position()`` filters read.
    """

    __slots__ = (
        "label",
        "value",
        "_kids",
        "parent_id",
        "_owner",
        "node_id",
        "depth",
        "columns",
    )

    def __init__(self, label: str, value: Optional[str] = None) -> None:
        self.label = label
        self.value = value
        # A text node, which can have no children, shares one empty tuple.
        self._kids: Optional[list] = [] if label != TEXT_LABEL else ()
        self.parent_id: int = -1
        #: Weak reference to the owning :class:`XMLTree` (one object per
        #: tree, set by the freeze); ``None`` until frozen.
        self._owner: Optional[weakref.ref] = None
        self.node_id: int = -1
        self.depth: int = 0
        self.columns: Optional[TreeColumns] = None

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

    @property
    def children(self) -> "list[Node] | tuple[Node, ...]":
        """Ordered child nodes: a list while the tree is being built, a
        tuple once it is frozen (a text node's is always empty).

        A node created from columns derives the tuple on first access —
        the tree's own objects while the tree lives, fresh views of the
        columns it holds once the tree is gone.
        """
        kids = self._kids
        if kids is None:
            cols = self.columns
            ids = cols.child_ids(self.node_id)
            tree = self._owner()
            if tree is not None:
                kids = tuple(map(tree.nodes.__getitem__, ids))
            else:
                kids = tuple([_view(cols, self._owner, child) for child in ids])
            self._kids = kids
        return kids

    def text(self) -> str:
        """Concatenated value of this node's text-node children.

        For a text node, its own value.  This implements the ``text()``
        accessor of the query language: ``Q/text() = 'c'`` compares against
        ``node.text()`` of the nodes selected by ``Q``.
        """
        if self.label == TEXT_LABEL:
            return self.value or ""
        kids = self._kids
        if kids is None:
            return self.columns.text[self.node_id]
        return "".join(c.value or "" for c in kids if c.label == TEXT_LABEL)

    def element_children(self) -> list["Node"]:
        """Child element nodes, in document order (text children skipped)."""
        return [c for c in self.children if c.label != TEXT_LABEL]

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

    def owning_tree(self) -> "XMLTree":
        """The tree whose freeze this node carries.

        Raises:
            EvaluationError: when the node was never frozen, or its tree
                has been released (a node keeps the columns of its
                subtree, not its document).
        """
        owner = self._owner
        if owner is None:
            raise EvaluationError(
                "node is not part of a frozen tree (freeze it with XMLTree)"
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
    # Building (before the freeze only)
    # ------------------------------------------------------------------
    def append(self, child: "Node") -> "Node":
        """Append ``child`` and return it (for fluent tree building).

        Raises:
            EvaluationError: on a text node, which is a leaf, or on a
                node of a frozen tree, which is immutable.
        """
        self._building().append(child)
        return child

    def extend(self, children: Sequence["Node"]) -> None:
        """Append all ``children`` in order (refused where
        :meth:`append` is)."""
        self._building().extend(children)

    def _building(self) -> list["Node"]:
        """The child list of a node still being built."""
        if self._owner is not None:
            raise EvaluationError(
                "a frozen tree is immutable: build a new tree to change it"
            )
        if self.label == TEXT_LABEL:
            raise EvaluationError("a text node cannot have children")
        return self._kids

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_text:
            return f"Node(#text={self.value!r}, id={self.node_id})"
        return f"Node({self.label}, id={self.node_id})"


class NodeList(Sequence):
    """A tree's nodes in document order, created on first access.

    ``nodes[i]`` is the one :class:`Node` of id ``i`` (created from the
    columns on a miss, under a lock taken on a miss only).  Holds the
    columns and the tree's weak reference, never the tree.
    """

    __slots__ = ("_owner", "_columns", "_cache", "_lock")

    def __init__(
        self, owner: weakref.ref, columns: TreeColumns, cache=None
    ) -> None:
        self._owner = owner
        self._columns = columns
        self._cache: Optional[list] = cache
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._columns.label)

    def __getitem__(self, node_id: int) -> Node:
        cache = self._cache
        if cache is not None:
            node = cache[node_id]
            if node is not None:
                return node
        with self._lock:
            cache = self._cache
            if cache is None:
                cache = self._cache = [None] * len(self)
            node = cache[node_id]
            if node is None:
                if node_id < 0:
                    node_id += len(cache)
                node = cache[node_id] = _view(self._columns, self._owner, node_id)
            return node


class XMLTree:
    """A frozen XML document tree.

    Owns the :class:`TreeColumns` of its freeze plus document-wide
    metadata the algorithms need: the node count, the set of element
    labels, and ``nodes``, the document-order sequence of its
    :class:`Node` views (``nodes[i].node_id == i``).

    Raises:
        EvaluationError: when ``root`` or a node below it already
            belongs to a tree (a freeze is final; a node has one tree).
    """

    __slots__ = ("columns", "nodes", "labels", "__weakref__")

    def __init__(self, root: Node) -> None:
        _freeze(root, self)

    @classmethod
    def from_columns(cls, columns: TreeColumns, labels: set[str]) -> "XMLTree":
        """Wrap columns that were frozen as they were built (the parser);
        ``labels`` is their set of element labels."""
        tree = cls.__new__(cls)
        tree.columns = columns
        tree.labels = labels
        tree.nodes = NodeList(weakref.ref(tree), columns)
        return tree

    # ------------------------------------------------------------------
    @property
    def root(self) -> Node:
        """The document element."""
        return self.nodes[0]

    @property
    def size(self) -> int:
        """Total number of nodes (elements and text nodes)."""
        return len(self.columns.label)

    @property
    def element_count(self) -> int:
        """Number of element nodes."""
        label = self.columns.label
        return len(label) - label.count(TEXT_LABEL)

    def node(self, node_id: int) -> Node:
        """Return the node with the given document-order id."""
        return self.nodes[node_id]

    def depth(self) -> int:
        """Maximal node depth (root is depth 0)."""
        return max(self.columns.depth, default=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"XMLTree(root={self.columns.label[0]}, size={self.size})"


def _freeze(root: Node, tree: XMLTree) -> None:
    """Freeze ``root``'s subtree, built in memory, as ``tree``'s document.

    Claims every node for ``tree`` as it walks them (a node already
    claimed — by another tree, or earlier in this walk — is refused, and
    the walk's claims are dropped), builds the :class:`TreeColumns`,
    then assigns ``node_id``, ``parent_id``, ``depth`` and the columns
    in document order, turns every child list into a tuple, and makes
    the walked nodes ``tree.nodes``.
    """
    owner = weakref.ref(tree)
    nodes: list[Node] = []
    label, parent, depth = [], [], []
    stack: list[tuple[Node, int, int]] = [(root, -1, 0)]
    while stack:
        node, parent_id, level = stack.pop()
        if node._owner is not None:
            for claimed in nodes:
                claimed._owner = None
            raise EvaluationError(
                "node already belongs to a tree: a freeze is final "
                "(build new nodes for a new tree)"
            )
        node._owner = owner
        node_id = len(nodes)
        nodes.append(node)
        label.append(node.label)
        parent.append(parent_id)
        depth.append(level)
        stack.extend((kid, node_id, level + 1) for kid in reversed(node._kids))
    # What the parser tracks as it goes, in one sweep in document order.
    text = [(node.value or "") if node.is_text else "" for node in nodes]
    position, kid_counts = [1] + [0] * (len(nodes) - 1), [0] * len(nodes)
    for node_id in range(1, len(nodes)):
        up = parent[node_id]
        if label[node_id] == TEXT_LABEL:
            text[up] += text[node_id]
        else:
            kid_counts[up] = position[node_id] = kid_counts[up] + 1
    elements = [i for i, tag in enumerate(label) if tag != TEXT_LABEL]
    columns = TreeColumns(
        label, parent, depth, text, position, *kid_spans(parent, kid_counts, elements)
    )
    for node_id, node in enumerate(nodes):
        node.node_id, node.parent_id = node_id, parent[node_id]
        node.depth, node.columns = depth[node_id], columns
        node._kids = tuple(node._kids)
    tree.columns = columns
    tree.labels = {label[i] for i in elements}
    tree.nodes = NodeList(owner, columns, nodes)
