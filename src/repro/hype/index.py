"""Label tables and the subtree-label indexes powering OptHyPE(-C) (Section 6).

The paper: *"we developed a novel index structure which enables HyPE to
skip even more subtrees ... OptHyPE-C [is] the version of HyPE which uses a
compressed version of the index."*

Our index stores, per tree node, the set of element labels occurring
*strictly below* the node (plus a marker bit when any text occurs below).
A subtree whose label set cannot drive the remaining automaton states to an
accepting configuration can be skipped wholesale — the viability analysis
lives in :mod:`repro.hype.analyze`.

What the evaluator derives from such a set — which states stay viable,
which transitions survive — depends on the automaton and on the *label
set*, a property of the DTD and not of the document.  So labels are
interned once per label set, in a :class:`LabelTable` that every
document of that set shares (:func:`label_table`), and everything that
is a function of the label set hangs on it: label → id (the columns of
:class:`repro.docstore.layout.DocumentLayout`), label → bit (the masks
here), OptHyPE-C's mask → small id, and each plan's transition rows.

* :class:`SubtreeLabelIndex` (OptHyPE) stores one bitmask per node.
* :class:`CompressedLabelIndex` (OptHyPE-C) stores one small id per node
  into the table's interned masks — documents have very few distinct
  subtree label-sets (bounded by the DTD structure), so the keys the
  evaluator hashes stay small however wide the alphabet.

Either variant is one column of *mask keys* over one frozen tree, indexed
by ``node_id``; a freeze is final (:mod:`repro.xtree.node`), so the
column is valid for as long as the tree lives.  The evaluator reads the
column off the layout of the document it runs on, never off the
executable.

Where the masks come from: a document the compiled scan parsed
(:mod:`repro.xtree.parse`) arrives with its *mask classes* — the
distinct masks, OR-ed up the scan's element stack at each close tag,
in first-appearance order, and one local id per node — so
:func:`build_index` is one gather per variant (:func:`from_classes`),
and the index record stores the classes as they are.  Every other tree
(a Python parse, a tree built in memory, a document past the scan's
label or mask-count boundary) is swept once by
:func:`subtree_masks`, the reference the scan is held to.
"""

from __future__ import annotations

import sys
import threading
import weakref
from array import array

from ..xtree.node import XMLTree

#: Pseudo-label bit marking "some text node occurs in this subtree".
TEXT_BIT_LABEL = "#text"


class LabelTable:
    """One label set's interning, shared by every document of that set.

    ``labels`` (a tuple) fixes the order: the text marker — set in
    nearly every non-empty mask — has bit 0, which keeps mask literals
    short, and label ``labels[i]`` has id ``i`` and bit ``2 << i``.
    ``labels``, ``label_ids`` and ``bit_of`` never change;
    ``masks`` (mask id → mask) only grows — by the distinct subtree
    label sets of the documents that pass through, at most one per node
    of an admitted document — and dies with the table.  Executables hold
    ``bit_of`` and ``masks``, never the table, so the table lives
    exactly as long as a document of its label set does.
    """

    __slots__ = (
        "labels",
        "label_ids",
        "bit_of",
        "masks",
        "_mask_ids",
        "_rows",
        "_lock",
        "__weakref__",
    )

    def __init__(self, labels: tuple[str, ...]) -> None:
        self.labels = labels
        self.label_ids = {label: lid for lid, label in enumerate(labels)}
        self.bit_of = {label: 2 << lid for lid, label in enumerate(labels)}
        self.bit_of[TEXT_BIT_LABEL] = 1
        self.masks: list[int] = []
        self._mask_ids: dict[int, int] = {}
        #: plan -> {cfg id -> row}; weak keys so an evicted plan
        #: releases its rows with it.
        self._rows: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()

    def mask_ids(self, masks: list[int]) -> list[int]:
        """Per mask, its table-wide interned id (OptHyPE-C's keys).

        A document of a known label set rarely brings a new mask, so the
        lock is taken on a miss only; an id is published after its mask
        is stored, and readers only index ``masks`` by published ids.
        """
        ids = self._mask_ids
        try:
            return [ids[mask] for mask in masks]
        except KeyError:
            with self._lock:
                for mask in masks:
                    if mask not in ids:
                        self.masks.append(mask)
                        ids[mask] = len(self.masks) - 1
        return [ids[mask] for mask in masks]

    def rows_for(self, plan) -> dict:
        """The per-``(plan, label table)`` child-transition row table.

        Rows map a dense-kernel cfg id to an ``array('i')`` indexed by
        label id whose entries are packed transition words (``UNFILLED``
        until first computed) — see :mod:`repro.hype.kernel`.  Entries
        are a deterministic function of their key, so concurrent fills
        are benign — the same contract as the plan's own tables.
        """
        rows = self._rows.get(plan)
        if rows is None:
            with self._lock:
                rows = self._rows.get(plan)
                if rows is None:
                    rows = self._rows[plan] = {}
        return rows


_TABLES: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()
_TABLES_LOCK = threading.Lock()


def label_table(labels) -> LabelTable:
    """THE table of the label tuple ``labels`` (interned, weakly held).

    Fresh builds pass the *sorted* label set, so documents of one DTD
    meet in one table whatever order their labels first appear in; a
    persisted file passes the order it was written in.
    """
    key = tuple(labels)
    table = _TABLES.get(key)
    if table is None:
        with _TABLES_LOCK:
            table = _TABLES.get(key)
            if table is None:
                table = _TABLES[key] = LabelTable(key)
    return table


def subtree_masks(tree: XMLTree, bit_of: dict[str, int]) -> list[int]:
    """Per node, the mask of labels occurring strictly below it.

    The one sweep both index variants derive from, over the tree's label
    and parent columns.  Document order puts children after parents, so
    a reverse sweep sees every child before its parent (node 0 is the
    root, the only node without one).  A text node carries the label
    ``#text`` — :data:`TEXT_BIT_LABEL` — and an empty mask, so one
    expression serves both kinds of node.
    """
    columns = tree.columns
    label = columns.label
    masks = [0] * len(label)
    for node_id, up, name in zip(
        range(len(label) - 1, 0, -1), reversed(columns.parent), reversed(label)
    ):
        masks[up] |= masks[node_id] | bit_of[name]
    return masks


def id_width(count: int) -> int:
    """Bytes per local id of a document with ``count`` distinct masks:
    u8, u16 or u32 (the index record's widths)."""
    return 1 if count <= 1 << 8 else 2 if count <= 1 << 16 else 4


def local_ids(local: bytes, count: int):
    """The ids of ``local`` — little-endian, :func:`id_width` ``(count)``
    bytes each — as an indexable sequence of ints: the bytes themselves
    for u8, else an ``array`` in host order."""
    width = id_width(count)
    if width == 1:
        return local
    ids = array("H" if width == 2 else "I", local)
    if sys.byteorder == "big":
        ids.byteswap()
    return ids


class SubtreeLabelIndex:
    """Uncompressed per-node bitmask index (OptHyPE): the key of a node
    is its mask.

    ``classes``, when known, is the document's mask classes
    ``(labels, masks, local)``: its distinct masks in the table's bit
    order (``labels``), in first-appearance node order, and one
    little-endian local id per node (:func:`local_ids`) — what the mask
    column was gathered from (:func:`from_classes`).  The other variant
    gathers from them too, and the index record stores them as they are.
    """

    __slots__ = ("table", "mask_keys", "classes", "__weakref__")
    compressed = False

    def __init__(
        self,
        table: LabelTable,
        mask_keys: list[int],
        classes: tuple | None = None,
    ) -> None:
        self.table = table
        #: Per-node mask keys as one indexable column (the kernel's view).
        self.mask_keys = mask_keys
        self.classes = classes

    @property
    def masks(self) -> list[int]:
        """Per node, its strict-descendant label mask."""
        return self.mask_keys

    def memory_entries(self) -> int:
        """Index footprint proxy: number of stored mask words."""
        return len(self.mask_keys)

    def distinct_masks(self) -> int:
        return len(set(self.mask_keys))


class CompressedLabelIndex(SubtreeLabelIndex):
    """Interned-mask index (OptHyPE-C): the key of a node is the small
    table-wide id of its mask (:meth:`LabelTable.mask_ids`), so the
    evaluator's filter-row probes stay O(1) to hash on wide alphabets."""

    __slots__ = ()
    compressed = True

    @property
    def masks(self) -> list[int]:
        interned = self.table.masks
        return [interned[mask_id] for mask_id in self.mask_keys]

    def memory_entries(self) -> int:
        """Footprint proxy: id column + this document's distinct masks."""
        return len(self.mask_keys) + self.distinct_masks()


Index = SubtreeLabelIndex | CompressedLabelIndex


def build_index(
    tree: XMLTree, compressed: bool = False, table: LabelTable | None = None
) -> Index:
    """Build the OptHyPE (or OptHyPE-C when ``compressed``) index of
    ``tree`` in ``table`` — by default the canonical one, of the tree's
    sorted label set.

    A tree the compiled scan froze carries its mask classes
    (:class:`repro.xtree.node.TreeColumns`' ``mask_classes``, in the
    sorted table's bit order), and the build is one gather over them;
    every other tree, or a table in another order, is swept
    (:func:`subtree_masks`)."""
    if table is None:
        table = label_table(sorted(tree.labels))
    classes = tree.columns.mask_classes
    if classes is not None and classes[0] == table.labels:
        return from_classes(table, classes, compressed)
    plain = SubtreeLabelIndex(table, subtree_masks(tree, table.bit_of))
    return other_variant(plain) if compressed else plain


def from_classes(table: LabelTable, classes: tuple, compressed: bool) -> Index:
    """The index whose mask column is ``classes``' masks gathered by its
    local ids (see :class:`SubtreeLabelIndex`): the masks themselves for
    OptHyPE, their table-wide interned ids for OptHyPE-C."""
    _labels, masks, local = classes
    ids = local_ids(local, len(masks))
    if compressed:
        interned = table.mask_ids(masks)
        return CompressedLabelIndex(table, [interned[i] for i in ids], classes)
    return SubtreeLabelIndex(table, [masks[i] for i in ids], classes)


def other_variant(index: Index) -> Index:
    """The other index variant of the same document, without a sweep:
    both hold one mask column, per node or interned (same table) —
    gathered again from the mask classes when known."""
    table = index.table
    if index.classes is not None:
        return from_classes(table, index.classes, not index.compressed)
    if index.compressed:
        return SubtreeLabelIndex(table, index.masks)
    return CompressedLabelIndex(table, table.mask_ids(index.mask_keys))
