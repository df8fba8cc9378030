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

Either variant is one column of *mask keys* over one freeze of one tree
(``freeze_count``, as :class:`repro.docstore.layout.DocumentLayout`
carries): keys are indexed by ``node_id``, so after an edit + re-freeze
they would prune the wrong subtrees.  The evaluator reads the column off
the layout of the document it runs on, never off the executable.
"""

from __future__ import annotations

import threading
import weakref

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
        #: plan (or composed kernel) -> {cfg id -> row}; weak keys so an
        #: evicted plan releases its rows with it.
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


class SubtreeLabelIndex:
    """Uncompressed per-node bitmask index (OptHyPE): the key of a node
    is its mask."""

    __slots__ = ("table", "mask_keys", "freeze_count", "__weakref__")
    compressed = False

    def __init__(
        self, table: LabelTable, mask_keys: list[int], freeze_count: int
    ) -> None:
        self.table = table
        #: Per-node mask keys as one indexable column (the kernel's view).
        self.mask_keys = mask_keys
        self.freeze_count = freeze_count

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
    sorted label set."""
    if table is None:
        table = label_table(sorted(tree.labels))
    plain = SubtreeLabelIndex(
        table, subtree_masks(tree, table.bit_of), tree.freeze_count
    )
    return other_variant(plain) if compressed else plain


def other_variant(index: Index) -> Index:
    """The other index variant of the same document, without a sweep:
    both hold one mask column, per node or interned (same table, same
    freeze stamp)."""
    table = index.table
    if index.compressed:
        return SubtreeLabelIndex(table, index.masks, index.freeze_count)
    return CompressedLabelIndex(
        table, table.mask_ids(index.mask_keys), index.freeze_count
    )
