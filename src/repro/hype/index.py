"""Subtree-label indexes powering OptHyPE and OptHyPE-C (Section 6).

The paper: *"we developed a novel index structure which enables HyPE to
skip even more subtrees ... OptHyPE-C [is] the version of HyPE which uses a
compressed version of the index."*

Our index stores, per tree node, the set of element labels occurring
*strictly below* the node (plus a marker bit when any text occurs below).
A subtree whose label set cannot drive the remaining automaton states to an
accepting configuration can be skipped wholesale — the viability analysis
lives in :mod:`repro.hype.analyze`.

* :class:`SubtreeLabelIndex` (OptHyPE) stores one bitmask per node.
* :class:`CompressedLabelIndex` (OptHyPE-C) interns the distinct masks into
  a small table and stores one small id per node — documents have very few
  distinct subtree label-sets (bounded by the DTD structure), so this is
  substantially smaller while answering the same queries.

Either variant describes one freeze of its tree and carries that
freeze's stamp (``freeze_count``, as
:class:`repro.docstore.layout.DocumentLayout` does): masks are indexed
by ``node_id``, so after an edit + re-freeze they would prune the wrong
subtrees, and an indexed run refuses them instead.
"""

from __future__ import annotations

from ..xtree.node import XMLTree

#: Pseudo-label bit marking "some text node occurs in this subtree".
TEXT_BIT_LABEL = "#text"


class LabelBits:
    """Interns element labels to bit positions shared by index and analyzer."""

    def __init__(self) -> None:
        self.bit_of: dict[str, int] = {}

    def bit(self, label: str) -> int:
        """The bit for ``label`` (assigned on first use)."""
        existing = self.bit_of.get(label)
        if existing is not None:
            return existing
        position = len(self.bit_of)
        mask = 1 << position
        self.bit_of[label] = mask
        return mask

    def bit_if_known(self, label: str) -> int:
        """The bit for ``label`` or 0 if the label never occurs."""
        return self.bit_of.get(label, 0)

    @property
    def element_mask(self) -> int:
        """Mask of all element-label bits (excludes the text marker)."""
        total = 0
        for label, mask in self.bit_of.items():
            if label != TEXT_BIT_LABEL:
                total |= mask
        return total


def subtree_masks(tree: XMLTree) -> tuple[LabelBits, list[int]]:
    """Per node, the mask of labels occurring strictly below it.

    The one sweep both index variants derive from.  Document order puts
    children after parents, so a reverse sweep sees every child before
    its parent (``nodes[0]`` is the root, the only node without one).  A
    text node carries the label ``#text`` — :data:`TEXT_BIT_LABEL` — and
    an empty mask, so one expression serves both kinds of node.
    """
    bits = LabelBits()
    bit_of = bits.bit_of
    nodes = tree.nodes
    masks = [0] * len(nodes)
    for node_id in range(len(nodes) - 1, 0, -1):
        node = nodes[node_id]
        label = node.label
        bit = bit_of.get(label)
        if bit is None:
            bit = bit_of[label] = 1 << len(bit_of)
        masks[node.parent_id] |= masks[node_id] | bit
    return bits, masks


def _intern_masks(masks: list[int]) -> tuple[list[int], list[int]]:
    """``(mask_table, ids)``: the distinct masks in first-appearance
    order and, per node, its mask's position in that table."""
    table: dict[int, int] = {}
    ids = [table.setdefault(mask, len(table)) for mask in masks]
    return list(table), ids


class SubtreeLabelIndex:
    """Uncompressed per-node bitmask index (OptHyPE)."""

    def __init__(self, tree: XMLTree) -> None:
        self.bits, self.masks = subtree_masks(tree)
        self.freeze_count = tree.freeze_count

    @classmethod
    def from_parts(
        cls, bits: LabelBits, masks: list[int], freeze_count: int
    ) -> "SubtreeLabelIndex":
        """Rehydrate a persisted index without recomputing the masks."""
        self = cls.__new__(cls)
        self.bits = bits
        self.masks = masks
        self.freeze_count = freeze_count
        return self

    def mask(self, node_id: int) -> int:
        """Strict-descendant label mask of a node."""
        return self.masks[node_id]

    def mask_key(self, node_id: int) -> int:
        """Evaluator cache key for a node's mask.

        The uncompressed index has no interned-id table (that is
        OptHyPE-C's whole trick), so the key is the mask itself — an
        ``int`` either way, per the evaluator's int-keyed cache contract.
        """
        return self.masks[node_id]

    @property
    def mask_keys(self):
        """Per-node mask keys as one indexable column (the kernel's view)."""
        return self.masks

    def memory_entries(self) -> int:
        """Index footprint proxy: number of stored mask words."""
        return len(self.masks)

    def distinct_masks(self) -> int:
        return len(set(self.masks))


class CompressedLabelIndex:
    """Interned-mask index (OptHyPE-C): table of unique masks + small ids."""

    def __init__(self, tree: XMLTree) -> None:
        self.bits, masks = subtree_masks(tree)
        self.mask_table, self.ids = _intern_masks(masks)
        self.freeze_count = tree.freeze_count

    @classmethod
    def from_parts(
        cls,
        bits: LabelBits,
        mask_table: list[int],
        ids: list[int],
        freeze_count: int,
    ) -> "CompressedLabelIndex":
        """Rehydrate a persisted index without recomputing the masks."""
        self = cls.__new__(cls)
        self.bits = bits
        self.mask_table = mask_table
        self.ids = ids
        self.freeze_count = freeze_count
        return self

    def mask(self, node_id: int) -> int:
        return self.mask_table[self.ids[node_id]]

    def mask_id(self, node_id: int) -> int:
        """The interned id — a compact viability-cache key."""
        return self.ids[node_id]

    def mask_key(self, node_id: int) -> int:
        """Evaluator cache key: the small interned id, not the mask.

        Mask bitmasks grow with the label alphabet; hashing the interned
        id keeps the evaluator's index-filter cache probes O(1) on wide
        documents.
        """
        return self.ids[node_id]

    @property
    def mask_keys(self):
        """Per-node mask keys as one indexable column (the kernel's view)."""
        return self.ids

    def memory_entries(self) -> int:
        """Footprint proxy: id array + unique-mask table."""
        return len(self.ids) + len(self.mask_table)

    def distinct_masks(self) -> int:
        return len(self.mask_table)


Index = SubtreeLabelIndex | CompressedLabelIndex


def build_index(tree: XMLTree, compressed: bool = False) -> Index:
    """Build the OptHyPE (or OptHyPE-C when ``compressed``) index."""
    if compressed:
        return CompressedLabelIndex(tree)
    return SubtreeLabelIndex(tree)


def other_variant(index: Index) -> Index:
    """The other index variant of the same document, without a sweep.

    Both variants hold one mask column — per node, or interned — so
    either converts into exactly the index :func:`build_index` would
    have built (the read-only ``bits`` are shared, the freeze stamp is
    carried over).
    """
    if isinstance(index, CompressedLabelIndex):
        table = index.mask_table
        masks = [table[mask_id] for mask_id in index.ids]
        return SubtreeLabelIndex.from_parts(
            index.bits, masks, index.freeze_count
        )
    return CompressedLabelIndex.from_parts(
        index.bits, *_intern_masks(index.masks), index.freeze_count
    )
