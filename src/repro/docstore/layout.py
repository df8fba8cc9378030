"""Columnar document layout: interned labels + flattened child spans.

HyPE's inner loop spends its Python time on exactly four things per
child visit: reading ``child.label`` (an attribute dereference), testing
``label[0] == "#"`` (the text-node skip), hashing the label string into
the per-``(mstates, relevant)`` child cache, and allocating an iterator
over ``node.children`` (text children included) per visited node.  None
of that work depends on the query — it is a pure function of the frozen
document — so a :class:`DocumentLayout` precomputes it once per
document into flat integer arrays (the array-of-struct layout of
high-throughput tree engines):

* ``table`` — the :class:`repro.hype.index.LabelTable` of the
  document's label set (dense ids ``0..num_labels-1``; sorted label
  order for a fresh build, so documents of one DTD share one table);
* ``node_label`` — per ``node_id``, the interned label id
  (:data:`TEXT_ID` for text nodes);
* ``kid_ids`` / ``kid_labels`` / ``kid_start`` — the flattened
  element-children table: node ``i``'s element children are
  ``kid_ids[kid_start[i]:kid_start[i+1]]``, with their label ids in
  the parallel ``kid_labels`` slice.  Text children are excluded at
  build time, so the hot loop never re-tests them.

These columns are the only document the evaluator walks
(:func:`repro.hype.kernel.descend`,
:func:`repro.hype.compose.descend_composed`): child-transition rows are
keyed by integer label id — a list index, not a string-keyed dict
probe.  The rows belong to the label table
(:meth:`repro.hype.index.LabelTable.rows_for`, keyed weakly by plan), so
what a plan filled for one document is a hit for the next one of that
label set.  The OptHyPE(-C) subtree-mask column is a column of the
document too: ``indexes`` holds the variants built (or tier-loaded) for
it, and an indexed run reads its mask keys from there
(:meth:`DocumentLayout.mask_keys`).  A run that is handed no layout, or
one that does not cover its context, walks fresh columns built by
:func:`covering_layout`.

Layouts are immutable once built, like the frozen trees they describe,
and therefore freely shared across threads, tenants and lanes.
"""

from __future__ import annotations

from operator import is_

from ..errors import EvaluationError
from ..hype.index import Index, LabelTable, build_index, label_table
from ..xtree.node import Node, TEXT_LABEL, XMLTree

#: ``node_label`` entry for text (PCDATA) nodes.
TEXT_ID = -1


class DocumentLayout:
    """Flattened columnar tables of one frozen :class:`XMLTree`."""

    __slots__ = (
        "tree",
        "nodes",
        "table",
        "node_label",
        "kid_ids",
        "kid_labels",
        "kid_start",
        "_freeze_count",
        "indexes",
        "on_demand",
        "__weakref__",
    )

    def __init__(self, tree: XMLTree) -> None:
        self.tree = tree
        # The freeze generation this layout snapshots.  index_tree()
        # re-freezes IN PLACE (the nodes list object is reused), so
        # object identity alone cannot detect a re-frozen tree — the
        # stamp makes covers() stand down and the evaluator walk fresh
        # columns (covering_layout) instead.
        self._freeze_count = tree.freeze_count
        #: Document-order node list (``nodes[i].node_id == i``) — the
        #: bridge back from columnar ids to the Node objects answers,
        #: predicates and phase 2 operate on.
        self.nodes: list[Node] = tree.nodes
        self.table: LabelTable = label_table(sorted(tree.labels))
        self.kid_ids: list[int] = []
        self.kid_labels: list[int] = []
        self.kid_start: list[int] = [0] * (len(tree.nodes) + 1)
        self._build()
        #: compressed? -> the OptHyPE(-C) index of this freeze, parked by
        #: whoever built or loaded it (``IndexedDocument.index_for``).
        self.indexes: dict[bool, Index] = {}
        #: Throw-away columns (:func:`covering_layout`) have no owner to
        #: build their mask column: a run sweeps it when it needs it.
        self.on_demand = False

    def _build(self) -> None:
        lids = {**self.table.label_ids, TEXT_LABEL: TEXT_ID}
        self.node_label = node_label = [lids[node.label] for node in self.nodes]
        kid_ids = self.kid_ids
        kid_labels = self.kid_labels
        kid_start = self.kid_start
        for node_id, node in enumerate(self.nodes):
            kid_start[node_id] = len(kid_ids)
            for child in node.children:
                cid = child.node_id
                lid = node_label[cid]
                if lid != TEXT_ID:
                    kid_ids.append(cid)
                    kid_labels.append(lid)
        kid_start[len(self.nodes)] = len(kid_ids)

    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        tree: XMLTree,
        labels,
        node_label,
        kid_ids,
        kid_labels,
        kid_start,
    ) -> "DocumentLayout":
        """Rehydrate a layout from already-built columns — no tree walk.

        The persistence path (:meth:`repro.docstore.store.DocIndexTier.
        load_layout`) hands in zero-copy ``memoryview`` casts over an
        mmap'ed sidecar; the hot loop only ever *indexes* the columns,
        so views serve exactly like the lists ``_build`` produces (and
        they keep the mapping alive for as long as the layout lives).
        ``labels`` is taken in the order the columns were written in: no
        column is remapped, and a file in sorted order joins the table
        fresh builds use.
        """
        layout = cls.__new__(cls)
        layout.tree = tree
        layout._freeze_count = tree.freeze_count
        layout.nodes = tree.nodes
        layout.table = label_table(labels)
        layout.node_label = node_label
        layout.kid_ids = kid_ids
        layout.kid_labels = kid_labels
        layout.kid_start = kid_start
        layout.indexes = {}
        layout.on_demand = False
        return layout

    # ------------------------------------------------------------------
    @property
    def labels(self) -> tuple[str, ...]:
        """The label table's labels, in id order."""
        return self.table.labels

    def span(self, node_id: int) -> tuple[int, int]:
        """The ``kid_ids``/``kid_labels`` span of a node's element kids."""
        return self.kid_start[node_id], self.kid_start[node_id + 1]

    def covers(self, node: Node) -> bool:
        """Whether ``node`` belongs to this layout's document *as frozen*.

        The descent indexes the tables by ``node_id``, so it is only
        valid for nodes of the tree the layout was built from — and
        only for the freeze it snapshotted: a structural edit +
        :func:`repro.xtree.node.index_tree` re-freeze bumps the tree's
        ``freeze_count``, after which this layout stands down
        (:func:`covering_layout` builds the fresh structure's columns)
        instead of silently serving the stale structure.
        """
        if self.tree.freeze_count != self._freeze_count:
            return False
        node_id = node.node_id
        return 0 <= node_id < len(self.nodes) and self.nodes[node_id] is node

    def mask_keys(self, plan):
        """The mask-key column ``plan`` prunes this document on:
        ``None`` for plain HyPE, else the parked index of the plan's
        variant.

        Raises:
            EvaluationError: when there is no such column of the plan's
                label table — the executable was built for a foreign
                label set, the variant was never built for this document,
                or the parked index is of another freeze than these
                columns — rather than prune on masks that mean something
                else.
        """
        if plan.bit_of is None:
            return None
        if plan.bit_of is self.table.bit_of:
            index = self.indexes.get(plan.compressed)
            if index is None and self.on_demand:
                index = self.indexes[plan.compressed] = build_index(
                    self.tree, plan.compressed, self.table
                )
            if index is not None and index.freeze_count == self._freeze_count:
                return index.mask_keys
        raise EvaluationError(
            "the run's document has no subtree-mask column of this "
            "executable's label table and variant: foreign label set, "
            "index never built, or the document was re-frozen after it "
            "was indexed (rebuild its IndexedDocument)"
        )

    def memory_entries(self) -> int:
        """Footprint proxy: total stored integers across the tables."""
        return (
            len(self.node_label)
            + len(self.kid_ids)
            + len(self.kid_labels)
            + len(self.kid_start)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DocumentLayout(nodes={len(self.nodes)}, "
            f"labels={len(self.labels)}, kids={len(self.kid_ids)})"
        )


def covering_layout(
    context: Node, layout: DocumentLayout | None = None
) -> DocumentLayout:
    """``layout`` if it covers ``context``, else fresh columns.

    The one place a descent gets its document from.  A missing, stale
    (re-frozen tree) or foreign layout is never indexed: a new layout is
    built over the tree that owns ``context`` — once per call, kept
    nowhere, its mask column swept when an indexed lane asks; a caller
    that evaluates twice holds an
    :class:`repro.docstore.document.IndexedDocument`.

    Raises:
        EvaluationError: when ``context`` has no live owning tree (never
            frozen, or its document was released), or when that tree's
            ``nodes`` are not its document order any more (edited since
            the freeze), which the columns would mis-index.
    """
    if layout is not None and layout.covers(context):
        return layout
    tree = context.owning_tree()
    nodes = tree.nodes
    walked = list(tree.root.iter_subtree())
    if len(walked) == len(nodes) and all(map(is_, walked, nodes)):
        fresh = DocumentLayout(tree)
        fresh.on_demand = True
        if fresh.covers(context):
            return fresh
    raise EvaluationError(
        "cannot evaluate over an unfrozen tree: node ids are not "
        "in document order (re-freeze it with index_tree)"
    )
