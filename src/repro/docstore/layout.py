"""Columnar document layout: interned labels + flattened child spans.

HyPE's inner loop spends its Python time on exactly four things per
child visit: reading a child's label, skipping text children, hashing
the label string into the per-``(mstates, relevant)`` child cache, and
iterating a node's children.  None of that work depends on the query —
it is a pure function of the frozen document — so a
:class:`DocumentLayout` reads it off the tree's
:class:`repro.xtree.node.TreeColumns` once per document into flat
integer arrays (the array-of-struct layout of high-throughput tree
engines):

* ``table`` — the :class:`repro.hype.index.LabelTable` of the
  document's label set (dense ids ``0..num_labels-1``; sorted label
  order for a fresh build, so documents of one DTD share one table);
* ``node_label`` — per ``node_id``, the interned label id
  (:data:`TEXT_ID` for text nodes);
* ``kid_ids`` / ``kid_labels`` / ``kid_start`` — the flattened
  element-children table: node ``i``'s element children are
  ``kid_ids[kid_start[i]:kid_start[i+1]]``, with their label ids in
  the parallel ``kid_labels`` slice.  Text children are excluded, so the
  hot loop never re-tests them; ``kid_ids`` / ``kid_start`` are the
  tree's own element-kid spans;
* ``columns`` — the tree's :class:`repro.xtree.node.TreeColumns`,
  whose ``text`` / ``position`` columns the ``text() = c`` /
  ``position() = k`` filters compare at a node id, in O(1).

These columns are the only document the evaluator walks
(:func:`repro.hype.kernel.descend`,
:func:`repro.hype.compose.descend_composed`), by node id — no
:class:`repro.xtree.node.Node` is created on the way: child-transition
rows are keyed by integer label id — a list index, not a string-keyed
dict probe.  The rows belong to the label table
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

from ..errors import EvaluationError
from ..hype.index import Index, LabelTable, build_index, label_table
from ..xtree.node import Node, TEXT_LABEL, TreeColumns, XMLTree

#: ``node_label`` entry for text (PCDATA) nodes.
TEXT_ID = -1


class DocumentLayout:
    """Flattened columnar tables of one frozen :class:`XMLTree`."""

    __slots__ = (
        "tree",
        "columns",
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
        table = label_table(sorted(tree.labels))
        lids = {**table.label_ids, TEXT_LABEL: TEXT_ID}
        columns = tree.columns
        node_label = list(map(lids.__getitem__, columns.label))
        self._adopt(
            tree,
            table,
            node_label,
            columns.kid_ids,
            list(map(node_label.__getitem__, columns.kid_ids)),
            columns.kid_start,
        )

    def _adopt(self, tree, table, node_label, kid_ids, kid_labels, kid_start):
        self.tree = tree
        # The freeze these columns describe: index_tree() re-freezes IN
        # PLACE (same tree object) with new TreeColumns, after which
        # covers() stands down and the evaluator walks fresh columns
        # (covering_layout) instead.
        self.columns: TreeColumns = tree.columns
        self._freeze_count = tree.freeze_count
        self.table: LabelTable = table
        self.node_label = node_label
        self.kid_ids = kid_ids
        self.kid_labels = kid_labels
        self.kid_start = kid_start
        #: compressed? -> the OptHyPE(-C) index of this freeze, parked by
        #: whoever built or loaded it (``IndexedDocument.index_for``).
        self.indexes: dict[bool, Index] = {}
        #: Throw-away columns (:func:`covering_layout`) have no owner to
        #: build their mask column: a run sweeps it when it needs it.
        self.on_demand = False

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
        """Rehydrate a layout from already-built columns.

        The persistence path (:meth:`repro.docstore.store.DocIndexTier.
        load_layout`) hands in zero-copy ``memoryview`` casts over an
        mmap'ed sidecar; the hot loop only ever *indexes* the columns,
        so views serve exactly like built lists (and they keep the
        mapping alive for as long as the layout lives).  ``labels`` is
        taken in the order the columns were written in: no column is
        remapped, and a file in sorted order joins the table fresh
        builds use.
        """
        layout = cls.__new__(cls)
        layout._adopt(
            tree, label_table(labels), node_label, kid_ids, kid_labels, kid_start
        )
        return layout

    # ------------------------------------------------------------------
    @property
    def labels(self) -> tuple[str, ...]:
        """The label table's labels, in id order."""
        return self.table.labels

    def span(self, node_id: int) -> tuple[int, int]:
        """The ``kid_ids``/``kid_labels`` span of a node's element kids."""
        return self.kid_start[node_id], self.kid_start[node_id + 1]

    def covers(self, context: Node | int) -> bool:
        """Whether ``context`` — a node, or a node id of this layout's
        tree — belongs to this layout's document *as frozen*.

        The descent indexes the tables by node id, so it is only valid
        for nodes of the tree the layout was built from — and only for
        the freeze it snapshotted: a structural edit +
        :func:`repro.xtree.node.index_tree` re-freeze gives the tree new
        columns, after which this layout stands down
        (:func:`covering_layout` builds the fresh structure's columns)
        instead of silently serving the stale structure.
        """
        columns = self.columns
        if self.tree.columns is not columns:
            return False
        if isinstance(context, Node):
            return context.columns is columns
        return 0 <= context < len(columns.label)

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DocumentLayout(nodes={len(self.node_label)}, "
            f"labels={len(self.labels)}, kids={len(self.kid_ids)})"
        )


def covering_layout(
    context: Node | int, layout: DocumentLayout | None = None
) -> tuple[DocumentLayout, int]:
    """``(layout, context id)``: ``layout`` if it covers ``context``,
    else fresh columns.

    The one place a descent gets its document from.  ``context`` is a
    node, or a node id of ``layout``'s tree (the serving path, which
    creates no node).  A missing, stale (re-frozen tree) or foreign
    layout is never indexed: a new layout is built over the tree that
    owns ``context`` — once per call, kept nowhere, its mask column
    swept when an indexed lane asks; a caller that evaluates twice holds
    an :class:`repro.docstore.document.IndexedDocument`.

    Raises:
        EvaluationError: when ``context`` has no live owning tree (never
            frozen, or its document was released), when a node's tree was
            edited since its freeze and not re-frozen (the columns would
            mis-index it), or when a node id comes without a layout.
    """
    node = isinstance(context, Node)
    if layout is None or not layout.covers(context):
        if node:
            tree = context.owning_tree()
        elif layout is not None:
            tree = layout.tree
        else:
            raise EvaluationError("a node-id context needs its document's layout")
        layout = None
        if not tree.nodes.edited():
            layout = DocumentLayout(tree)
            layout.on_demand = True
        if layout is None or not layout.covers(context):
            raise EvaluationError(
                "cannot evaluate over an unfrozen tree: node ids are not "
                "in document order (re-freeze it with index_tree)"
            )
    return layout, context.node_id if node else context
