"""A parsed-and-frozen document plus every derived, shareable asset.

The paper's single-pass guarantee makes the *document-side* assets — the
parsed tree, the columnar layout and the OptHyPE subtree-label indexes —
strictly more valuable than any per-query state: they are shared by every
tenant, lane, wave and algorithm variant that touches the document.  An
:class:`IndexedDocument` bundles them under build-exactly-once semantics:

* ``tree`` — the frozen :class:`repro.xtree.node.XMLTree`, immutable
  for good (a freeze is final), so nothing derived from it below ever
  goes stale;
* ``layout`` — the interned columnar tables
  (:class:`repro.docstore.layout.DocumentLayout`) the evaluator
  walks, built eagerly and once from the parse's own columns (never
  persisted: rebuilding is cheaper than reading), so no request pays
  for them;
* ``index_for(compressed)`` — the OptHyPE (or OptHyPE-C) index, built
  at most once per variant behind the document's build lock and parked
  on the layout (document → layout → index, one way), where runs read
  its mask column; only the first variant is swept or loaded (the
  second is a conversion of the first's mask column), and when the owning
  :class:`repro.docstore.store.DocumentStore` has a persistent tier
  (``--doc-dir``), a previously-persisted record is loaded instead of
  rebuilt and a fresh build is written back — one record per document.

``index_for`` is the index-provider protocol of
:meth:`repro.hype.core.CompiledPlan.for_algorithm`: N concurrent cold
requests trigger exactly ONE build (counted in ``stats.index_builds``)
instead of racing N.
"""

from __future__ import annotations

import hashlib
import threading

from ..hype.index import Index, build_index, other_variant
from ..obs.trace import span
from ..xtree.node import XMLTree
from ..xtree.serialize import serialize
from .layout import DocumentLayout


def content_digest(content: str) -> str:
    """The content address of a document: sha256 over its XML text."""
    return hashlib.sha256(content.encode("utf-8")).hexdigest()


class IndexedDocument:
    """One frozen document plus its shared layout and indexes.

    Instances are immutable from the caller's point of view: the tree
    and layout never change, and the index slots only ever go from
    unbuilt to built.  Safe to share across threads and services.

    ``stats`` is the (possibly store-shared) counter block index builds
    and tier hits are recorded into; ``tier`` is the optional on-disk
    index tier.  Both default to private/absent for stand-alone use.
    """

    def __init__(
        self,
        tree: XMLTree,
        content_hash: str | None = None,
        stats=None,
        tier=None,
    ) -> None:
        from .store import DocStoreStats  # cycle-free at call time

        self.tree = tree
        self._content_hash = content_hash
        self.stats = stats if stats is not None else DocStoreStats()
        self.tier = tier
        #: Which counter a conversion bumps: whatever produced its source.
        self._provenance = "index_builds"
        self.layout = DocumentLayout(tree)
        self._index_lock = threading.Lock()
        self._hash_lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def content_hash(self) -> str:
        """The document's content address (computed lazily when adopted).

        Documents a store parsed from text carry the hash of the
        canonical text that parse emitted; trees built in memory
        (generators, tests) are hashed over their canonical
        serialisation on first need — deterministic, so a regenerated
        document (same config, same seed) addresses the same persisted
        indexes across restarts.
        """
        digest = self._content_hash
        if digest is None:
            with self._hash_lock:
                digest = self._content_hash
                if digest is None:
                    digest = content_digest(serialize(self.tree))
                    self._content_hash = digest
        return digest

    # ------------------------------------------------------------------
    @property
    def root(self):
        """The document root (mirrors :class:`XMLTree` for callers)."""
        return self.tree.root

    @property
    def size(self) -> int:
        return self.tree.size

    # ------------------------------------------------------------------
    def index_for(self, compressed: bool) -> Index:
        """The OptHyPE(-C) index, built (or tier-loaded) exactly once.

        The build lock makes N threads racing a cold document converge
        on one build per variant and one tree sweep (or tier read) per
        document: when the other variant is in memory this one is its
        conversion, and the tier is not probed.  ``stats.index_builds``
        counts builds and ``stats.index_loads`` tier rehydrations; a
        conversion counts as whatever produced its source, and writes
        nothing (the record the first variant wrote holds both).  Either
        way the index is in the layout's label table and is parked on
        the layout.
        """
        indexes = self.layout.indexes
        index = indexes.get(compressed)
        if index is not None:
            return index
        with self._index_lock:
            index = indexes.get(compressed)
            if index is not None:
                return index
            source = indexes.get(not compressed)
            if source is not None:
                index = other_variant(source)
                self.stats.count(self._provenance)
            else:
                if self.tier is not None:
                    index = self.tier.load(self.content_hash, compressed, self.layout)
                if index is not None:
                    self._provenance = "index_loads"
                else:
                    with span(
                        "docstore.index_build",
                        compressed=compressed,
                        size=self.tree.size,
                    ):
                        index = build_index(self.tree, compressed, self.layout.table)
                    self.stats.count("index_builds")
                    if self.tier is not None:
                        self.tier.save(self.content_hash, compressed, index)
            indexes[compressed] = index
            return index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        short = (self._content_hash or "?")[:12]
        return f"IndexedDocument({short}, size={self.tree.size})"
