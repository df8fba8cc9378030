"""Content-addressed document store + persistent OptHyPE index tier.

The serving stack used to treat documents as caller-owned: every
service, tenant and benchmark run re-parsed the same XML and rebuilt the
same OptHyPE index.  The :class:`DocumentStore` makes documents a shared,
content-addressed asset instead:

* ``get(content)`` hashes the XML text (sha256) and parses **at most
  once per content hash** — concurrent cold requests for one document
  wait on a per-key gate and receive the same shared
  :class:`repro.docstore.document.IndexedDocument`; that one parse
  (:func:`repro.xtree.parse.parse_canonical`) also freezes the tree and
  emits the canonical text the document is addressed by, so ingest
  walks a new document's text once and its nodes never again before the
  layout;
* every holder of that document shares one columnar layout and one
  OptHyPE index per variant (built exactly once, see
  :meth:`IndexedDocument.index_for`);
* with a persistent tier (``--doc-dir``), a document's subtree masks
  are written once — one binary record per document serves both index
  variants — version-tagged, crc32-sealed, atomically written and
  validated on load, so a restarted service skips index construction
  for previously-seen documents just as ``--plan-dir`` lets it skip the
  MFA rewrite.  Nothing else is persisted: the columnar
  :class:`repro.docstore.layout.DocumentLayout` is the parse's own
  lists, so a restart rebuilds it with the parse it needs anyway.

The ``--doc-dir`` tier is a :class:`repro.tier.FileTier` (atomic
best-effort writes; corruption, version and shape mismatches are counted
misses — the index is rebuilt and the file overwritten; an
unwritable disk degrades to memory-only operation, never fails serving),
and the store itself a :class:`repro.tier.SingleFlightLRU` — both
disciplines are described once, in :mod:`repro.tier`.  Every record
carries a crc32 of its bytes, so the directory is not trusted for
*integrity*: a flipped bit, a torn or a renamed file is a counted
rebuild, never a wrong answer.  It is still trusted against a writer
that seals a valid record on purpose — that adversary is out of scope.
:meth:`DocIndexTier.gc` reclaims files the current version will never
read.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

from ..hype.index import Index, from_classes, id_width, local_ids
from ..obs.counters import Counters
from ..tier import FileTier, SingleFlightLRU
from ..xtree.node import XMLTree
from ..xtree.parse import parse_canonical
from ..xtree.serialize import serialize
from .document import IndexedDocument, content_digest
from .layout import DocumentLayout

#: Version of the persisted document-tier format.  Bump whenever a
#: record layout or the index semantics change; old files then simply
#: stop matching (their filename carries the version) and are rebuilt —
#: :meth:`DocIndexTier.gc` reclaims them.
#: v3: one sealed binary index record per document (both variants are
#: one mask column), crc32-checked; the v1/v2 gzip-JSON index files and
#: the layout sidecars of every version are never read again and are
#: swept by ``gc``.
DOC_FORMAT_VERSION = 3

#: Suffix of index records inside a ``--doc-dir``.
DOC_INDEX_SUFFIX = ".docidx.bin"

# A record opens with a sealed header, so its offsets are computable without
# reading anything else:
#
#   4s magic | u32 version | u32 crc32 of every byte after this field
#   | 64s content-hash echo | u32 nodes | u32 label-blob length
#   | u32 distinct masks | u32 id width
#
# then the body (the codec below).  A flipped bit anywhere fails the
# magic, the version or the crc, so a damaged file is a counted rebuild
# before any count or column of it is read.
_SEAL = struct.Struct("<4sII")
_ECHO = struct.Struct("<64s4I")
_MAGIC = b"RDIX"

#: Struct code of a file-local mask id, by its byte width.
_ID_CODES = {1: "B", 2: "H", 4: "I"}


@dataclass
class DocStoreStats(Counters):
    """Document-tier counters (a point-in-time copy is a snapshot).

    ``hits``/``misses`` count in-memory document resolutions (a miss is
    a parse or adoption); ``index_builds`` counts OptHyPE indexes built
    from the tree — the number the whole tier exists to minimise —
    while ``index_loads``/``index_stores`` count the persistent tier's
    rehydrations and write-backs (one record per document).  A document's second variant is a conversion of its first
    and counts as whatever produced that one: a build after a build, a
    load after a load — so a new document counts two builds and a
    restarted one two loads.  ``corrupt`` counts on-disk files that
    failed validation (rebuilt and overwritten), ``errors`` counts I/O
    failures, ``evictions`` counts LRU drops, ``gc_removed`` counts
    files reclaimed by :meth:`DocIndexTier.gc`.
    """

    hits: int = 0
    misses: int = 0
    index_builds: int = 0
    index_loads: int = 0
    index_stores: int = 0
    corrupt: int = 0
    errors: int = 0
    evictions: int = 0
    gc_removed: int = 0


class DocIndexTier(FileTier):
    """The on-disk tier of one ``--doc-dir`` directory: one sealed index
    record per document."""

    def path_for(self, content_hash: str) -> Path:
        """The index record backing one document (both variants).

        The filename spells out its key (the content hash is already a
        safe hex string), so operators can audit a directory directly
        and version bumps leave old files visibly stale.
        """
        return self.root / f"{content_hash}.v{DOC_FORMAT_VERSION}{DOC_INDEX_SUFFIX}"

    # ------------------------------------------------------------------
    def load(
        self, content_hash: str, compressed: bool, layout: DocumentLayout
    ) -> Index | None:
        """The persisted index (variant ``compressed``) of ``layout``'s
        document, or ``None`` on any miss.

        Everything is checked before a column is trusted: the seal
        (magic, version, crc32), the content-hash echo, the node count
        against the live tree, the lengths, the labels against the
        layout's table and the mask / id ranges.  Any failure counts as
        ``corrupt`` (the caller rebuilds and its save overwrites the bad
        file).  The index is keyed in the layout's label table, like
        one built from the tree now.
        """
        index = self.read(
            self.path_for(content_hash),
            "doc-tier.load",
            lambda raw: _index_from_record(raw, content_hash, compressed, layout),
        )
        if index is not None:
            self.stats.count("index_loads")
        return index

    def save(self, content_hash: str, compressed: bool, index: Index) -> bool:
        """Persist ``index``'s document record; whether the write landed.

        Either variant writes the same bytes (``compressed`` only names
        the one in hand), so a document needs one save.
        """
        landed = self.write(
            self.path_for(content_hash),
            _index_record(index, content_hash),
            "doc-tier.save",
        )
        if landed:
            self.stats.count("index_stores")
        return landed

    def save_layout(self, content_hash: str, layout: DocumentLayout) -> bool:
        """Inert (a layout is rebuilt, never persisted): writes nothing."""
        return False

    # ------------------------------------------------------------------
    def gc(self) -> int:
        """Remove tier files the current format will never read.

        Sweeps anything under the tier's suffixes that no :meth:`load` of
        the running version could serve: the retired kinds
        (:data:`repro.tier.RETIRED_SUFFIXES`: gzip-JSON index files,
        layout sidecars), files whose name does not carry
        the current ``.v{DOC_FORMAT_VERSION}`` tag (every pre-bump file),
        and current-version records that fail their seal or do not echo
        their own name (a renamed, truncated or bit-rotted file) — every
        check a load makes except the ones that need the live tree.
        Unknown files are left alone.  Returns the number removed (also
        counted in ``stats.gc_removed``).
        """

        def keep(path: Path, raw: bytes) -> bool:
            content_hash = path.name.split(".")[0]
            if path != self.path_for(content_hash):
                return False
            _index_header(memoryview(raw), content_hash)
            return True

        return self.sweep((DOC_INDEX_SUFFIX,), keep)

    def __len__(self) -> int:
        """Number of current-version index records: one per document."""
        return sum(
            1 for _ in self.root.glob(f"*.v{DOC_FORMAT_VERSION}{DOC_INDEX_SUFFIX}")
        )


# ----------------------------------------------------------------------
# Index record codec.  Body: the labels NUL-joined in utf-8, zero-padded
# to a 4-byte boundary, in the table's bit order (label ``labels[i]`` is
# bit ``2 << i``, text bit 0); the document's distinct masks in
# first-appearance order (``(len(labels) + 8) // 8`` bytes each,
# little-endian); one file-local mask id per node (u8 / u16 / u32 by the
# mask count; stored raw, so a record's bytes do not depend on the zlib
# build).  Both variants are this one column: the plain index looks the
# ids up in the masks, OptHyPE-C in their table-wide interning.


def _index_record(index: Index, content_hash: str) -> bytes:
    """The sealed record of ``index``'s document — the same bytes for
    either variant, whatever the shared table interned before.  An index
    gathered from its mask classes writes them as they are."""
    keys = index.mask_keys
    if index.classes is not None:
        _labels, distinct, ids = index.classes
    else:
        distinct = list(dict.fromkeys(keys))
        local = dict(zip(distinct, range(len(distinct))))
        code = _ID_CODES[id_width(len(distinct))]
        ids = struct.pack(f"<{len(keys)}{code}", *map(local.__getitem__, keys))
        if index.compressed:
            interned = index.table.masks
            distinct = [interned[key] for key in distinct]
    labels = index.table.labels
    mask_width = (len(labels) + 8) // 8
    blob = "\x00".join(labels).encode("utf-8")
    parts = [
        _ECHO.pack(
            content_hash.encode("ascii"),
            len(keys),
            len(blob),
            len(distinct),
            id_width(len(distinct)),
        ),
        blob + b"\x00" * (-len(blob) % 4),
        b"".join(mask.to_bytes(mask_width, "little") for mask in distinct),
        ids,
    ]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([_SEAL.pack(_MAGIC, DOC_FORMAT_VERSION, crc), *parts])


def _index_header(view: memoryview, content_hash: str) -> tuple:
    """Validate one record against its name and its own length —
    everything that does not need the tree (raises ``ValueError``).
    Returns ``(num_nodes, labels, masks, local)``: ``local`` the
    file-local mask ids as stored (:func:`repro.hype.index.local_ids`),
    each below ``len(masks)``."""
    if len(view) < _SEAL.size + _ECHO.size:
        raise ValueError("document-index record is truncated")
    magic, version, crc = _SEAL.unpack_from(view)
    if magic != _MAGIC:
        raise ValueError("document-index record magic mismatch")
    if version != DOC_FORMAT_VERSION:
        raise ValueError("document-index record format version mismatch")
    if zlib.crc32(view[_SEAL.size :]) != crc:
        raise ValueError("document-index record checksum mismatch")
    echo, num_nodes, blob_len, count, width = _ECHO.unpack_from(view, _SEAL.size)
    if echo != content_hash.encode("ascii"):
        raise ValueError("document-index record content hash mismatch")
    if width not in _ID_CODES:
        raise ValueError("document-index id width is not 1, 2 or 4")
    if width != id_width(count):
        raise ValueError("document-index id width does not fit its mask count")
    start = _SEAL.size + _ECHO.size
    blob = bytes(view[start : start + blob_len])
    try:
        labels = blob.decode("utf-8").split("\x00") if blob else []
    except UnicodeDecodeError:
        raise ValueError("document-index label blob is not utf-8") from None
    if len(set(labels)) != len(labels):
        raise ValueError("document-index labels must be unique")
    offset = start + blob_len + (-blob_len % 4)
    mask_width = (len(labels) + 8) // 8
    ids_at = offset + count * mask_width
    if len(view) != ids_at + num_nodes * width:
        raise ValueError("document-index column lengths do not match header")
    masks = [
        int.from_bytes(view[at : at + mask_width], "little")
        for at in range(offset, ids_at, mask_width)
    ]
    if any(mask >> (len(labels) + 1) for mask in masks):
        raise ValueError("document-index masks name bits the record lacks")
    local = bytes(view[ids_at:])
    if num_nodes and max(local_ids(local, count)) >= count:
        raise ValueError("document-index ids point outside the mask table")
    return num_nodes, labels, masks, local


def _index_from_record(
    raw: bytes, content_hash: str, compressed: bool, layout: DocumentLayout
) -> Index:
    """The variant ``compressed`` of the index a record describes, if it
    covers ``layout``'s tree in ``layout``'s label table (raises
    ``ValueError``): a gather over the record's mask classes, file-local
    ids to the masks or to their table-wide interning
    (:func:`repro.hype.index.from_classes`).

    A record is written in its document's table, and a document's table
    is the same in every process (its sorted labels): a record in
    another label order is not this document's.
    """
    tree, table = layout.tree, layout.table
    num_nodes, labels, masks, local = _index_header(memoryview(raw), content_hash)
    if num_nodes != tree.size:
        raise ValueError("document-index record does not cover the tree")
    if tuple(labels) != table.labels:
        raise ValueError("document-index labels are not the document's table")
    return from_classes(table, (table.labels, tuple(masks), local), compressed)


class DocumentStore:
    """A bounded, content-addressed cache of shared indexed documents.

    Thread-safe.  Cold content is parsed once per text and ingested
    (layout built, tier consulted) once per content address — two
    :class:`repro.tier.SingleFlightLRU` maps, the same discipline as
    :class:`repro.serve.cache.PlanCache` — and every caller receives the
    same shared :class:`IndexedDocument`, so their index builds converge
    too.
    """

    def __init__(
        self,
        capacity: int = 16,
        index_dir: str | os.PathLike | None = None,
    ) -> None:
        self.capacity = capacity
        self.stats = DocStoreStats()
        self._docs = SingleFlightLRU(capacity, self.stats)
        self.tier = (
            DocIndexTier(index_dir, self.stats) if index_dir else None
        )
        #: raw-text digest -> canonical digest.  Documents are ADDRESSED
        #: by the hash of their canonical serialisation (so a file with
        #: a trailing newline, odd whitespace, or entity variants shares
        #: one entry — and one persisted index — with its canonical
        #: form); raw digests are kept only as a fast path that lets a
        #: repeated ``get`` of the same text skip the re-parse.  Bounded
        #: and uncounted: losing an alias costs a re-parse, never
        #: correctness.
        self._aliases = SingleFlightLRU(
            max(64, 4 * capacity), DocStoreStats()
        )

    # ------------------------------------------------------------------
    def get(self, content: str) -> IndexedDocument:
        """The shared document for ``content`` (parsed at most once).

        The entry is keyed by the *canonical* content address (hash of
        the parsed tree's canonical serialisation), so every textual
        variant of one document — and every ``adopt`` of its tree —
        resolves to the same shared entry and the same ``--doc-dir``
        index files.
        """
        tree = None

        def address() -> str:
            nonlocal tree
            tree, canonical_text = parse_canonical(content)
            return content_digest(canonical_text)

        canonical = self._aliases.get(content_digest(content), address)
        # A known text whose document was evicted is parsed again here;
        # a text another variant already registered was parsed only to
        # learn its address, and its tree is dropped.
        return self._docs.get(
            canonical,
            lambda: self._ingest(
                tree if tree is not None else parse_canonical(content)[0],
                canonical,
            ),
        )

    def adopt(self, document: XMLTree | IndexedDocument) -> IndexedDocument:
        """Register an already-parsed tree under its content address.

        The address is the hash of the tree's canonical serialisation —
        the same scheme :meth:`get` resolves to — so an adopted
        generator-built document and the same document parsed from any
        textual variant share one entry (and one index).  An
        :class:`IndexedDocument` is adopted by the address it already
        carries: its tree is not serialised again.
        """
        if isinstance(document, IndexedDocument):
            tree, address = document.tree, document.content_hash
        else:
            tree, address = document, content_digest(serialize(document))
        return self._docs.get(address, lambda: self._ingest(tree, address))

    def _ingest(self, tree: XMLTree, address: str) -> IndexedDocument:
        self.stats.count("misses")
        return IndexedDocument(tree, address, stats=self.stats, tier=self.tier)

    def resolve(
        self, content_hash: str, uses: int = 1
    ) -> IndexedDocument | None:
        """The live document at ``content_hash``, or ``None``.

        The request-path lookup: a hit refreshes LRU recency and counts
        toward ``hits`` (the shared-document proof the metrics surface);
        a miss counts too, and the caller falls back to whatever strong
        reference it holds (or re-``get``s with the content).  ``uses``
        is the number of requests this one lookup serves — a batched
        wave resolves once but counts every admitted request, so the
        hit counter stays comparable across serving paths.
        """
        doc = self._docs.hit(content_hash, uses)
        if doc is None:
            self.stats.count("misses")
        return doc

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._docs)

    def __contains__(self, content_hash: str) -> bool:
        return self._docs.peek(content_hash) is not None

    def snapshot_stats(self) -> DocStoreStats:
        return self.stats.snapshot()
