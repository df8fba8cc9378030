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
  MFA rewrite;
* the columnar :class:`repro.docstore.layout.DocumentLayout` is
  persisted alongside as a **binary, mmap-able sidecar**
  (``.doclay.bin``: a sealed header + int32 little-endian columns), so a
  cold worker that re-parses a known document rehydrates the layout
  tables as zero-copy views over the mapped file instead of re-walking
  the tree.

The ``--doc-dir`` tier is a :class:`repro.tier.FileTier` (atomic
best-effort writes; corruption, version and shape mismatches are counted
misses — the index or layout is rebuilt and the file overwritten; an
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

import functools
import os
import struct
import sys
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path

from ..hype.index import (
    CompressedLabelIndex,
    Index,
    SubtreeLabelIndex,
)
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
#: one mask column) and a sealed layout sidecar, each crc32-checked; the
#: v1/v2 gzip-JSON index files and v2 sidecars are never read again and
#: are swept by ``gc``.
DOC_FORMAT_VERSION = 3

#: Suffix of index records inside a ``--doc-dir``.
DOC_INDEX_SUFFIX = ".docidx.bin"

#: Suffix of binary document-layout sidecars inside a ``--doc-dir``.
DOC_LAYOUT_SUFFIX = ".doclay.bin"

#: Suffix of the gzip-JSON index files of formats v1/v2: never read,
#: always swept.
_RETIRED_INDEX_SUFFIX = ".docidx.json.gz"

# Both kinds share one sealed header, so a record's offsets are
# computable without reading anything else:
#
#   4s magic | u32 version | u32 crc32 of every byte after this field
#   | 64s content-hash echo | four u32 counts (per kind, below)
#
# then the label blob (utf-8, NUL-joined, zero-padded to a 4-byte
# boundary) and the kind's columns.  A flipped bit anywhere fails the
# magic, the version or the crc, so a damaged file is a counted rebuild
# before any count or column of it is read.
_SEAL = struct.Struct("<4sII")
_ECHO = struct.Struct("<64s4I")
_INDEX_MAGIC = b"RDIX"
_LAYOUT_MAGIC = b"RLAY"

#: Struct code of a file-local mask id, by its byte width.
_ID_CODES = {1: "B", 2: "H", 4: "I"}


@dataclass
class DocStoreStats(Counters):
    """Document-tier counters (a point-in-time copy is a snapshot).

    ``hits``/``misses`` count in-memory document resolutions (a miss is
    a parse or adoption); ``index_builds`` counts OptHyPE indexes built
    from the tree — the number the whole tier exists to minimise —
    while ``index_loads``/``index_stores`` count the persistent tier's
    rehydrations and write-backs (one record per document), and
    ``layout_loads``/``layout_stores`` the same for the binary layout
    sidecars.  A document's second variant is a conversion of its first
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
    layout_loads: int = 0
    layout_stores: int = 0
    corrupt: int = 0
    errors: int = 0
    evictions: int = 0
    gc_removed: int = 0


class DocIndexTier(FileTier):
    """The on-disk tier of one ``--doc-dir`` directory: per document one
    sealed index record and one sealed layout sidecar."""

    def path_for(self, content_hash: str) -> Path:
        """The index record backing one document (both variants).

        The filename spells out its key (the content hash is already a
        safe hex string), so operators can audit a directory directly
        and version bumps leave old files visibly stale.
        """
        return self.root / f"{content_hash}.v{DOC_FORMAT_VERSION}{DOC_INDEX_SUFFIX}"

    def layout_path_for(self, content_hash: str) -> Path:
        """The binary layout sidecar backing one document."""
        return self.root / f"{content_hash}.v{DOC_FORMAT_VERSION}{DOC_LAYOUT_SUFFIX}"

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
        file).  The index is keyed in the layout's label table and
        stamped with the tree's current freeze, like one built from it
        now.
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

    # ------------------------------------------------------------------
    def load_layout(
        self, content_hash: str, tree: XMLTree
    ) -> DocumentLayout | None:
        """Rehydrate the binary layout sidecar, or ``None`` on any miss.

        The file is mapped, not read: once its seal and header check out,
        the integer columns become zero-copy ``memoryview`` casts over the
        mapping (big-endian hosts fall back to a byte-swapped copy), so a
        cold worker pays one crc pass instead of a tree walk.  The
        mapping stays alive exactly as long as the views into it.
        """
        layout = self.read(
            self.layout_path_for(content_hash),
            "doc-tier.load-layout",
            lambda buf: _layout_from_buffer(buf, content_hash, tree),
            mapped=True,
        )
        if layout is not None:
            self.stats.count("layout_loads")
        return layout

    def save_layout(self, content_hash: str, layout: DocumentLayout) -> bool:
        """Persist ``layout``; whether the write landed."""
        landed = self.write(
            self.layout_path_for(content_hash),
            _layout_to_bytes(layout, content_hash),
            "doc-tier.save-layout",
        )
        if landed:
            self.stats.count("layout_stores")
        return landed

    # ------------------------------------------------------------------
    def gc(self) -> int:
        """Remove tier files the current format will never read.

        Sweeps anything under the tier's suffixes that no :meth:`load` /
        :meth:`load_layout` of the running version could serve: the
        retired gzip-JSON index files, files whose name does not carry
        the current ``.v{DOC_FORMAT_VERSION}`` tag (every pre-bump file),
        and current-version files that fail their seal or do not echo
        their own name (a renamed, truncated or bit-rotted file) — every
        check a load makes except the ones that need the live tree.
        Unknown files are left alone.  Returns the number removed (also
        counted in ``stats.gc_removed``).
        """

        def keep(path: Path, raw: bytes) -> bool:
            content_hash = path.name.split(".")[0]
            if path == self.path_for(content_hash):
                _index_header(memoryview(raw), content_hash)
            elif path == self.layout_path_for(content_hash):
                _layout_header(memoryview(raw), content_hash)
            else:
                return False
            return True

        return self.sweep(
            (DOC_INDEX_SUFFIX, DOC_LAYOUT_SUFFIX, _RETIRED_INDEX_SUFFIX), keep
        )

    def __len__(self) -> int:
        """Number of current-version index records: one per document."""
        return sum(
            1 for _ in self.root.glob(f"*.v{DOC_FORMAT_VERSION}{DOC_INDEX_SUFFIX}")
        )


# ----------------------------------------------------------------------
# The sealed header and the label blob, shared by both kinds.


def _seal(magic: bytes, content_hash: str, counts: tuple, parts: list) -> bytes:
    """One record: the sealed header over ``counts`` and the body
    ``parts``, the crc32 covering everything after its own field."""
    parts = [_ECHO.pack(content_hash.encode("ascii"), *counts), *parts]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([_SEAL.pack(magic, DOC_FORMAT_VERSION, crc), *parts])


def _unseal(view: memoryview, magic: bytes, content_hash: str) -> list[int]:
    """Check one record's seal and key echo (raises ``ValueError``);
    its four counts."""
    if len(view) < _SEAL.size + _ECHO.size:
        raise ValueError("document-tier record is truncated")
    found, version, crc = _SEAL.unpack_from(view)
    if found != magic:
        raise ValueError("document-tier record magic mismatch")
    if version != DOC_FORMAT_VERSION:
        raise ValueError("document-tier record format version mismatch")
    if zlib.crc32(view[_SEAL.size :]) != crc:
        raise ValueError("document-tier record checksum mismatch")
    echo, *counts = _ECHO.unpack_from(view, _SEAL.size)
    if echo != content_hash.encode("ascii"):
        raise ValueError("document-tier record content hash mismatch")
    return counts


def _label_blob(labels) -> tuple[int, bytes]:
    """The labels NUL-joined in utf-8: the blob's length (the header's)
    and its bytes zero-padded to a 4-byte boundary (the body's)."""
    blob = "\x00".join(labels).encode("utf-8")
    return len(blob), blob + b"\x00" * (-len(blob) % 4)


def _blob_labels(view: memoryview, blob_len: int) -> tuple[list[str], int]:
    """The record's labels and the offset of its first column."""
    start = _SEAL.size + _ECHO.size
    blob = bytes(view[start : start + blob_len])
    try:
        labels = blob.decode("utf-8").split("\x00") if blob else []
    except UnicodeDecodeError:
        raise ValueError("document-tier label blob is not utf-8") from None
    if len(set(labels)) != len(labels):
        raise ValueError("document-tier labels must be unique")
    return labels, start + blob_len + (-blob_len % 4)


# ----------------------------------------------------------------------
# Index record codec.  Header counts: nodes, label-blob length, distinct
# masks, id width.  Body: the label blob in the table's bit order
# (label ``labels[i]`` is bit ``2 << i``, text bit 0), the document's
# distinct masks in first-appearance order (``(len(labels) + 8) // 8``
# bytes each, little-endian), one file-local mask id per node (u8 / u16
# / u32 by the mask count; stored raw, so a record's bytes do not depend
# on the zlib build).  Both variants are this one column: the
# plain index looks the ids up in the masks, OptHyPE-C in their
# table-wide interning.


def _index_record(index: Index, content_hash: str) -> bytes:
    """The sealed record of ``index``'s document — the same bytes for
    either variant, whatever the shared table interned before."""
    keys = index.mask_keys
    distinct = list(dict.fromkeys(keys))
    local = dict(zip(distinct, range(len(distinct))))
    if index.compressed:
        interned = index.table.masks
        distinct = [interned[key] for key in distinct]
    labels = index.table.labels
    mask_width = (len(labels) + 8) // 8
    width = 1 if len(distinct) <= 1 << 8 else 2 if len(distinct) <= 1 << 16 else 4
    blob_len, blob = _label_blob(labels)
    return _seal(
        _INDEX_MAGIC,
        content_hash,
        (len(keys), blob_len, len(distinct), width),
        [
            blob,
            b"".join(mask.to_bytes(mask_width, "little") for mask in distinct),
            struct.pack(f"<{len(keys)}{_ID_CODES[width]}", *map(local.__getitem__, keys)),
        ],
    )


def _index_header(view: memoryview, content_hash: str) -> tuple:
    """Validate one record against its name and its own length —
    everything that does not need the tree (raises ``ValueError``).
    Returns ``(num_nodes, labels, masks, ids)``: ``ids`` the file-local
    mask id per node, each below ``len(masks)``."""
    num_nodes, blob_len, count, width = _unseal(view, _INDEX_MAGIC, content_hash)
    code = _ID_CODES.get(width)
    if code is None:
        raise ValueError("document-index id width is not 1, 2 or 4")
    labels, offset = _blob_labels(view, blob_len)
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
    ids = struct.unpack_from(f"<{num_nodes}{code}", view, ids_at)
    if ids and max(ids) >= count:
        raise ValueError("document-index ids point outside the mask table")
    return num_nodes, labels, masks, ids


def _index_from_record(
    raw: bytes, content_hash: str, compressed: bool, layout: DocumentLayout
) -> Index:
    """The variant ``compressed`` of the index a record describes, if it
    covers ``layout``'s tree in ``layout``'s label table (raises
    ``ValueError``).

    A record is written in its document's table, and a document's table
    is the same in every process (sorted labels, or the sidecar's order,
    which is the same): a record in another label order is not this
    document's.
    """
    tree, table = layout.tree, layout.table
    num_nodes, labels, masks, ids = _index_header(memoryview(raw), content_hash)
    if num_nodes != tree.size:
        raise ValueError("document-index record does not cover the tree")
    if tuple(labels) != table.labels:
        raise ValueError("document-index labels are not the document's table")
    if compressed:
        # File-local ids -> the table-wide ones the live index is keyed by.
        interned = table.mask_ids(masks)
        return CompressedLabelIndex(
            table, [interned[local] for local in ids], tree.freeze_count
        )
    return SubtreeLabelIndex(table, [masks[local] for local in ids], tree.freeze_count)


# ----------------------------------------------------------------------
# Binary layout sidecar codec.  Header counts: nodes, labels, kids,
# label-blob length.  Body: the label blob, then four int32
# little-endian columns:
#
#   node_label[num_nodes]  kid_ids[num_kids]  kid_labels[num_kids]
#   kid_start[num_nodes + 1]
#
# Fixed offsets and int32 columns make the load a crc pass plus a
# handful of pointer arithmetic operations over an mmap — the whole
# point of the format.


@functools.lru_cache(maxsize=64)
def _int32s(count: int) -> struct.Struct:
    return struct.Struct(f"<{count}i")


def _int32_bytes(values) -> bytes:
    """``values`` as int32 little-endian bytes (host-order agnostic)."""
    return _int32s(len(values)).pack(*values)


def _int32_column(view: memoryview, offset: int, count: int):
    """A zero-copy int32 view over ``view[offset:]`` (copy on BE hosts)."""
    window = view[offset : offset + 4 * count]
    if sys.byteorder == "little":
        return window.cast("i")
    column = array("i")  # pragma: no cover - big-endian hosts
    column.frombytes(window.tobytes())
    column.byteswap()
    return column


def _layout_to_bytes(layout: DocumentLayout, content_hash: str) -> bytes:
    """Serialise one built layout into the sealed sidecar record."""
    blob_len, blob = _label_blob(layout.labels)
    return _seal(
        _LAYOUT_MAGIC,
        content_hash,
        (len(layout.node_label), len(layout.labels), len(layout.kid_ids), blob_len),
        [
            blob,
            _int32_bytes(layout.node_label),
            _int32_bytes(layout.kid_ids),
            _int32_bytes(layout.kid_labels),
            _int32_bytes(layout.kid_start),
        ],
    )


def _layout_header(view: memoryview, content_hash: str) -> tuple:
    """Validate one sidecar against its name and its own length —
    everything that does not need the tree (raises ``ValueError``).
    Returns ``(num_nodes, num_kids, labels, first column offset)``."""
    num_nodes, num_labels, num_kids, blob_len = _unseal(
        view, _LAYOUT_MAGIC, content_hash
    )
    labels, offset = _blob_labels(view, blob_len)
    if len(labels) != num_labels:
        raise ValueError("document-layout label table is malformed")
    if len(view) != offset + 4 * (2 * num_nodes + 2 * num_kids + 1):
        raise ValueError("document-layout column lengths do not match header")
    return num_nodes, num_kids, labels, offset


def _layout_from_buffer(
    buf, content_hash: str, tree: XMLTree
) -> DocumentLayout:
    """Decode and validate one sidecar (raises ``ValueError``).

    The seal and header (:func:`_layout_header`), the node count against
    the live tree and the span-table endpoints are checked; the columns
    are then read as written — the crc32 has vouched for every byte.
    """
    view = memoryview(buf)
    num_nodes, num_kids, labels, offset = _layout_header(view, content_hash)
    if num_nodes != tree.size:
        raise ValueError("document-layout node count does not cover the tree")
    node_label = _int32_column(view, offset, num_nodes)
    offset += 4 * num_nodes
    kid_ids = _int32_column(view, offset, num_kids)
    offset += 4 * num_kids
    kid_labels = _int32_column(view, offset, num_kids)
    offset += 4 * num_kids
    kid_start = _int32_column(view, offset, num_nodes + 1)
    if num_nodes and (kid_start[0] != 0 or kid_start[num_nodes] != num_kids):
        raise ValueError("document-layout span table is malformed")
    return DocumentLayout.from_arrays(
        tree, labels, node_label, kid_ids, kid_labels, kid_start
    )


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
