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
* with a persistent tier (``--doc-dir``), built indexes are serialised
  to disk — version-tagged, atomically written, validated on load — so
  a restarted service skips index construction for previously-seen
  documents just as ``--plan-dir`` lets it skip the MFA rewrite;
* the columnar :class:`repro.docstore.layout.DocumentLayout` is
  persisted alongside as a **binary, mmap-able sidecar**
  (``.doclay.bin``: a fixed header + int32 little-endian columns), so a
  cold worker that re-parses a known document rehydrates the layout
  tables as zero-copy views over the mapped file instead of re-walking
  the tree — and never touches a JSON decoder on the hot start path.

The ``--doc-dir`` tier is a :class:`repro.tier.FileTier` (atomic
best-effort writes; corruption, version and shape mismatches are counted
misses — the index or layout is rebuilt and the file overwritten; an
unwritable disk degrades to memory-only operation, never fails serving;
validation is structural, so point ``--doc-dir`` only at directories
writable solely by principals as trusted as the process), and the store
itself a :class:`repro.tier.SingleFlightLRU` — both disciplines are
described once, in :mod:`repro.tier`.  :meth:`DocIndexTier.gc` reclaims
files the current version will never read.
"""

from __future__ import annotations

import gzip
import json
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
    TEXT_BIT_LABEL,
)
from ..obs.counters import Counters
from ..tier import FileTier, SingleFlightLRU
from ..xtree.node import XMLTree
from ..xtree.parse import parse_canonical
from ..xtree.serialize import serialize
from .document import IndexedDocument, content_digest
from .layout import DocumentLayout

#: Version of the persisted document-tier format.  Bump whenever a
#: payload layout or the index semantics change; old files then simply
#: stop matching (their filename carries the version) and are rebuilt —
#: :meth:`DocIndexTier.gc` reclaims them.
#: v2: adds the binary mmap-able layout sidecar (``.doclay.bin``); v1
#: index files are never looked up again and are swept by ``gc``.
#: Every file spells out its own label order, so v2 covers both the
#: first-appearance order older builds wrote and the sorted order fresh
#: builds write: either loads as the label table of *its* order.
DOC_FORMAT_VERSION = 2

#: Suffix of index files inside a ``--doc-dir``.
DOC_INDEX_SUFFIX = ".docidx.json.gz"

#: Suffix of binary document-layout sidecars inside a ``--doc-dir``.
DOC_LAYOUT_SUFFIX = ".doclay.bin"

#: Magic prefix of a layout sidecar.  The fixed-size header that
#: follows: format version, the 64-hex-char content-hash echo, then the
#: node/label/kid counts and the byte length of the label blob — all
#: little-endian u32, so the column offsets are computable without
#: reading anything else.
_LAYOUT_MAGIC = b"RLAY"
_LAYOUT_HEADER = struct.Struct("<4sI64s4I")


@dataclass
class DocStoreStats(Counters):
    """Document-tier counters (a point-in-time copy is a snapshot).

    ``hits``/``misses`` count in-memory document resolutions (a miss is
    a parse or adoption); ``index_builds`` counts real OptHyPE index
    constructions — the number the whole tier exists to minimise —
    while ``index_loads``/``index_stores`` count the persistent tier's
    rehydrations and write-backs, and ``layout_loads``/``layout_stores``
    the same for the binary layout sidecars.  ``corrupt`` counts on-disk
    files that failed validation (rebuilt and overwritten), ``errors``
    counts I/O failures, ``evictions`` counts LRU drops, ``gc_removed``
    counts files reclaimed by :meth:`DocIndexTier.gc`.
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
    """The on-disk index tier of one ``--doc-dir`` directory."""

    def path_for(self, content_hash: str, compressed: bool) -> Path:
        """The index file backing one ``(document, variant)`` pair.

        The filename spells out its key (the content hash is already a
        safe hex string), so operators can audit a directory directly
        and version bumps leave old files visibly stale.
        """
        variant = "c" if compressed else "u"
        return self.root / (
            f"{content_hash}.{variant}.v{DOC_FORMAT_VERSION}{DOC_INDEX_SUFFIX}"
        )

    def layout_path_for(self, content_hash: str) -> Path:
        """The binary layout sidecar backing one document."""
        return self.root / (
            f"{content_hash}.v{DOC_FORMAT_VERSION}{DOC_LAYOUT_SUFFIX}"
        )

    # ------------------------------------------------------------------
    def load(
        self, content_hash: str, compressed: bool, layout: DocumentLayout
    ) -> Index | None:
        """Rehydrate the persisted index of ``layout``'s document, or
        ``None`` on any miss.

        Validation is strict: version, content hash and variant must
        echo the key, the mask arrays must cover exactly the tree's
        nodes and name only labels of the layout's table, and the
        payload must decode.  Any failure counts as ``corrupt`` (the
        caller rebuilds and the next save overwrites the bad file).  The
        index is translated into the layout's label table and stamped
        with the tree's current freeze, like one built from it now.
        """
        index = self.read(
            self.path_for(content_hash, compressed),
            "doc-tier.load",
            lambda raw: _index_from_payload(
                _index_payload(raw, content_hash, compressed), layout
            ),
        )
        if index is not None:
            self.stats.count("index_loads")
        return index

    def save(self, content_hash: str, compressed: bool, index: Index) -> bool:
        """Persist ``index``; whether the write landed."""
        payload = _index_to_payload(index, content_hash, compressed)
        landed = self.write(
            self.path_for(content_hash, compressed),
            gzip.compress(
                json.dumps(
                    payload, sort_keys=True, separators=(",", ":")
                ).encode("utf-8"),
                mtime=0,
            ),
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

        The file is mapped, not read: the integer columns become
        zero-copy ``memoryview`` casts over the mapping (big-endian
        hosts fall back to a byte-swapped copy), so a cold worker pays
        one header validation instead of a tree walk — and no JSON.
        The mapping stays alive exactly as long as the views into it.
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
        :meth:`load_layout` of the running version could serve: files
        whose name does not carry the current ``.v{DOC_FORMAT_VERSION}``
        tag (every pre-bump file), and current-version files that do not
        decode or do not echo their own name (a renamed, truncated or
        bit-rotted file) — every check a load makes except the ones that
        need the live tree.  Unknown files are left alone.  Returns the
        number removed (also counted in ``stats.gc_removed``).
        """

        def keep(path: Path, raw: bytes) -> bool:
            content_hash, variant = path.name.split(".")[:2]
            if path.name.endswith(DOC_LAYOUT_SUFFIX):
                if path != self.layout_path_for(content_hash):
                    return False
                _layout_header(memoryview(raw), content_hash)
            else:
                compressed = variant == "c"
                if path != self.path_for(content_hash, compressed):
                    return False
                _index_payload(raw, content_hash, compressed)
            return True

        return self.sweep((DOC_INDEX_SUFFIX, DOC_LAYOUT_SUFFIX), keep)

    def __len__(self) -> int:
        """Number of index files currently in the tier."""
        return sum(1 for _ in self.root.glob(f"*{DOC_INDEX_SUFFIX}"))


def _index_to_payload(
    index: Index, content_hash: str, compressed: bool
) -> dict:
    """The self-describing JSON record of one built index.

    ``bits`` is the label → bit assignment in bit order, so the record
    can be read into whatever label table the loading document has.  An
    OptHyPE-C record is self-contained and minimal: this document's
    distinct masks in first-appearance order and file-local ids — not
    the table-wide interning the live index is keyed by.
    """
    payload = {
        "doc_format_version": DOC_FORMAT_VERSION,
        "content_hash": content_hash,
        "compressed": compressed,
        "bits": [TEXT_BIT_LABEL, *index.table.labels],
    }
    if compressed:
        local: dict[int, int] = {}
        payload["ids"] = [
            local.setdefault(key, len(local)) for key in index.mask_keys
        ]
        interned = index.table.masks
        payload["mask_table"] = [interned[key] for key in local]
    else:
        payload["masks"] = list(index.mask_keys)
    return payload


def _index_payload(raw: bytes, content_hash: str, compressed: bool) -> dict:
    """Decode one index file and check everything that does not need the
    tree: container, version / hash / variant echo, field types
    (raises ``ValueError``)."""
    try:
        payload = json.loads(gzip.decompress(raw))
    except (OSError, EOFError, zlib.error) as error:
        # EOFError: gzip's truncated-stream signal — a half-written or
        # bit-rotted file must degrade to a counted rebuild.
        raise ValueError(f"document-index container: {error}") from None
    if not isinstance(payload, dict):
        raise ValueError("document-index record must be an object")
    if payload.get("doc_format_version") != DOC_FORMAT_VERSION:
        raise ValueError("document-index format version mismatch")
    if payload.get("content_hash") != content_hash:
        raise ValueError("document-index content hash mismatch")
    if payload.get("compressed") is not compressed:
        raise ValueError("document-index variant mismatch")
    labels = payload.get("bits")
    if not isinstance(labels, list) or not all(
        isinstance(label, str) for label in labels
    ):
        raise ValueError("document-index bits must be a list of labels")
    if len(set(labels)) != len(labels):
        raise ValueError("document-index bit labels must be unique")
    for column in ("mask_table", "ids") if compressed else ("masks",):
        _int_list(payload.get(column))
    return payload


def _index_from_payload(payload: dict, layout: DocumentLayout) -> Index:
    """The index a checked record describes, in ``layout``'s label
    table, if it covers the layout's tree (raises ``ValueError``).

    The record's masks are in *its* bit order; one pass over the
    distinct ones re-expresses them in the table's (the identity for a
    record written in the table's own order).
    """
    tree, table = layout.tree, layout.table
    try:
        bits = [table.bit_of[label] for label in payload["bits"]]
    except KeyError as error:
        raise ValueError(f"document-index names a foreign label {error}") from None
    compressed = payload["compressed"]
    masks = payload["mask_table" if compressed else "masks"]
    if masks and not 0 <= min(masks) <= max(masks) < 1 << len(bits):
        raise ValueError("document-index masks name bits the record lacks")
    if bits != [1 << position for position in range(len(bits))]:
        moved = {
            mask: sum(bit for position, bit in enumerate(bits) if mask >> position & 1)
            for mask in set(masks)
        }
        masks = [moved[mask] for mask in masks]
    ids = payload["ids"] if compressed else masks
    if len(ids) != tree.size:
        raise ValueError("document-index mask array does not cover the tree")
    if not compressed:
        return SubtreeLabelIndex(table, masks, tree.freeze_count)
    if ids and not (0 <= min(ids) and max(ids) < len(masks)):
        raise ValueError("document-index ids point outside the mask table")
    # File-local ids -> the table-wide ones the live index is keyed by.
    interned = table.mask_ids(masks)
    return CompressedLabelIndex(
        table, [interned[local] for local in ids], tree.freeze_count
    )


def _int_list(values: object) -> list[int]:
    if not isinstance(values, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in values
    ):
        raise ValueError("document-index arrays must hold integers")
    return values


# ----------------------------------------------------------------------
# Binary layout sidecar codec.  The record is header + label blob +
# four int32 little-endian columns:
#
#   RLAY | u32 version | 64s content-hash | u32 num_nodes
#        | u32 num_labels | u32 num_kids | u32 label-blob length
#   labels blob (utf-8, NUL-joined, zero-padded to a 4-byte boundary)
#   node_label[num_nodes]  kid_ids[num_kids]  kid_labels[num_kids]
#   kid_start[num_nodes + 1]
#
# Fixed offsets and int32 columns make the load a handful of pointer
# arithmetic operations over an mmap — the whole point of the format.


def _int32_bytes(values) -> bytes:
    """``values`` as int32 little-endian bytes (host-order agnostic)."""
    column = array("i", values)
    if column.itemsize != 4:  # pragma: no cover - exotic platforms
        column = array("l", values)
        assert column.itemsize == 4
    if sys.byteorder == "big":  # pragma: no cover - big-endian hosts
        column.byteswap()
    return column.tobytes()


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
    """Serialise one built layout into the binary sidecar record."""
    blob = "\x00".join(layout.labels).encode("utf-8")
    padding = -len(blob) % 4
    num_nodes = len(layout.node_label)
    parts = [
        _LAYOUT_HEADER.pack(
            _LAYOUT_MAGIC,
            DOC_FORMAT_VERSION,
            content_hash.encode("ascii"),
            num_nodes,
            len(layout.labels),
            len(layout.kid_ids),
            len(blob),
        ),
        blob,
        b"\x00" * padding,
        _int32_bytes(layout.node_label),
        _int32_bytes(layout.kid_ids),
        _int32_bytes(layout.kid_labels),
        _int32_bytes(layout.kid_start),
    ]
    return b"".join(parts)


def _layout_header(view: memoryview, content_hash: str) -> tuple:
    """Validate one sidecar's header against its name and its own length
    — everything that does not need the tree (raises ``ValueError``).
    Returns ``(num_nodes, num_kids, labels, first column offset)``."""
    if len(view) < _LAYOUT_HEADER.size:
        raise ValueError("document-layout sidecar is truncated")
    (
        magic,
        version,
        hash_bytes,
        num_nodes,
        num_labels,
        num_kids,
        blob_len,
    ) = _LAYOUT_HEADER.unpack_from(view, 0)
    if magic != _LAYOUT_MAGIC:
        raise ValueError("document-layout magic mismatch")
    if version != DOC_FORMAT_VERSION:
        raise ValueError("document-layout format version mismatch")
    if hash_bytes != content_hash.encode("ascii"):
        raise ValueError("document-layout content hash mismatch")
    offset = _LAYOUT_HEADER.size + blob_len + (-blob_len % 4)
    expected = offset + 4 * (num_nodes + 2 * num_kids + num_nodes + 1)
    if len(view) != expected:
        raise ValueError("document-layout column lengths do not match header")
    blob = bytes(view[_LAYOUT_HEADER.size : _LAYOUT_HEADER.size + blob_len])
    labels = blob.decode("utf-8").split("\x00") if blob else []
    if len(labels) != num_labels or len(set(labels)) != num_labels:
        raise ValueError("document-layout label table is malformed")
    return num_nodes, num_kids, labels, offset


def _layout_from_buffer(
    buf, content_hash: str, tree: XMLTree
) -> DocumentLayout:
    """Decode and validate one sidecar (raises ``ValueError``).

    Validation is structural and O(1) in the document size: the header
    (:func:`_layout_header`), the node count against the live tree and
    the span-table endpoints.  The columns themselves are trusted — same
    boundary as the index records (a ``--doc-dir`` is as trusted as the
    process).
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
