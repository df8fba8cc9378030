"""Document-store tests: content addressing, shared indexes, persistence.

The acceptance properties of the document tier:

* one content hash ⇒ one parse, one layout, one index build per variant,
  no matter how many tenants/threads/requests resolve the document;
* a restarted process over the same ``--doc-dir`` loads the persisted
  index instead of rebuilding (``index_loads`` up, ``index_builds`` 0),
  and a rehydrated index behaves identically to a built one;
* corruption, version skew and key mismatches on disk degrade to a
  counted rebuild — never a crash, never a wrong index.
"""

import hashlib
import os
import shutil
import subprocess
import sys
import threading
import zlib
from pathlib import Path

import pytest

from repro.docstore import (
    DOC_FORMAT_VERSION,
    DocumentStore,
    IndexedDocument,
    TEXT_ID,
    content_digest,
)
from repro.docstore import store as store_module
from repro.hype.api import ALGORITHMS
from repro.hype.index import build_index
from repro.serve.cache import PlanCache
from repro.serve.service import QueryService
from repro.workloads.hospital import HospitalConfig, generate_hospital_document
from repro.xtree import parse
from repro.xtree.node import TEXT_LABEL
from repro.xtree.parse import parse_xml
from repro.xtree.serialize import serialize

SRC = Path(parse.__file__).resolve().parents[2]


@pytest.fixture()
def hospital_tree():
    return generate_hospital_document(HospitalConfig(num_patients=4, seed=7))


@pytest.fixture()
def hospital_xml(hospital_tree):
    return serialize(hospital_tree)


def read_record(path, content_hash) -> dict:
    """The fields of one v3 index record (its seal checked)."""
    _nodes, labels, masks, ids = store_module._index_header(
        memoryview(path.read_bytes()), content_hash
    )
    return {"labels": labels, "masks": masks, "ids": list(ids)}


def write_record(path, content_hash, labels, masks, ids) -> None:
    """Seal a (possibly tampered) record the way the tier does — the
    structural checks behind the crc, exercised by a well-sealed file."""
    blob = "\x00".join(labels).encode("utf-8")
    mask_width = (len(labels) + 8) // 8
    body = b"".join(
        [
            store_module._ECHO.pack(
                content_hash.encode("ascii"), len(ids), len(blob), len(masks), 1
            ),
            blob + b"\x00" * (-len(blob) % 4),
            b"".join(mask.to_bytes(mask_width, "little") for mask in masks),
            bytes(ids),
        ]
    )
    seal = store_module._SEAL.pack(b"RDIX", DOC_FORMAT_VERSION, zlib.crc32(body))
    path.write_bytes(seal + body)


class TestDocumentLayout:
    def test_columnar_tables_match_the_tree(self, hospital_tree):
        doc = IndexedDocument(hospital_tree)
        layout = doc.layout
        for node in hospital_tree.nodes:
            if node.is_element:
                assert layout.labels[layout.node_label[node.node_id]] == node.label
            else:
                assert layout.node_label[node.node_id] == TEXT_ID
            start, end = layout.span(node.node_id)
            # The layout holds no node list any more: ids map back
            # through the tree's own nodes.
            kids = [hospital_tree.nodes[cid] for cid in layout.kid_ids[start:end]]
            assert kids == node.element_children()
            assert [
                layout.labels[lid] for lid in layout.kid_labels[start:end]
            ] == [c.label for c in kids]

    def test_label_ids_are_dense_and_unique(self, hospital_tree):
        """Label → id moved from the layout to its label table; a fresh
        build uses the sorted label set, whatever order labels appear in."""
        layout = IndexedDocument(hospital_tree).layout
        assert sorted(layout.table.label_ids.values()) == list(
            range(len(layout.labels))
        )
        assert layout.labels == tuple(sorted(hospital_tree.labels))
        assert layout.labels is layout.table.labels

    def test_covers_rejects_foreign_nodes(self, hospital_tree):
        layout = IndexedDocument(hospital_tree).layout
        other = generate_hospital_document(HospitalConfig(num_patients=2, seed=1))
        assert layout.covers(hospital_tree.root)
        assert layout.covers(hospital_tree.nodes[-1])
        assert not layout.covers(other.root.children[0])


class TestDocumentStore:
    def test_same_content_shares_one_document(self, hospital_xml):
        store = DocumentStore()
        first = store.get(hospital_xml)
        second = store.get(hospital_xml)
        assert first is second
        stats = store.stats
        assert stats.misses == 1 and stats.hits == 1

    def test_adopt_and_parse_share_one_address(self, hospital_tree, hospital_xml):
        store = DocumentStore()
        adopted = store.adopt(hospital_tree)
        parsed = store.get(hospital_xml)
        # The generator-built tree and its serialised text hash alike, so
        # the second resolution is a hit on the adopted entry.
        assert parsed is adopted
        assert adopted.content_hash == content_digest(hospital_xml)

    def test_textual_variants_share_one_canonical_address(self, hospital_xml):
        """Regression: get() used to key by raw-text hash while adopt()
        keyed by canonical serialisation, so a doc.xml with a trailing
        newline got its own entry (and its own --doc-dir index files)."""
        store = DocumentStore()
        canonical = store.get(hospital_xml)
        with_newline = store.get(hospital_xml + "\n")
        pretty = store.get(hospital_xml.replace("><", ">\n<", 3))
        assert with_newline is canonical
        assert pretty is canonical
        assert len(store) == 1
        # Repeating a known variant is a pure hit (alias fast path).
        assert store.get(hospital_xml + "\n") is canonical
        assert store.stats.misses == 1

    def test_variant_text_and_doc_dir_share_index_files(
        self, tmp_path, hospital_xml
    ):
        cold = DocumentStore(index_dir=tmp_path / "docs")
        cold.get(hospital_xml).index_for(True)
        warm = DocumentStore(index_dir=tmp_path / "docs")
        warm.get(hospital_xml + "\n").index_for(True)
        # The non-canonical text still finds the persisted index.
        assert warm.stats.index_builds == 0 and warm.stats.index_loads == 1
        assert len(cold.tier) == 1

    def test_resolve_counts_request_path_hits(self, hospital_xml):
        store = DocumentStore()
        doc = store.get(hospital_xml)
        for _ in range(5):
            assert store.resolve(doc.content_hash) is doc
        assert store.resolve("0" * 64) is None
        stats = store.stats
        assert stats.hits == 5 and stats.misses == 2

    def test_lru_eviction_is_counted(self):
        store = DocumentStore(capacity=1)
        store.get("<a/>")
        store.get("<b/>")
        assert len(store) == 1
        assert store.stats.evictions == 1

    def test_deep_document_ingests(self):
        """Regression: the recursive serialiser died on the way to the
        content address (RecursionError) although nothing else recursed."""
        depth = 5000
        xml = "<a>" * depth + "x" + "</a>" * depth
        parsed = DocumentStore().get(xml)
        adopted = DocumentStore().adopt(parse_xml(xml))
        assert parsed.content_hash == adopted.content_hash == content_digest(xml)
        assert parsed.index_for(False).masks[depth - 1] == parsed.index_for(True).masks[depth - 1]
        with QueryService(parsed) as service:
            service.register_tenant("admin", None)
            for algorithm in ALGORITHMS:
                answer = service.submit("admin", "//a[text() = 'x']", algorithm)
                assert answer.ids() == [depth - 1]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DocumentStore(capacity=0)


class TestIngestWalks:
    """How often a new document is walked on its way to being served —
    counted, so the one-pass ingest holds without a timing floor."""

    @pytest.fixture()
    def walks(self, monkeypatch):
        import repro.docstore.document as document_module
        import repro.docstore.store as store_module
        import repro.hype.index as index_module
        import repro.xtree.node as node_module

        counts = {"serialize": 0, "freeze": 0, "sweep": 0, "parse": 0}

        def spy(kind, module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                counts[kind] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        spy("serialize", store_module, "serialize")
        spy("serialize", document_module, "serialize")
        spy("freeze", node_module, "_freeze")
        spy("sweep", index_module, "subtree_masks")
        spy("parse", store_module, "parse_canonical")
        return counts

    @pytest.fixture(params=["compiled", "python"])
    def scan(self, request, monkeypatch):
        """Which token pass parses: the compiled one (skipped where it
        did not build), whose trees carry their mask classes, or the
        Python one, whose trees the index sweeps."""
        if request.param == "python":
            monkeypatch.setattr(parse, "_scan", None)
        elif parse.SCAN != "compiled":
            pytest.skip(f"scan is {parse.SCAN!r}")
        return request.param

    def test_text_to_served_is_one_parse_and_one_sweep(self, hospital_xml, walks, scan):
        """A compiled scan hands the index its mask classes, so nothing
        sweeps the tree; a tree of the Python pass is swept once."""
        sweeps = 0 if scan == "compiled" else 1
        store = DocumentStore()
        scratch = store.get("<scratch/>")
        with QueryService(scratch, document_store=store) as service:
            before = dict(walks)
            doc = store.get(hospital_xml)
            content_hash = service.add_document(doc)
            service.register_tenant("admin", None, documents=(content_hash,))
            for algorithm in ALGORITHMS:
                service.submit("admin", "//patient/pname", algorithm, document=content_hash)
            spent = {kind: walks[kind] - before[kind] for kind in walks}
            assert spent == {"serialize": 0, "freeze": 0, "sweep": sweeps, "parse": 1}
            assert store.stats.index_builds == 2
            assert store.get(hospital_xml) is doc
            assert walks["parse"] == before["parse"] + 1

    def test_unaddressed_document_is_serialised_once(self, hospital_tree, walks):
        store = DocumentStore()
        doc = IndexedDocument(hospital_tree)
        assert store.adopt(doc) is store.adopt(doc)
        assert walks["serialize"] == 1

    def test_both_variants_expose_the_same_masks(self, hospital_xml, walks, scan):
        """The label → bit map both variants shared (``index.bits``) is
        the label table's now — and so is OptHyPE-C's mask interning, so
        a reference build of the same label set has the same keys."""
        for first in (False, True):
            doc = DocumentStore().get(hospital_xml)
            derived_from, derived = doc.index_for(first), doc.index_for(not first)
            assert derived.table is derived_from.table is doc.layout.table
            assert doc.layout.indexes == {first: derived_from, not first: derived}
            for compressed, index in ((first, derived_from), (not first, derived)):
                built = build_index(doc.tree, compressed=compressed)
                assert built.table is index.table
                assert list(index.mask_keys) == list(built.mask_keys)
                assert index.memory_entries() == built.memory_entries()
                assert index.masks == built.masks
            assert derived.distinct_masks() == derived_from.distinct_masks()
        # One per document + the four references, or none at all when
        # every tree carries its mask classes.
        assert walks["sweep"] == (0 if scan == "compiled" else 2 + 4)


class TestIndexSharing:
    def test_index_built_exactly_once_per_variant(self, hospital_tree):
        doc = IndexedDocument(hospital_tree)
        a = doc.index_for(False)
        b = doc.index_for(False)
        c = doc.index_for(True)
        assert a is b and c is not a
        assert doc.stats.index_builds == 2
        assert doc.layout.indexes == {False: a, True: c}  # parked on the layout

    def test_n_threads_one_cold_document_one_build(self, hospital_xml):
        """The concurrency acceptance: N threads racing a cold document
        trigger exactly one index build (per variant)."""
        store = DocumentStore()
        doc = store.get(hospital_xml)
        indexes = []
        barrier = threading.Barrier(8)

        def build():
            barrier.wait()
            indexes.append(doc.index_for(True))

        threads = [threading.Thread(target=build) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(index) for index in indexes}) == 1
        assert store.stats.index_builds == 1


class TestPersistentTier:
    def test_restart_loads_instead_of_building(self, tmp_path, hospital_xml):
        cold = DocumentStore(index_dir=tmp_path / "docs")
        cold.get(hospital_xml).index_for(True)
        assert cold.stats.index_builds == 1
        assert cold.stats.index_stores == 1

        warm = DocumentStore(index_dir=tmp_path / "docs")
        loaded = warm.get(hospital_xml).index_for(True)
        assert warm.stats.index_builds == 0
        assert warm.stats.index_loads == 1
        built = cold.get(hospital_xml).index_for(True)
        # A rehydrated index is observationally identical to a built one
        # — same table, same table-wide mask ids.
        assert loaded.table is built.table
        assert loaded.mask_keys == built.mask_keys
        assert loaded.masks == built.masks

    def test_uncompressed_variant_round_trips(self, tmp_path, hospital_xml):
        cold = DocumentStore(index_dir=tmp_path / "docs")
        built = cold.get(hospital_xml).index_for(False)
        warm = DocumentStore(index_dir=tmp_path / "docs")
        loaded = warm.get(hospital_xml).index_for(False)
        assert warm.stats.index_builds == 0 and warm.stats.index_loads == 1
        assert loaded.masks == built.masks
        assert loaded.table is built.table

    def test_corrupt_index_file_is_counted_and_rebuilt(
        self, tmp_path, hospital_xml
    ):
        cold = DocumentStore(index_dir=tmp_path / "docs")
        doc = cold.get(hospital_xml)
        doc.index_for(True)
        path = cold.tier.path_for(doc.content_hash)
        path.write_bytes(b"\x00 not a record \x00")

        warm = DocumentStore(index_dir=tmp_path / "docs")
        warm.get(hospital_xml).index_for(True)
        assert warm.stats.corrupt == 1
        assert warm.stats.index_builds == 1  # rebuilt
        assert warm.stats.index_stores == 1  # and overwritten

    @pytest.mark.parametrize(
        "tamper",
        [
            # no longer covers the tree
            lambda record: record["ids"].pop(),
            # a label the loading table lacks
            lambda record: record["labels"].__setitem__(0, "no-such-label"),
            # a mask naming a bit the record does not declare
            lambda record: record["masks"].__setitem__(
                0, (1 << 8 * ((len(record["labels"]) + 8) // 8)) - 1
            ),
            # an id outside the mask table
            lambda record: record["ids"].__setitem__(0, len(record["masks"])),
        ],
        ids=["short", "foreign-label", "foreign-bit", "foreign-id"],
    )
    def test_a_sealed_record_that_does_not_fit_is_rejected(
        self, tmp_path, hospital_xml, tamper
    ):
        """Behind the crc, a record is still read into the loading
        document's tree and label table: one that does not cover the
        tree, names a label the table lacks or a bit the record does not
        declare, or points outside its own mask table is a counted
        rebuild — not a junk mask interned into a table other documents
        share."""
        cold = DocumentStore(index_dir=tmp_path / "docs")
        doc = cold.get(hospital_xml)
        doc.index_for(False)
        path = cold.tier.path_for(doc.content_hash)
        record = read_record(path, doc.content_hash)
        assert (len(record["labels"]) + 1) % 8  # spare bits for "foreign-bit"
        tamper(record)
        write_record(path, doc.content_hash, **record)

        warm = DocumentStore(index_dir=tmp_path / "docs")
        rebuilt = warm.get(hospital_xml).index_for(True)
        assert warm.stats.corrupt == 1 and warm.stats.index_builds == 1
        assert rebuilt.masks == doc.index_for(True).masks
        width = len(rebuilt.table.labels) + 1
        assert not any(mask >> width for mask in rebuilt.table.masks)

    def test_a_resealed_record_loads(self, tmp_path, hospital_xml):
        """The helpers above round-trip: an untampered record resealed
        by them loads with no build."""
        cold = DocumentStore(index_dir=tmp_path / "docs")
        doc = cold.get(hospital_xml)
        doc.index_for(False)
        path = cold.tier.path_for(doc.content_hash)
        raw = path.read_bytes()
        write_record(path, doc.content_hash, **read_record(path, doc.content_hash))
        assert path.read_bytes() == raw
        warm = DocumentStore(index_dir=tmp_path / "docs")
        assert warm.get(hospital_xml).index_for(False).masks == doc.index_for(False).masks
        assert (warm.stats.index_loads, warm.stats.corrupt) == (1, 0)

    def test_truncated_index_record_is_a_counted_miss(
        self, tmp_path, hospital_xml
    ):
        """A half-written record (valid magic, cut body) degrades to a
        counted rebuild, never crashes serving."""
        cold = DocumentStore(index_dir=tmp_path / "docs")
        doc = cold.get(hospital_xml)
        doc.index_for(True)
        path = cold.tier.path_for(doc.content_hash)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])

        warm = DocumentStore(index_dir=tmp_path / "docs")
        index = warm.get(hospital_xml).index_for(True)
        assert index is not None
        assert warm.stats.corrupt == 1 and warm.stats.index_builds == 1

    def test_content_hash_mismatch_is_rejected(self, tmp_path, hospital_xml):
        """A file renamed onto another document's key must not be served."""
        cold = DocumentStore(index_dir=tmp_path / "docs")
        doc = cold.get(hospital_xml)
        doc.index_for(True)
        other_xml = "<hospital><department/></hospital>"
        other_hash = content_digest(other_xml)
        source = cold.tier.path_for(doc.content_hash)
        target = cold.tier.path_for(other_hash)
        target.write_bytes(source.read_bytes())

        warm = DocumentStore(index_dir=tmp_path / "docs")
        warm.get(other_xml).index_for(True)
        assert warm.stats.corrupt == 1 and warm.stats.index_builds == 1

    def test_unwritable_tier_degrades_to_memory_only(
        self, tmp_path, hospital_xml, monkeypatch
    ):
        store = DocumentStore(index_dir=tmp_path / "docs")
        monkeypatch.setattr(
            "repro.docstore.store.os.replace",
            lambda *a, **k: (_ for _ in ()).throw(OSError("disk full")),
        )
        index = store.get(hospital_xml).index_for(True)
        assert index is not None
        # One counted write failure: the document's one record.
        assert store.stats.errors == 1
        assert store.stats.index_stores == 0

    def test_a_restart_rebuilds_the_layout_from_the_parse(
        self, tmp_path, hospital_xml
    ):
        """The layout is never persisted: a restarted store's layout is
        the one a fresh ingest builds — the canonical table, the scan's
        columns — and answers with the loaded index exactly as the cold
        process did."""
        from repro.hype.api import to_mfa
        from repro.hype.core import CompiledPlan

        cold = DocumentStore(index_dir=tmp_path / "docs")
        doc_cold = cold.get(hospital_xml)
        doc_cold.index_for(True)
        warm = DocumentStore(index_dir=tmp_path / "docs")
        doc_warm = warm.get(hospital_xml)
        built, rebuilt = doc_cold.layout, doc_warm.layout
        assert rebuilt.table is built.table
        for name in ("node_label", "kid_ids", "kid_labels", "kid_start"):
            assert type(getattr(rebuilt, name)) is list, name
            assert getattr(rebuilt, name) == getattr(built, name), name
        mfa = to_mfa("//patient[.//diagnosis/text() = 'heart disease']")
        index = doc_warm.index_for(True)
        assert (warm.stats.index_loads, warm.stats.index_builds) == (1, 0)
        a = CompiledPlan(mfa, index=doc_cold.index_for(True)).run(
            doc_cold.tree.root, layout=built
        )
        b = CompiledPlan(mfa, index=index).run(doc_warm.tree.root, layout=rebuilt)
        assert a.ids == b.ids and a.ids
        assert a.stats == b.stats

    def test_the_inert_save_layout_writes_nothing(self, tmp_path, hospital_xml):
        """``save_layout`` survives only as a no-op for old callers: after
        it the directory holds the document's one index record."""
        store = DocumentStore(index_dir=tmp_path / "docs")
        doc = store.get(hospital_xml)
        doc.index_for(False)
        assert store.tier.save_layout(doc.content_hash, doc.layout) is False
        assert list(store.tier.root.iterdir()) == [
            store.tier.path_for(doc.content_hash)
        ]
        assert (store.stats.errors, store.stats.index_stores) == (0, 1)


class TestPersistedBytes:
    """Golden: what a ``--doc-dir`` holds for one fixed document.

    ``FILES`` pins what a fresh build writes — one sealed index record,
    labels in sorted order with the text marker on bit 0 (the canonical
    form every document of one label set shares a table through) —
    hashed over its raw bytes.  A change that alters it orphans deployed
    tiers (and needs a ``DOC_FORMAT_VERSION`` bump).  Two fixtures hold
    what older writers left for the same document:
    ``tests/golden/doctier_v2`` the three files format v2 wrote (two
    gzip-JSON index files, one unsealed sidecar), which v3 never reads
    — a boot over them rebuilds, and ``gc`` sweeps them; and
    ``tests/golden/doctier_v3`` the index record and the sealed layout
    sidecar v3 wrote while it persisted layouts — a boot over them
    loads the record, reads nothing else, and ``gc`` sweeps the sidecar.
    """

    XML = (
        '<?xml version="1.0"?>\n<hospital>\n'
        '  <patient id="1"><name>Ann &amp; Bo</name>'
        "<visit><date>2006</date><treatment/></visit></patient>\n"
        "  <!-- c -->\n"
        "  <patient><name>Cy &lt;3</name><visit></visit></patient>\n"
        "</hospital>\n"
    )
    ADDRESS = "824514870acf0a7a01141e5fc7113146ecba1b0cc928bac48538f9fad2ab17a6"
    FILES = {
        ".v3.docidx.bin": "c5c6569d9c1129e21810d558b8e05c827d3bedd0d9981ea429b5fc69ffdb1ee1",
    }
    #: The fixture files as format v2 wrote them.
    V2_FILES = {
        ".u.v2.docidx.json.gz": "4ff648ee71182dbe6ab288ce71c400b907fc6d84ee019bbc3642ae086de2934f",
        ".c.v2.docidx.json.gz": "64a1b5151aada7fec9632a02c5dc2d5097984836b278317cbf210cfd6e056b61",
        ".v2.doclay.bin": "3c88e6430cf05b226300367e1bf8131eca91c8db374d1271dd47d5282ee714d6",
    }
    FIXTURES = Path(__file__).parent / "golden" / "doctier_v2"
    #: The fixture files as format v3 wrote them with a layout sidecar.
    SIDECAR_FILES = {
        **FILES,
        ".v3.doclay.bin": "20aec479e23b0992308d1ed3a0f4974a241d0a8a446ddd68eaad79f87c6ad24d",
    }
    SIDECAR_FIXTURES = Path(__file__).parent / "golden" / "doctier_v3"

    @staticmethod
    def _digests(directory) -> dict:
        return {
            path.name[64:]: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in directory.iterdir()
        }

    @pytest.mark.parametrize("order", [(False, True), (True, False)])
    def test_address_and_tier_files_are_pinned(self, tmp_path, order):
        assert DOC_FORMAT_VERSION == 3
        doc = DocumentStore(index_dir=tmp_path).get(self.XML)
        for compressed in order:
            doc.index_for(compressed)
        assert doc.content_hash == self.ADDRESS
        assert self._digests(tmp_path) == self.FILES

    def test_a_record_is_the_same_whatever_the_table_saw_first(self, tmp_path):
        """A record carries its document's distinct masks and file-local
        ids, not the table-wide interning: the bytes do not depend on
        which documents filled the shared table before."""
        crowd = DocumentStore().get(
            "<hospital><patient><visit><treatment/><date>1</date></visit>"
            "<name>n</name></patient></hospital>"
        )
        crowd.index_for(True)
        doc = DocumentStore(index_dir=tmp_path).get(self.XML)
        assert doc.layout.table is crowd.layout.table
        assert doc.index_for(True).table.masks[0] != 0  # not this record's order
        doc.index_for(False)
        assert self._digests(tmp_path) == self.FILES

    @staticmethod
    def answers(doc) -> list:
        cached = PlanCache(4).plan(None, "//patient[visit/treatment]/name")
        results = [
            cached.compiled(algorithm, doc.tree, doc).run(doc.root, layout=doc.layout)
            for algorithm in ALGORITHMS
        ]
        assert all(result.ids for result in results)
        return [(result.ids, result.stats) for result in results]

    def test_v2_files_are_never_read_rebuilt_and_swept(self, tmp_path):
        """A boot over a v2 directory reads none of its files — nothing
        loaded, nothing counted corrupt — builds, writes the v3 record
        and answers (and prunes) exactly like a fresh build; ``gc`` then
        sweeps the three v2 files and keeps the record, which the next
        boot loads."""
        assert self._digests(self.FIXTURES) == self.V2_FILES
        shutil.copytree(self.FIXTURES, tmp_path / "old")
        old_store = DocumentStore(index_dir=tmp_path / "old")
        old, new = old_store.get(self.XML), DocumentStore().get(self.XML)
        assert self.answers(old) == self.answers(new)
        stats = old_store.snapshot_stats()
        assert (stats.index_loads, stats.corrupt, stats.errors) == (0, 0, 0)
        assert (stats.index_builds, stats.index_stores) == (2, 1)
        assert old.layout.table is new.layout.table
        assert self._digests(tmp_path / "old") == {**self.V2_FILES, **self.FILES}

        assert old_store.tier.gc() == 3
        assert old_store.snapshot_stats().gc_removed == 3
        assert self._digests(tmp_path / "old") == self.FILES
        reloaded_store = DocumentStore(index_dir=tmp_path / "old")
        reloaded = reloaded_store.get(self.XML)
        assert reloaded.index_for(True).mask_keys == new.index_for(True).mask_keys
        stats = reloaded_store.snapshot_stats()
        assert (stats.index_builds, stats.index_loads) == (0, 1)

    def test_a_sidecar_directory_loads_its_record_and_sweeps_the_sidecar(
        self, tmp_path
    ):
        """Upgrade: a directory written while the layout was persisted
        boots with no index build and nothing counted corrupt or failed,
        answers (and counts) like a fresh build under every algorithm,
        and ``gc`` removes the sidecar alone."""
        assert self._digests(self.SIDECAR_FIXTURES) == self.SIDECAR_FILES
        shutil.copytree(self.SIDECAR_FIXTURES, tmp_path / "old")
        old_store = DocumentStore(index_dir=tmp_path / "old")
        old = old_store.get(self.XML)
        assert self.answers(old) == self.answers(DocumentStore().get(self.XML))
        stats = old_store.snapshot_stats()
        assert (stats.index_builds, stats.corrupt, stats.errors) == (0, 0, 0)
        assert (stats.index_loads, stats.index_stores) == (2, 0)
        assert self._digests(tmp_path / "old") == self.SIDECAR_FILES  # untouched

        assert old_store.tier.gc() == 1
        assert self._digests(tmp_path / "old") == self.FILES


class TestPersistedBytesPlain:
    """Golden: :class:`TestPersistedBytes`' twin for a plain document —
    no attribute, no entity — which the compiled scan takes, so its
    record is the scan's mask classes written as they are.  The same
    bytes as the Python pass writes (and as the format wrote before the
    scan derived them): in a ``CC=false`` subprocess, the Python pass
    alone writes them too."""

    XML = (
        '<?xml version="1.0"?>\n<hospital>\n'
        "  <patient><name>Ann and Bo</name>"
        "<visit><date>2006</date><treatment/></visit></patient>\n"
        "  <!-- c -->\n"
        "  <patient><name>Cy</name><visit></visit></patient>\n"
        "</hospital>\n"
    )
    ADDRESS = "c9f2884896454490cbe21eb36c40265c1899aa8955628ea4613efd8f1c046259"
    FILES = {
        ".v3.docidx.bin": "d363f5a30e35532ac7856c2391432f8cfa3d77844a7a25feff0758578306dc9d",
    }
    WRITE = """
import sys
from repro.docstore import DocumentStore
from repro.xtree import parse
assert parse.SCAN.startswith("python"), parse.SCAN
doc = DocumentStore(index_dir=sys.argv[1]).get(sys.stdin.read())
doc.index_for(False)
doc.index_for(True)
print(doc.content_hash)
"""

    @pytest.mark.parametrize("order", [(False, True), (True, False)])
    def test_address_and_tier_files_are_pinned(self, tmp_path, order):
        if parse.SCAN == "compiled":
            assert parse._scan(self.XML, TEXT_LABEL)[9] is not None  # classes
        doc = DocumentStore(index_dir=tmp_path).get(self.XML)
        for compressed in order:
            doc.index_for(compressed)
        assert doc.content_hash == self.ADDRESS
        assert TestPersistedBytes._digests(tmp_path) == self.FILES

    def test_the_python_pass_writes_the_same_bytes(self, tmp_path):
        env = dict(os.environ, CC="false", PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", self.WRITE, str(tmp_path)],
            input=self.XML,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == self.ADDRESS
        assert TestPersistedBytes._digests(tmp_path) == self.FILES


class TestTierGC:
    def test_gc_sweeps_stale_files_only(self, tmp_path, hospital_xml):
        store = DocumentStore(index_dir=tmp_path / "docs")
        doc = store.get(hospital_xml)
        doc.index_for(True)
        live_index = store.tier.path_for(doc.content_hash)

        root = store.tier.root
        v1_index = root / ("a" * 64 + ".c.v1.docidx.json.gz")
        v1_index.write_bytes(b"x")
        v1_layout = root / ("b" * 64 + ".v1.doclay.bin")
        v1_layout.write_bytes(b"x")
        # A v2 index file and a current-version (retired) layout sidecar
        # under the live document's own hash.
        v2_index = root / (doc.content_hash + ".u.v2.docidx.json.gz")
        v2_index.write_bytes(b"x")
        v3_layout = root / (doc.content_hash + f".v{DOC_FORMAT_VERSION}.doclay.bin")
        v3_layout.write_bytes(b"x")
        # Current-version name but the header echoes a different hash.
        renamed = root / ("c" * 64 + f".v{DOC_FORMAT_VERSION}.docidx.bin")
        renamed.write_bytes(live_index.read_bytes())
        unknown = root / "README.txt"
        unknown.write_text("not ours")

        removed = store.tier.gc()
        assert removed == 5
        assert store.stats.gc_removed == 5
        assert live_index.exists()
        assert not v1_index.exists() and not v1_layout.exists()
        assert not v2_index.exists() and not v3_layout.exists()
        assert not renamed.exists()
        assert unknown.exists()  # foreign files are left alone

    def test_gc_on_clean_tier_removes_nothing(self, tmp_path, hospital_xml):
        store = DocumentStore(index_dir=tmp_path / "docs")
        store.get(hospital_xml).index_for(False)
        assert store.tier.gc() == 0
        assert store.stats.gc_removed == 0

    def test_gc_removed_flows_into_snapshots(self, tmp_path, hospital_xml):
        store = DocumentStore(index_dir=tmp_path / "docs")
        store.get(hospital_xml)
        (store.tier.root / ("d" * 64 + ".v1.doclay.bin")).write_bytes(b"x")
        store.tier.gc()
        assert store.snapshot_stats().gc_removed == 1


class TestCorruptionProperty:
    """The doc tier's half of the corruption property: one bit flipped
    anywhere in a v3 index record — header, hash echo, label blob, mask
    table, id column, the crc — and all three algorithms either answer
    exactly as a fresh build or count the file ``corrupt`` and rebuild
    it.  No exception, no silently different answer."""

    XML = serialize(generate_hospital_document(HospitalConfig(num_patients=4, seed=7)))
    QUERIES = (
        "//patient[.//diagnosis/text() = 'heart disease']",
        "//doctor/specialty",
        "//patient[visit/treatment]/pname",
    )

    @pytest.fixture(scope="class")
    def setting(self, tmp_path_factory):
        plans = [PlanCache(8).plan(None, query) for query in self.QUERIES]
        pristine = tmp_path_factory.mktemp("pristine")
        doc = DocumentStore(index_dir=pristine).get(self.XML)
        reference = self.answers(plans, doc)
        assert all(ids for ids, _stats in reference)
        record = doc.tier.path_for(doc.content_hash).read_bytes()
        return plans, reference, doc.content_hash, record

    @staticmethod
    def answers(plans, doc) -> list:
        found = []
        for algorithm in ALGORITHMS:
            for cached in plans:
                result = cached.compiled(algorithm, doc.tree, doc).run(
                    0, layout=doc.layout
                )
                found.append((result.ids, result.stats))
        return found

    @staticmethod
    def regions(raw: bytes, content_hash: str) -> dict:
        """Byte ranges of every region of one record, from its header."""
        header = store_module._SEAL.size + store_module._ECHO.size
        _nodes, labels, masks, _ids = store_module._index_header(
            memoryview(raw), content_hash
        )
        blob_len = len("\x00".join(labels).encode())
        blob_end = header + blob_len + -blob_len % 4
        ids_at = blob_end + len(masks) * ((len(labels) + 8) // 8)
        return {
            "magic": (0, 4),
            "version": (4, 8),
            "crc": (8, 12),
            "hash-echo": (12, 76),
            "counts": (76, header),
            "label-blob": (header, blob_end),
            "mask-table": (blob_end, ids_at),
            "id-column": (ids_at, len(raw)),
        }

    def outcome(self, setting, tmp_path, position: int, bit: int) -> str:
        plans, reference, content_hash, record = setting
        flipped = bytearray(record)
        flipped[position] ^= 1 << bit
        tier = DocumentStore(index_dir=tmp_path).tier
        tier.path_for(content_hash).write_bytes(bytes(flipped))
        store = DocumentStore(index_dir=tmp_path)
        same = self.answers(plans, store.get(self.XML)) == reference
        stats = store.snapshot_stats()
        if same and stats.corrupt == 0:
            return "identical"
        rebuilt = (stats.index_builds, stats.index_stores) == (2, 1)
        if same and stats.corrupt == 1 and rebuilt:
            return "corrupt+rebuild"
        return f"silent difference or unaccounted damage: {stats}"

    def test_every_region(self, setting, tmp_path):
        _plans, _reference, content_hash, record = setting
        outcomes = {}
        for region, (start, end) in self.regions(record, content_hash).items():
            assert end > start, region
            for position in sorted({start, (start + end) // 2, end - 1}):
                for bit in (0, 7):
                    outcomes[region, position, bit] = self.outcome(
                        setting, tmp_path, position, bit
                    )
        assert set(outcomes.values()) <= {"identical", "corrupt+rebuild"}, outcomes
