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
import shutil
import threading
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
from repro.xtree.parse import parse_xml
from repro.xtree.serialize import serialize


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
    blob_len, blob = store_module._label_blob(labels)
    mask_width = (len(labels) + 8) // 8
    path.write_bytes(
        store_module._seal(
            store_module._INDEX_MAGIC,
            content_hash,
            (len(ids), blob_len, len(masks), 1),
            [
                blob,
                b"".join(mask.to_bytes(mask_width, "little") for mask in masks),
                bytes(ids),
            ],
        )
    )


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

        counts = {"serialize": 0, "index_tree": 0, "sweep": 0, "parse": 0}

        def spy(kind, module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                counts[kind] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        spy("serialize", store_module, "serialize")
        spy("serialize", document_module, "serialize")
        spy("index_tree", node_module, "index_tree")
        spy("sweep", index_module, "subtree_masks")
        spy("parse", store_module, "parse_canonical")
        return counts

    def test_text_to_served_is_one_parse_and_one_sweep(self, hospital_xml, walks):
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
            assert spent == {"serialize": 0, "index_tree": 0, "sweep": 1, "parse": 1}
            assert store.stats.index_builds == 2
            assert store.get(hospital_xml) is doc
            assert walks["parse"] == before["parse"] + 1

    def test_unaddressed_document_is_serialised_once(self, hospital_tree, walks):
        store = DocumentStore()
        doc = IndexedDocument(hospital_tree)
        assert store.adopt(doc) is store.adopt(doc)
        assert walks["serialize"] == 1

    def test_both_variants_expose_the_same_masks(self, hospital_xml, walks):
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
        assert walks["sweep"] == 2 + 4  # one per document + the four references


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
        # Two counted write failures: the layout sidecar and the index.
        assert store.stats.errors == 2
        assert store.stats.index_stores == 0 and store.stats.layout_stores == 0

    def test_restart_rehydrates_the_layout_sidecar(
        self, tmp_path, hospital_xml
    ):
        cold = DocumentStore(index_dir=tmp_path / "docs")
        built = cold.get(hospital_xml).layout
        assert cold.stats.layout_stores == 1
        assert cold.stats.layout_loads == 0

        warm = DocumentStore(index_dir=tmp_path / "docs")
        loaded = warm.get(hospital_xml).layout
        assert warm.stats.layout_loads == 1
        assert warm.stats.layout_stores == 0
        # A rehydrated layout is column-identical to a built one (built
        # columns are int arrays now, so both sides are listed).
        assert loaded.table is built.table  # sorted file order: the shared table
        assert list(loaded.node_label) == list(built.node_label)
        assert list(loaded.kid_ids) == list(built.kid_ids)
        assert list(loaded.kid_labels) == list(built.kid_labels)
        assert list(loaded.kid_start) == list(built.kid_start)
        assert loaded.covers(warm.get(hospital_xml).tree.root)

    def test_rehydrated_layout_answers_like_built(
        self, tmp_path, hospital_xml
    ):
        from repro.hype.api import to_mfa
        from repro.hype.core import CompiledPlan

        cold = DocumentStore(index_dir=tmp_path / "docs")
        doc_cold = cold.get(hospital_xml)
        warm = DocumentStore(index_dir=tmp_path / "docs")
        doc_warm = warm.get(hospital_xml)
        assert warm.stats.layout_loads == 1
        mfa = to_mfa("//patient[.//diagnosis/text() = 'heart disease']")
        built = CompiledPlan(mfa).run(doc_cold.tree.root, layout=doc_cold.layout)
        loaded = CompiledPlan(mfa).run(doc_warm.tree.root, layout=doc_warm.layout)
        assert {n.node_id for n in built.answers} == {
            n.node_id for n in loaded.answers
        }
        assert built.stats == loaded.stats

    def test_corrupt_sidecar_is_counted_rebuilt_and_overwritten(
        self, tmp_path, hospital_xml
    ):
        cold = DocumentStore(index_dir=tmp_path / "docs")
        doc = cold.get(hospital_xml)
        path = cold.tier.layout_path_for(doc.content_hash)
        path.write_bytes(b"RLAY not a real sidecar")

        warm = DocumentStore(index_dir=tmp_path / "docs")
        warm.get(hospital_xml)
        assert warm.stats.corrupt == 1
        assert warm.stats.layout_loads == 0
        assert warm.stats.layout_stores == 1  # rebuilt and overwritten

    def test_truncated_sidecar_is_a_counted_miss(
        self, tmp_path, hospital_xml
    ):
        cold = DocumentStore(index_dir=tmp_path / "docs")
        doc = cold.get(hospital_xml)
        path = cold.tier.layout_path_for(doc.content_hash)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])  # valid header, cut columns

        warm = DocumentStore(index_dir=tmp_path / "docs")
        warm.get(hospital_xml)
        assert warm.stats.corrupt == 1 and warm.stats.layout_stores == 1

    def test_sidecar_hash_mismatch_is_rejected(self, tmp_path, hospital_xml):
        """A sidecar renamed onto another document's key is never served."""
        cold = DocumentStore(index_dir=tmp_path / "docs")
        doc = cold.get(hospital_xml)
        other_xml = "<hospital><department/></hospital>"
        other_hash = content_digest(other_xml)
        source = cold.tier.layout_path_for(doc.content_hash)
        target = cold.tier.layout_path_for(other_hash)
        target.write_bytes(source.read_bytes())

        warm = DocumentStore(index_dir=tmp_path / "docs")
        warm.get(other_xml)
        assert warm.stats.corrupt == 1 and warm.stats.layout_stores == 1

    def test_empty_sidecar_file_is_a_counted_miss(
        self, tmp_path, hospital_xml
    ):
        """Regression: mmap of a zero-byte (half-created) file raises
        ValueError — it must degrade to a counted rebuild."""
        cold = DocumentStore(index_dir=tmp_path / "docs")
        doc = cold.get(hospital_xml)
        cold.tier.layout_path_for(doc.content_hash).write_bytes(b"")
        warm = DocumentStore(index_dir=tmp_path / "docs")
        warm.get(hospital_xml)
        assert warm.stats.corrupt == 1 and warm.stats.layout_stores == 1


class TestPersistedBytes:
    """Golden: what a ``--doc-dir`` holds for one fixed document.

    ``FILES`` pins what a fresh build writes — one sealed index record
    and one sealed layout sidecar, labels in sorted order with the text
    marker on bit 0 (the canonical form every document of one label set
    shares a table through) — hashed over their raw bytes.  A change
    that alters them orphans deployed tiers (and needs a
    ``DOC_FORMAT_VERSION`` bump).  ``tests/golden/doctier_v2`` keeps the
    three files format v2 wrote for the same document (two gzip-JSON
    index files, one unsealed sidecar): v3 never reads them, a boot over
    them rebuilds, and ``gc`` sweeps them.
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
        ".v3.doclay.bin": "20aec479e23b0992308d1ed3a0f4974a241d0a8a446ddd68eaad79f87c6ad24d",
    }
    #: The fixture files as format v2 wrote them.
    V2_FILES = {
        ".u.v2.docidx.json.gz": "4ff648ee71182dbe6ab288ce71c400b907fc6d84ee019bbc3642ae086de2934f",
        ".c.v2.docidx.json.gz": "64a1b5151aada7fec9632a02c5dc2d5097984836b278317cbf210cfd6e056b61",
        ".v2.doclay.bin": "3c88e6430cf05b226300367e1bf8131eca91c8db374d1271dd47d5282ee714d6",
    }
    FIXTURES = Path(__file__).parent / "golden" / "doctier_v2"

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

    def test_v2_files_are_never_read_rebuilt_and_swept(self, tmp_path):
        """A boot over a v2 directory reads none of its files — nothing
        loaded, nothing counted corrupt — builds, writes the v3 pair and
        answers (and prunes) exactly like a fresh build; ``gc`` then
        sweeps the three v2 files and keeps the v3 pair."""
        assert self._digests(self.FIXTURES) == self.V2_FILES
        shutil.copytree(self.FIXTURES, tmp_path / "old")
        old_store = DocumentStore(index_dir=tmp_path / "old")
        old, new = old_store.get(self.XML), DocumentStore().get(self.XML)
        cached = PlanCache(4).plan(None, "//patient[visit/treatment]/name")
        for algorithm in ALGORITHMS:
            results = [
                cached.compiled(algorithm, doc.tree, doc).run(
                    doc.root, layout=doc.layout
                )
                for doc in (old, new)
            ]
            assert results[0].ids == results[1].ids and results[0].ids
            assert results[0].stats == results[1].stats
        stats = old_store.snapshot_stats()
        assert (stats.index_loads, stats.layout_loads) == (0, 0)
        assert (stats.corrupt, stats.errors) == (0, 0)
        assert (stats.index_builds, stats.index_stores, stats.layout_stores) == (2, 1, 1)
        assert old.layout.table is new.layout.table
        assert self._digests(tmp_path / "old") == {**self.V2_FILES, **self.FILES}

        assert old_store.tier.gc() == 3
        assert old_store.snapshot_stats().gc_removed == 3
        assert self._digests(tmp_path / "old") == self.FILES
        reloaded_store = DocumentStore(index_dir=tmp_path / "old")
        reloaded = reloaded_store.get(self.XML)
        assert reloaded.index_for(True).mask_keys == new.index_for(True).mask_keys
        assert isinstance(reloaded.layout.node_label, memoryview)  # zero-copy
        stats = reloaded_store.snapshot_stats()
        assert (stats.index_builds, stats.index_loads, stats.layout_loads) == (0, 1, 1)


class TestTierGC:
    def test_gc_sweeps_stale_files_only(self, tmp_path, hospital_xml):
        store = DocumentStore(index_dir=tmp_path / "docs")
        doc = store.get(hospital_xml)
        doc.index_for(True)
        live_index = store.tier.path_for(doc.content_hash)
        live_layout = store.tier.layout_path_for(doc.content_hash)

        root = store.tier.root
        v1_index = root / ("a" * 64 + ".c.v1.docidx.json.gz")
        v1_index.write_bytes(b"x")
        v1_layout = root / ("b" * 64 + ".v1.doclay.bin")
        v1_layout.write_bytes(b"x")
        # A v2 index file under the live document's own hash.
        v2_index = root / (doc.content_hash + ".u.v2.docidx.json.gz")
        v2_index.write_bytes(b"x")
        # Current-version name but the header echoes a different hash.
        renamed = root / ("c" * 64 + f".v{DOC_FORMAT_VERSION}.doclay.bin")
        renamed.write_bytes(live_layout.read_bytes())
        unknown = root / "README.txt"
        unknown.write_text("not ours")

        removed = store.tier.gc()
        assert removed == 4
        assert store.stats.gc_removed == 4
        assert live_index.exists() and live_layout.exists()
        assert not v1_index.exists() and not v1_layout.exists()
        assert not v2_index.exists()
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


class TestLoadedIndexEquivalence:
    def test_loaded_index_answers_like_built(self, tmp_path, hospital_xml):
        from repro.hype.core import CompiledPlan
        from repro.hype.api import to_mfa

        cold = DocumentStore(index_dir=tmp_path / "docs")
        cold.get(hospital_xml).index_for(True)
        warm = DocumentStore(index_dir=tmp_path / "docs")
        doc = warm.get(hospital_xml)
        tree = doc.tree
        fresh = build_index(tree, compressed=True)
        loaded = doc.index_for(True)
        assert warm.stats.index_loads == 1
        query = "//patient[.//diagnosis/text() = 'heart disease']"
        mfa = to_mfa(query)
        a = CompiledPlan(mfa, index=fresh).run(tree.root)
        b = CompiledPlan(mfa, index=loaded).run(tree.root)
        assert a.answers == b.answers
        assert a.stats == b.stats


class TestCorruptionProperty:
    """The doc tier's half of the corruption property: one bit flipped
    anywhere in a v3 index record or layout sidecar — header, hash echo,
    label blob, mask table, id column, each int32 column, the crc — and
    all three algorithms either answer exactly as a fresh build or count
    the file ``corrupt`` and rebuild it.  No exception, no silently
    different answer.  ``test_kid_labels_low_bits`` is the experiment
    that gave 22 silent differences over 84 positions with the unsealed
    v2 sidecar."""

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
        files = {
            "index": doc.tier.path_for(doc.content_hash).read_bytes(),
            "layout": doc.tier.layout_path_for(doc.content_hash).read_bytes(),
        }
        return plans, reference, doc.content_hash, files

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
    def regions(kind: str, raw: bytes, content_hash: str) -> dict:
        """Byte ranges of every region of one record, from its header."""
        header = store_module._SEAL.size + store_module._ECHO.size
        regions = {
            "magic": (0, 4),
            "version": (4, 8),
            "crc": (8, 12),
            "hash-echo": (12, 76),
            "counts": (76, header),
        }
        view = memoryview(raw)
        if kind == "index":
            _nodes, labels, masks, _ids = store_module._index_header(
                view, content_hash
            )
            blob_len = len("\x00".join(labels).encode())
            blob_end = header + blob_len + -blob_len % 4
            ids_at = blob_end + len(masks) * ((len(labels) + 8) // 8)
            return {
                **regions,
                "label-blob": (header, blob_end),
                "mask-table": (blob_end, ids_at),
                "id-column": (ids_at, len(raw)),
            }
        num_nodes, num_kids, _labels, at = store_module._layout_header(
            view, content_hash
        )
        regions["label-blob"] = (header, at)
        for name, count in (
            ("node_label", num_nodes),
            ("kid_ids", num_kids),
            ("kid_labels", num_kids),
            ("kid_start", num_nodes + 1),
        ):
            regions[name] = (at, at + 4 * count)
            at += 4 * count
        return regions

    def outcome(self, setting, tmp_path, kind: str, position: int, bit: int) -> str:
        plans, reference, content_hash, files = setting
        flipped = bytearray(files[kind])
        flipped[position] ^= 1 << bit
        tier = DocumentStore(index_dir=tmp_path).tier
        for name, raw in files.items():
            path = (
                tier.path_for(content_hash)
                if name == "index"
                else tier.layout_path_for(content_hash)
            )
            path.write_bytes(bytes(flipped) if name == kind else raw)
        store = DocumentStore(index_dir=tmp_path)
        same = self.answers(plans, store.get(self.XML)) == reference
        stats = store.snapshot_stats()
        rebuilt = (
            stats.index_builds == 2 and stats.index_stores == 1
            if kind == "index"
            else stats.layout_stores == 1
        )
        if same and stats.corrupt == 0:
            return "identical"
        if same and stats.corrupt == 1 and rebuilt:
            return "corrupt+rebuild"
        return f"silent difference or unaccounted damage: {stats}"

    @pytest.mark.parametrize("kind", ["index", "layout"])
    def test_every_region(self, setting, tmp_path, kind):
        _plans, _reference, content_hash, files = setting
        outcomes = {}
        for region, (start, end) in self.regions(kind, files[kind], content_hash).items():
            assert end > start, region
            for position in sorted({start, (start + end) // 2, end - 1}):
                for bit in (0, 7):
                    outcomes[region, position, bit] = self.outcome(
                        setting, tmp_path, kind, position, bit
                    )
        assert set(outcomes.values()) <= {"identical", "corrupt+rebuild"}, outcomes

    def test_kid_labels_low_bits(self, setting, tmp_path):
        _plans, _reference, content_hash, files = setting
        regions = self.regions("layout", files["layout"], content_hash)
        start, end = regions["kid_labels"]
        positions = range(start, end, 4)[:84]
        assert len(positions) == 84
        outcomes = [
            self.outcome(setting, tmp_path, "layout", position, 0)
            for position in positions
        ]
        assert outcomes.count("corrupt+rebuild") + outcomes.count("identical") == 84

