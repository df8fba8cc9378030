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

import gzip
import hashlib
import json
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
        path = cold.tier.path_for(doc.content_hash, True)
        path.write_bytes(b"\x00 not gzip \x00")

        warm = DocumentStore(index_dir=tmp_path / "docs")
        warm.get(hospital_xml).index_for(True)
        assert warm.stats.corrupt == 1
        assert warm.stats.index_builds == 1  # rebuilt
        assert warm.stats.index_stores == 1  # and overwritten

    def test_tampered_payload_is_rejected(self, tmp_path, hospital_xml):
        cold = DocumentStore(index_dir=tmp_path / "docs")
        doc = cold.get(hospital_xml)
        doc.index_for(False)
        path = cold.tier.path_for(doc.content_hash, False)
        payload = json.loads(gzip.decompress(path.read_bytes()))
        payload["masks"] = payload["masks"][:-1]  # no longer covers the tree
        path.write_bytes(gzip.compress(json.dumps(payload).encode()))

        warm = DocumentStore(index_dir=tmp_path / "docs")
        warm.get(hospital_xml).index_for(False)
        assert warm.stats.corrupt == 1 and warm.stats.index_builds == 1

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda record: record["bits"].__setitem__(1, "no-such-label"),
            lambda record: record["masks"].__setitem__(0, 1 << len(record["bits"])),
            lambda record: record["masks"].__setitem__(0, -1),
        ],
    )
    def test_a_record_outside_the_label_table_is_rejected(
        self, tmp_path, hospital_xml, tamper
    ):
        """A record is read into the loading document's label table: a
        label that table lacks, or a mask naming a bit the record does
        not declare, is a counted rebuild — not a junk mask interned
        into a table other documents share."""
        cold = DocumentStore(index_dir=tmp_path / "docs")
        doc = cold.get(hospital_xml)
        doc.index_for(False)
        path = cold.tier.path_for(doc.content_hash, False)
        record = json.loads(gzip.decompress(path.read_bytes()))
        tamper(record)
        path.write_bytes(gzip.compress(json.dumps(record).encode()))

        warm = DocumentStore(index_dir=tmp_path / "docs")
        rebuilt = warm.get(hospital_xml).index_for(False)
        assert warm.stats.corrupt == 1 and warm.stats.index_builds == 1
        assert rebuilt.masks == doc.index_for(False).masks

    def test_truncated_gzip_index_is_a_counted_miss(
        self, tmp_path, hospital_xml
    ):
        """Regression: a half-written .docidx.json.gz raises EOFError
        inside gzip — it must degrade to a counted rebuild, never crash
        serving."""
        cold = DocumentStore(index_dir=tmp_path / "docs")
        doc = cold.get(hospital_xml)
        doc.index_for(True)
        path = cold.tier.path_for(doc.content_hash, True)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])  # valid magic, truncated body

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
        source = cold.tier.path_for(doc.content_hash, True)
        target = cold.tier.path_for(other_hash, True)
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

    ``FILES`` pins what a fresh build writes (labels in sorted order,
    the text marker on bit 0: the canonical form every document of one
    label set shares a table through); ``tests/golden/doctier_v2`` keeps
    the three files the commit before the label table wrote for the same
    document (first-appearance label ids, bits in reverse document
    order), which must stay loadable: the formats spell out their own
    label order, so v2 covers both.  A change that stops reading either
    orphans deployed tiers (and needs a ``DOC_FORMAT_VERSION`` bump).
    Index files are hashed over their gunzipped JSON record — the gzip
    container's header bytes vary across zlib / Python versions, the
    record does not.
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
        ".u.v2.docidx.json.gz": "44daf7e5b92e9a62569cd8a846dafe7e33698d095a13853e9819408624d265e3",
        ".c.v2.docidx.json.gz": "00b2685264722a18ebf2a3f6543e512160223100fe0a9d3ee361a0c4e95ff732",
        ".v2.doclay.bin": "c3210a005c6f06bc7287a6d0f1ee93edce596c8a3b3edf56a981100ea40988db",
    }
    #: The same three files as the parent commit wrote them.
    PARENT_FILES = {
        ".u.v2.docidx.json.gz": "92b40fa5ace613ec9c949678c9352ba6c05a67bcb9cfcdebb353b30a2d28058e",
        ".c.v2.docidx.json.gz": "45d55907adb5fcf0197ee02d32415ddbba139cf21c14ef260175f8f2a7c2fac4",
        ".v2.doclay.bin": "3c88e6430cf05b226300367e1bf8131eca91c8db374d1271dd47d5282ee714d6",
    }
    FIXTURES = Path(__file__).parent / "golden" / "doctier_v2"

    @staticmethod
    def _digests(directory) -> dict:
        found = {}
        for path in directory.iterdir():
            raw = path.read_bytes()
            if path.name.endswith(".gz"):
                raw = gzip.decompress(raw)
            found[path.name[64:]] = hashlib.sha256(raw).hexdigest()
        return found

    @pytest.mark.parametrize("order", [(False, True), (True, False)])
    def test_address_and_tier_files_are_pinned(self, tmp_path, order):
        assert DOC_FORMAT_VERSION == 2
        doc = DocumentStore(index_dir=tmp_path).get(self.XML)
        for compressed in order:
            doc.index_for(compressed)
        assert doc.content_hash == self.ADDRESS
        assert self._digests(tmp_path) == self.FILES

    def test_a_record_is_the_same_whatever_the_table_saw_first(self, tmp_path):
        """An OptHyPE-C record carries its own distinct masks and
        file-local ids, not the table-wide interning: the bytes do not
        depend on which documents filled the shared table before."""
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

    def test_parent_written_files_still_load(self, tmp_path):
        """First-appearance files load as the table of *their* order —
        no build, nothing counted corrupt, no column remapped — and
        answer (and prune) exactly like a fresh canonical build."""
        assert self._digests(self.FIXTURES) == self.PARENT_FILES
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
            assert [n.node_id for n in results[0].answers] == [
                n.node_id for n in results[1].answers
            ]
            assert results[0].answers and results[0].stats == results[1].stats
        stats = old_store.snapshot_stats()
        assert (stats.index_builds, stats.corrupt, stats.errors) == (0, 0, 0)
        assert (stats.index_loads, stats.layout_loads) == (2, 1)
        assert old.layout.labels == (
            "hospital", "patient", "name", "visit", "date", "treatment"
        )
        assert old.layout.table is not new.layout.table
        assert isinstance(old.layout.node_label, memoryview)  # still zero-copy
        for compressed in (False, True):
            assert old.index_for(compressed).table is old.layout.table
            # Same label sets per node, expressed in each table's bits.
            assert [
                {label for label, bit in doc.layout.table.bit_of.items() if mask & bit}
                for doc in (old, new)
                for mask in doc.index_for(compressed).masks
            ][: old.size] == [
                {label for label, bit in new.layout.table.bit_of.items() if mask & bit}
                for mask in new.index_for(compressed).masks
            ]
        assert self._digests(tmp_path / "old") == self.PARENT_FILES  # untouched


class TestTierGC:
    def test_gc_sweeps_stale_files_only(self, tmp_path, hospital_xml):
        store = DocumentStore(index_dir=tmp_path / "docs")
        doc = store.get(hospital_xml)
        doc.index_for(True)
        live_index = store.tier.path_for(doc.content_hash, True)
        live_layout = store.tier.layout_path_for(doc.content_hash)

        root = store.tier.root
        v1_index = root / ("a" * 64 + ".c.v1.docidx.json.gz")
        v1_index.write_bytes(b"x")
        v1_layout = root / ("b" * 64 + ".v1.doclay.bin")
        v1_layout.write_bytes(b"x")
        # Current-version name but the header echoes a different hash.
        renamed = root / ("c" * 64 + f".v{DOC_FORMAT_VERSION}.doclay.bin")
        renamed.write_bytes(live_layout.read_bytes())
        unknown = root / "README.txt"
        unknown.write_text("not ours")

        removed = store.tier.gc()
        assert removed == 3
        assert store.stats.gc_removed == 3
        assert live_index.exists() and live_layout.exists()
        assert not v1_index.exists() and not v1_layout.exists()
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
