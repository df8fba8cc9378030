"""Persistent plan tier tests: store durability + two-tier cache + restart.

The acceptance property of the persistent cache: a ``QueryService``
restarted against a populated plan store performs **zero MFA rewrites**
for previously-seen ``(view, query)`` pairs — asserted via the compile
stage counters — and returns answers identical to a cold run, across
tenants and through the single-submit, batch and NDJSON-frontend paths.
"""

import asyncio
import gzip
import hashlib
import json
import re
from pathlib import Path

import pytest

import repro
from repro.compile import FORMAT_VERSION, PlanArtifact, PlanStore, QueryCompiler
from repro.compile.pipeline import REWRITE, TRANSLATE
from repro.hype.api import ALGORITHMS
from repro.hype.kernel import DenseKernel
from repro.serve.cache import CachedPlan, PlanCache, plan_key
from repro.serve.service import QueryRequest, QueryService
from repro.workloads import FIG8, VIEW_QUERIES


@pytest.fixture()
def store(tmp_path):
    return PlanStore(tmp_path / "plans")


class TestPlanStore:
    def test_load_missing_is_a_miss(self, store):
        assert store.load(("fp", "q", FORMAT_VERSION)) is None
        assert store.stats.misses == 1

    def test_save_load_round_trip(self, store, sigma0_spec):
        compiler = QueryCompiler()
        artifact = compiler.compile(sigma0_spec, "patient")
        key = artifact.cache_key()
        assert store.save(key, artifact) is True
        loaded = store.load(key)
        assert loaded is not None
        assert loaded.to_bytes() == artifact.to_bytes()
        assert len(store) == 1
        stats = store.stats
        assert stats.stores == 1 and stats.hits == 1

    def test_corrupt_file_is_a_miss_and_overwritten(self, store):
        compiler = QueryCompiler()
        artifact = compiler.compile(None, "a/b")
        key = artifact.cache_key()
        store.save(key, artifact)
        store.path_for(key).write_bytes(b"{truncated garbage")
        assert store.load(key) is None
        assert store.stats.corrupt == 1
        # The next save simply overwrites the corrupt file.
        store.save(key, artifact)
        assert store.load(key) is not None

    def test_version_mismatch_is_a_miss(self, store):
        compiler = QueryCompiler()
        artifact = compiler.compile(None, "a/b")
        key = artifact.cache_key()
        store.save(key, artifact)
        payload = json.loads(gzip.decompress(store.path_for(key).read_bytes()))
        payload["format_version"] = FORMAT_VERSION + 1
        store.path_for(key).write_text(json.dumps(payload))
        assert store.load(key) is None
        assert store.stats.corrupt == 1

    def test_key_mismatch_is_never_served(self, store):
        """A file holding a valid artifact for a *different* key (moved
        between stores, digest collision) must not be served."""
        compiler = QueryCompiler()
        ours = compiler.compile(None, "a/b")
        other = compiler.compile(None, "c/d")
        store.path_for(ours.cache_key()).write_bytes(other.to_bytes())
        assert store.load(ours.cache_key()) is None
        assert store.stats.corrupt == 1

    def test_writes_are_atomic_no_partials_visible(self, store):
        compiler = QueryCompiler()
        artifact = compiler.compile(None, "a/b")
        store.save(artifact.cache_key(), artifact)
        leftovers = [
            path
            for path in store.root.iterdir()
            if ".tmp." in path.name
        ]
        assert leftovers == []
        assert len(store) == 1

    def test_gc_sweeps_a_well_formed_composed_file_as_stale(self, store):
        """Composed tables are no longer persisted: a ``*.composed.json``
        an older process left behind is removed and counted, however
        healthy, and the artifacts beside it stay."""
        compiler = QueryCompiler()
        keys = []
        for query in ("a/b", "c/d"):
            artifact = compiler.compile(None, query)
            store.save(artifact.cache_key(), artifact)
            keys.append(artifact.cache_key())
        stale = _legacy_composed_file(store.root, "hype", keys)
        assert store.gc() == 1
        assert not stale.exists() and len(store) == 2
        stats = store.stats
        assert (stats.gc_removed, stats.errors) == (1, 0)
        assert store.gc() == 0


class TestTwoTierCache:
    def test_miss_then_l1_then_l2(self, tmp_path, hospital_doc, sigma0_spec):
        directory = tmp_path / "plans"
        cache = PlanCache(store=PlanStore(directory))
        cache.plan(sigma0_spec, "patient")  # cold: compile + persist
        cache.plan(sigma0_spec, "patient")  # L1
        stats = cache.stats
        assert (stats.misses, stats.l1_hits, stats.l2_hits) == (1, 1, 0)
        # A fresh cache over the same directory rehydrates from disk.
        restarted = PlanCache(store=PlanStore(directory))
        restarted.plan(sigma0_spec, "patient")
        restarted.plan(sigma0_spec, "patient")
        stats = restarted.stats
        assert (stats.misses, stats.l1_hits, stats.l2_hits) == (0, 1, 1)
        assert restarted.compiler.metrics.snapshot().rewrites == 0

    def test_syntactic_variants_share_the_stored_plan(self, tmp_path, sigma0_spec):
        directory = tmp_path / "plans"
        cold = PlanCache(store=PlanStore(directory))
        cold.plan(sigma0_spec, "//record")
        warm = PlanCache(store=PlanStore(directory))
        warm.plan(sigma0_spec, "(*)*/record")  # variant, same key
        assert warm.stats.l2_hits == 1
        assert warm.compiler.metrics.snapshot().rewrites == 0

    def test_cache_without_store_never_touches_disk(self, sigma0_spec):
        cache = PlanCache()
        cache.plan(sigma0_spec, "patient")
        assert cache.store is None
        assert cache.stats.l2_hits == 0

    def test_different_specs_stay_isolated_on_disk(self, tmp_path, sigma0_spec):
        from repro.dtd import hospital_dtd, hospital_view_dtd
        from repro.views.samples import SIGMA0_ANNOTATIONS
        from repro.views.spec import view_spec

        restricted = view_spec(
            hospital_dtd(),
            hospital_view_dtd(),
            {**SIGMA0_ANNOTATIONS, ("patient", "parent"): "parent[not(.)]"},
        )
        directory = tmp_path / "plans"
        cache = PlanCache(store=PlanStore(directory))
        cache.plan(sigma0_spec, "patient/parent")
        other = PlanCache(store=PlanStore(directory))
        other.plan(restricted, "patient/parent")
        # The restricted spec's lookup never matched sigma0's artifact.
        assert other.stats.l2_hits == 0 and other.stats.misses == 1
        assert len(PlanStore(directory)) == 2


def _populate(service: QueryService) -> None:
    service.register_tenant("institute", "research")
    service.register_tenant("clinic", "research")
    service.register_tenant("admin", None)


VIEW_SET = sorted(VIEW_QUERIES.values())[:4]
DIRECT_SET = sorted(FIG8.values())[:2]


class TestWarmRestartAcrossPaths:
    """The ISSUE acceptance criterion, end to end."""

    def _boot(self, hospital_doc, sigma0_spec, directory) -> QueryService:
        service = QueryService(
            hospital_doc, plan_store=PlanStore(directory)
        )
        service.register_view("research", sigma0_spec)
        _populate(service)
        return service

    def _drive(self, service: QueryService) -> dict:
        """Exercise single, batch and wave paths across tenants."""
        results: dict[str, list] = {}
        for tenant in ("institute", "clinic"):
            results[f"submit:{tenant}"] = [
                service.submit(tenant, query).ids() for query in VIEW_SET
            ]
        results["submit:admin"] = [
            service.submit("admin", query).ids() for query in DIRECT_SET
        ]
        batch = [QueryRequest("institute", query) for query in VIEW_SET]
        batch += [QueryRequest("admin", query) for query in DIRECT_SET]
        answers, _stats = service.submit_many(batch)
        results["batch"] = [answer.ids() for answer in answers]
        wave = service.submit_wave(
            [QueryRequest("clinic", query) for query in VIEW_SET]
        )
        results["wave"] = [outcome.ids() for outcome in wave.outcomes]
        return results

    def test_restart_skips_all_rewrites_and_matches_cold_answers(
        self, tmp_path, hospital_doc, sigma0_spec
    ):
        directory = tmp_path / "plans"
        with self._boot(hospital_doc, sigma0_spec, directory) as cold:
            cold_results = self._drive(cold)
            cold_compile = cold.cache.compiler.metrics.snapshot()
            assert cold_compile.stage(REWRITE).count == len(VIEW_SET)
            assert cold_compile.stage(TRANSLATE).count == len(DIRECT_SET)

        # The "restarted process": a brand-new service + cache over the
        # same directory.  Same answers, zero MFA rewrites.
        with self._boot(hospital_doc, sigma0_spec, directory) as warm:
            warm_results = self._drive(warm)
            warm_compile = warm.cache.compiler.metrics.snapshot()
            snapshot = warm.metrics_snapshot()
        assert warm_results == cold_results
        assert warm_compile.stage(REWRITE).count == 0
        assert warm_compile.stage(TRANSLATE).count == 0
        assert snapshot.plan_misses == 0
        assert snapshot.plan_l2_hits == len(VIEW_SET) + len(DIRECT_SET)
        assert snapshot.as_dict()["compile"][REWRITE]["count"] == 0

    def test_restart_matches_through_the_ndjson_frontend(
        self, tmp_path, hospital_doc, sigma0_spec
    ):
        from repro.serve.admission import AdmissionConfig
        from repro.serve.frontend import FrontendClient, QueryFrontend

        directory = tmp_path / "plans"
        queries = VIEW_SET[:3]

        def run_frontend(service: QueryService) -> list:
            async def main():
                frontend = QueryFrontend(
                    service, AdmissionConfig(max_wave=4, max_wait=0.01)
                )
                host, port = await frontend.start("127.0.0.1", 0)
                client = await FrontendClient.connect(host, port)
                try:
                    replies = await client.query_many(
                        [
                            {"tenant": "institute", "query": q, "limit": -1}
                            for q in queries
                        ]
                    )
                finally:
                    await client.aclose()
                    await frontend.close()
                return replies

            return asyncio.run(main())

        with self._boot(hospital_doc, sigma0_spec, directory) as cold:
            cold_replies = run_frontend(cold)
        with self._boot(hospital_doc, sigma0_spec, directory) as warm:
            warm_replies = run_frontend(warm)
            warm_compile = warm.cache.compiler.metrics.snapshot()

        assert all(reply["ok"] for reply in cold_replies + warm_replies)
        assert [r["ids"] for r in warm_replies] == [
            r["ids"] for r in cold_replies
        ]
        assert warm_compile.stage(REWRITE).count == 0

    def test_partially_warm_store_compiles_only_the_new(
        self, tmp_path, hospital_doc, sigma0_spec
    ):
        directory = tmp_path / "plans"
        with self._boot(hospital_doc, sigma0_spec, directory) as cold:
            cold.submit("institute", VIEW_SET[0])
        with self._boot(hospital_doc, sigma0_spec, directory) as warm:
            warm.submit("clinic", VIEW_SET[0])  # other tenant, stored plan
            warm.submit("clinic", VIEW_SET[1])  # genuinely new
            stats = warm.cache.stats
            compile_stats = warm.cache.compiler.metrics.snapshot()
        assert stats.l2_hits == 1 and stats.misses == 1
        assert compile_stats.stage(REWRITE).count == 1

    def test_corrupted_store_entry_recompiles_transparently(
        self, tmp_path, hospital_doc, sigma0_spec
    ):
        directory = tmp_path / "plans"
        with self._boot(hospital_doc, sigma0_spec, directory) as cold:
            expected = cold.submit("institute", VIEW_SET[0]).ids()
        store = PlanStore(directory)
        key = plan_key(sigma0_spec, VIEW_SET[0])
        store.path_for(key).write_bytes(b"\x00 corrupt \x00")
        with self._boot(hospital_doc, sigma0_spec, directory) as warm:
            assert warm.submit("institute", VIEW_SET[0]).ids() == expected
            stats = warm.cache.stats
        assert stats.misses == 1 and stats.l2_hits == 0
        # ... and the recompilation healed the store for the next boot.
        with self._boot(hospital_doc, sigma0_spec, directory) as healed:
            assert healed.submit("institute", VIEW_SET[0]).ids() == expected
            assert healed.cache.stats.l2_hits == 1


def _legacy_composed_file(directory, algorithm, keys):
    """A ``*.composed.json`` exactly as an older process named and wrote
    it: the sha256 of the algorithm and the member keys, a record echoing
    them, and a payload that process's validator accepted."""
    digest = hashlib.sha256(algorithm.encode())
    for fingerprint, normalized, version in keys:
        digest.update(b"\x02")
        digest.update(b"\x00" if fingerprint is None else fingerprint.encode())
        digest.update(b"\x01" + normalized.encode() + b"\x01" + str(version).encode())
    width = len(keys)
    payload = {
        "version": 1,
        "width": width,
        "labels": [],
        "members": [{"sets": [[]], "cfgs": [[0, 0, []]]}] * width,
        "ccfgs": [[0] * width],
        "trans": [],
    }
    record = {"keys": [[algorithm], *map(list, keys)], "payload": payload}
    path = directory / f"{digest.hexdigest()}.composed.json"
    path.write_text(json.dumps(record))
    return path


def _mangle_legacy_payload(path) -> None:
    record = json.loads(path.read_bytes())
    record["payload"]["ccfgs"][0] = [999] * record["payload"]["width"]
    path.write_text(json.dumps(record))


#: What an older process could have left under a wave's
#: ``*.composed.json`` name: a payload its validator accepted, one it
#: refused, and files damaged on disk.
LEGACY_FORMS = {
    "well-formed": lambda path: None,
    "mangled-payload": _mangle_legacy_payload,
    "empty": lambda path: path.write_bytes(b""),
    "truncated": lambda path: path.write_bytes(
        path.read_bytes()[: path.stat().st_size // 2]
    ),
    "not-json": lambda path: path.write_bytes(b"\x00 not json \x00"),
    "gzipped": lambda path: path.write_bytes(gzip.compress(path.read_bytes())),
}


class TestRetiredComposedKind:
    """Composed tables are gone.  No configuration writes a
    ``*.composed.json``; one an older process left in the plan directory
    is never read (whatever its content, nothing is counted against it
    and the wave answers as before), and ``gc`` sweeps it."""

    WAVE = sorted(VIEW_QUERIES.values())[:5]

    def _boot(self, hospital_doc, sigma0_spec, directory):
        service = QueryService(hospital_doc, plan_store=PlanStore(directory))
        service.register_view("research", sigma0_spec)
        service.register_tenant("institute", "research")
        return service

    def _wave(self, service, algorithm="hype") -> tuple[list, dict]:
        wave = [QueryRequest("institute", q, algorithm) for q in self.WAVE]
        answers, _stats = service.submit_many(wave)
        return [a.ids() for a in answers], service.metrics_snapshot().as_dict()

    def _plant(self, directory, sigma0_spec, form):
        keys = sorted(
            (plan_key(sigma0_spec, q) for q in self.WAVE), key=lambda k: k[1:]
        )
        path = _legacy_composed_file(directory, "hype", keys)
        LEGACY_FORMS[form](path)
        return path

    @pytest.fixture(scope="class")
    def populated(self, tmp_path_factory, hospital_doc, sigma0_spec):
        """A plan directory after one wave, and its answers."""
        directory = tmp_path_factory.mktemp("retired") / "plans"
        with self._boot(hospital_doc, sigma0_spec, directory) as cold:
            answers, snap = self._wave(cold)
        assert snap["plan_store"]["stores"] == len(self.WAVE)
        return directory, answers

    @pytest.fixture()
    def directory(self, populated, tmp_path):
        import shutil

        source, _answers = populated
        shutil.copytree(source, tmp_path / "plans")
        return tmp_path / "plans"

    @pytest.mark.parametrize("form", sorted(LEGACY_FORMS))
    def test_gc_sweeps_a_leftover_composed_file(self, form, directory, sigma0_spec):
        stale = self._plant(directory, sigma0_spec, form)
        store = PlanStore(directory)
        assert store.gc() == 1
        assert not stale.exists()
        assert len(store) == len(list(directory.iterdir())) == len(self.WAVE)
        assert (store.stats.gc_removed, store.stats.errors) == (1, 0)

    @pytest.mark.parametrize("form", sorted(LEGACY_FORMS))
    def test_a_leftover_composed_file_is_never_read(
        self, form, directory, populated, hospital_doc, sigma0_spec
    ):
        stale = self._plant(directory, sigma0_spec, form)
        before = stale.read_bytes(), stale.stat().st_mtime_ns
        with self._boot(hospital_doc, sigma0_spec, directory) as service:
            answers, snap = self._wave(service)
        assert answers == populated[1]
        counters = snap["plan_store"]
        assert (counters["corrupt"], counters["errors"]) == (0, 0)
        assert counters["hits"] == len(self.WAVE)  # the plans still load
        assert (stale.read_bytes(), stale.stat().st_mtime_ns) == before
        assert list(directory.glob("*.composed.json*")) == [stale]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_no_configuration_writes_a_composed_file(
        self, algorithm, tmp_path, hospital_doc, sigma0_spec
    ):
        directory = tmp_path / "plans"
        runs = []
        for _boot in range(2):  # cold, then restarted over the same store
            with self._boot(hospital_doc, sigma0_spec, directory) as service:
                runs.append(self._wave(service, algorithm))
        (cold, _cold_snap), (warm, warm_snap) = runs
        assert warm == cold
        assert warm_snap["plan_store"]["hits"] == len(self.WAVE)
        assert list(directory.glob("*.composed.json*")) == []
        assert len(PlanStore(directory)) == len(list(directory.iterdir()))


class TestArtifactCompression:
    def test_artifacts_are_gzip_on_disk_and_plain_json_is_corrupt(self, store):
        """Artifacts are gzip on disk, and only that form is read: the
        same payload written uncompressed has no crc to check, so it is a
        counted ``corrupt`` (and recompiled), never a hit."""
        from repro.compile import PlanArtifact

        compiler = QueryCompiler()
        artifact = compiler.compile(None, "a/b")
        key = artifact.cache_key()
        store.save(key, artifact)
        raw = store.path_for(key).read_bytes()
        assert raw[:2] == b"\x1f\x8b"  # gzip magic
        store.path_for(key).write_bytes(gzip.decompress(raw))
        assert store.load(key) is None
        assert store.stats.corrupt == 1
        # And the bytes themselves are deterministic (mtime pinned).
        assert artifact.to_bytes() == PlanArtifact.from_bytes(raw).to_bytes()

    def test_truncated_gzip_stream_is_a_miss(self, store):
        compiler = QueryCompiler()
        artifact = compiler.compile(None, "a/b")
        key = artifact.cache_key()
        store.save(key, artifact)
        raw = store.path_for(key).read_bytes()
        store.path_for(key).write_bytes(raw[: len(raw) // 2])
        assert store.load(key) is None
        assert store.stats.corrupt == 1


class TestBitFlipProperty:
    """The plan tier's half of the corruption property: every single-bit
    flip of a stored artifact, and of the same payload written as plain
    JSON, loaded through ``PlanStore.load`` and run under all three
    algorithms.  The only outcomes allowed are answers and
    :class:`HyPEStats` identical to the pristine plan's, or a counted
    ``corrupt``.  (Plain JSON carries no seal: 6 319 of its 31 072 flips
    once decoded to a different artifact.)"""

    QUERY = VIEW_QUERIES["example-4.1"]  # filters, stars, gate failures

    @pytest.fixture(scope="class")
    def setting(self, tmp_path_factory, sigma0_spec, hospital_doc):
        from repro.docstore import IndexedDocument

        artifact = QueryCompiler().compile(sigma0_spec, self.QUERY)
        store = PlanStore(tmp_path_factory.mktemp("flips"))
        key = artifact.cache_key()
        assert store.save(key, artifact)
        doc = IndexedDocument(hospital_doc)
        reference = self.answers(artifact, doc)
        assert all(ids for ids, _stats in reference)
        return store, key, doc, reference, store.path_for(key).read_bytes()

    @staticmethod
    def answers(artifact, doc) -> list:
        """Each algorithm's answers and stats on the executables the plan
        cache builds from ``artifact`` (a decoded one is closed again on
        the first)."""
        cached = CachedPlan(artifact.mfa, artifact)
        found = []
        for algorithm in ALGORITHMS:
            result = cached.compiled(algorithm, doc.tree, doc).run(0, layout=doc.layout)
            found.append((result.ids, result.stats))
        return found

    def sweep(self, setting, raw: bytes, bits) -> tuple[int, int]:
        """Load the one-bit flips of ``raw`` at ``bits``; (identical,
        corrupt)."""
        store, key, doc, reference, _pristine = setting
        path = store.path_for(key)
        identical = corrupt = 0
        for bit in bits:
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(flipped)
            before = store.stats.corrupt
            loaded = store.load(key)
            if loaded is None:
                assert store.stats.corrupt == before + 1, bit
                corrupt += 1
            else:
                assert loaded.closure is None, bit  # a load is a pure decode
                assert self.answers(loaded, doc) == reference, bit
                identical += 1
        return identical, corrupt

    def test_every_flip_of_the_stored_form(self, setting):
        raw = setting[-1]
        identical, corrupt = self.sweep(setting, raw, range(8 * len(raw)))
        assert identical + corrupt == 8 * len(raw)
        assert corrupt > 0.9 * 8 * len(raw)  # gzip's header fields aside

    def test_plain_json_and_every_flip_of_it_is_corrupt(self, setting):
        store, key, _doc, _reference, raw = setting
        plain = gzip.decompress(raw)
        store.path_for(key).write_bytes(plain)
        before = store.stats.corrupt
        assert store.load(key) is None
        assert store.stats.corrupt == before + 1
        # One flip per byte, the bit rotating: every byte, every position.
        bits = [8 * at + at % 8 for at in range(len(plain))]
        assert self.sweep(setting, plain, bits) == (0, len(plain))


class TestStoreGC:
    def _stale_version_file(self, store, query="c/d"):
        """Plant a file whose payload carries an old format version."""
        compiler = QueryCompiler()
        artifact = compiler.compile(None, query)
        key = artifact.cache_key()
        payload = json.loads(gzip.decompress(artifact.to_bytes()))
        payload["format_version"] = FORMAT_VERSION - 1
        path = store.root / f"stale-{abs(hash(query))}.plan.json"
        path.write_bytes(gzip.compress(json.dumps(payload).encode()))
        return path

    def test_gc_removes_stale_corrupt_and_misplaced_only(self, store):
        compiler = QueryCompiler()
        healthy = compiler.compile(None, "a/b")
        store.save(healthy.cache_key(), healthy)
        healthy_path = store.path_for(healthy.cache_key())

        stale = self._stale_version_file(store)
        corrupt = store.root / "garbage.plan.json"
        corrupt.write_bytes(b"{not json at all")
        other = compiler.compile(None, "e/f")
        misplaced = store.root / "misplaced.plan.json"
        misplaced.write_bytes(other.to_bytes())

        removed = store.gc()
        assert removed == 3
        assert healthy_path.exists()
        assert not stale.exists()
        assert not corrupt.exists()
        assert not misplaced.exists()
        assert store.stats.gc_removed == 3
        # The healthy artifact still loads afterwards.
        assert store.load(healthy.cache_key()) is not None

    def test_gc_on_clean_store_removes_nothing(self, store):
        compiler = QueryCompiler()
        for query in ("a/b", "c", "a[b]/c"):
            artifact = compiler.compile(None, query)
            store.save(artifact.cache_key(), artifact)
        assert store.gc() == 0
        assert len(store) == 3

    def test_gc_removed_flows_into_service_metrics(self, store, tmp_path):
        from repro.workloads.hospital import (
            HospitalConfig,
            generate_hospital_document,
        )

        self._stale_version_file(store)
        store.gc()
        tree = generate_hospital_document(HospitalConfig(num_patients=2, seed=0))
        with QueryService(tree, plan_store=store) as service:
            service.register_tenant("t", None)
            service.submit("t", "hospital")
            snapshot = service.metrics_snapshot()
        assert snapshot.store is not None
        assert snapshot.store.gc_removed == 1
        assert snapshot.as_dict()["plan_store"]["gc_removed"] == 1
        assert "1 gc-removed" in snapshot.describe()

    def test_warm_cli_gc_flag(self, store, capsys):
        from repro.cli import main

        stale = self._stale_version_file(store)
        assert stale.exists()
        code = main(
            ["warm", "--plan-dir", str(store.root), "--gc", "a/b"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gc: removed 1" in out
        assert not stale.exists()
        # The warmed plan landed and survives the gc.
        assert len(store) == 1

    def test_warm_cli_gc_sweeps_the_doc_tier_too(
        self, store, tmp_path, capsys
    ):
        from repro.cli import main

        doc_dir = tmp_path / "docs"
        doc_dir.mkdir()
        stale_index = doc_dir / ("a" * 64 + ".c.v1.docidx.json.gz")
        stale_index.write_bytes(b"x")
        stale_layout = doc_dir / ("b" * 64 + ".v1.doclay.bin")
        stale_layout.write_bytes(b"x")
        retired = [
            doc_dir / ("c" * 64 + suffix)
            for suffix in (
                ".u.v2.docidx.json.gz",
                ".c.v2.docidx.json.gz",
                ".v2.doclay.bin",
                ".v3.doclay.bin",
            )
        ]
        for path in retired:
            path.write_bytes(b"x")
        code = main(
            [
                "warm",
                "--plan-dir",
                str(store.root),
                "--gc",
                "--doc-dir",
                str(doc_dir),
                "a/b",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "removed 6 stale document-tier file(s)" in out
        assert not stale_index.exists() and not stale_layout.exists()
        assert not any(path.exists() for path in retired)


SRC = Path(repro.__file__).parent

#: What persisted the dense closure up to format v5: its encoder, the cfg
#: wire codec, the decode-time validator and ``DenseKernel.preload``.
RETIRED_KERNEL_PAYLOAD_NAMES = (
    "kernel_payload",
    "encode_cfgs",
    "_is_ints",
    "check_cfgs",
    "decode_cfgs",
    "preload",
    "_validate_kernel",
)


class TestRetiredKernelPayload:
    """Format v6 persists the automaton alone: the closure is a function
    of it, closed again on a decoded plan's first build."""

    @pytest.mark.parametrize("name", RETIRED_KERNEL_PAYLOAD_NAMES)
    def test_a_retired_name_is_gone(self, name):
        """Not defined, imported or named — not even in a docstring or a
        comment — in any Python or C source of the library."""
        pattern = re.compile(rf"(?<!\w){re.escape(name)}(?!\w)")
        sources = sorted(SRC.rglob("*.py")) + sorted(SRC.rglob("*.c"))
        assert len(sources) > 50, "the walk is broken"
        assert [
            path.relative_to(SRC).as_posix()
            for path in sources
            if pattern.search(path.read_text())
        ] == []
        assert not hasattr(DenseKernel, name)

    @pytest.mark.parametrize(
        "on_view, query",
        [pytest.param(True, query, id=name) for name, query in sorted(VIEW_QUERIES.items())]
        + [pytest.param(False, query, id=name) for name, query in sorted(FIG8.items())],
    )
    def test_a_v6_payload_has_no_kernel_key(self, on_view, query, sigma0_spec):
        """The warm set: the compiling process keeps its closure and
        writes the automaton alone; decoding closes nothing."""
        artifact = QueryCompiler().compile(sigma0_spec if on_view else None, query)
        assert artifact.kernel is artifact.closure.kernel
        raw = artifact.to_bytes()
        payload = json.loads(gzip.decompress(raw))
        assert FORMAT_VERSION == payload["format_version"] == 6
        assert sorted(payload) == [
            "description", "format_version", "mfa", "normalized_query", "view_fingerprint"
        ]
        decoded = PlanArtifact.from_bytes(raw)
        assert decoded.closure is None and decoded.kernel is None
        assert decoded.to_bytes() == raw

    def test_a_v5_file_is_never_read_and_gc_sweeps_it(self, store, sigma0_spec, monkeypatch):
        """A v5 process's file — ``kernel`` field and all — under its own
        key: the current process looks the query up under the v6 key,
        misses without opening it, compiles; ``gc`` removes it."""
        query = VIEW_QUERIES["example-4.1"]
        artifact = QueryCompiler().compile(sigma0_spec, query)
        payload = artifact.to_payload()
        payload["format_version"] = 5
        payload["kernel"] = {"labels": [], "sets": [[]], "cfgs": [[0, 0, []]], "trans": []}
        v5_raw = gzip.compress(json.dumps(payload, sort_keys=True).encode(), mtime=0)
        v5_path = store.path_for((artifact.view_fingerprint, artifact.normalized_query, 5))
        v5_path.write_bytes(v5_raw)
        decoded = []
        real = PlanArtifact.from_bytes.__func__
        monkeypatch.setattr(
            PlanArtifact, "from_bytes",
            classmethod(lambda cls, raw: decoded.append(raw) or real(cls, raw)),
        )
        cache = PlanCache(4, store=store)
        cache.plan(sigma0_spec, query)
        assert (cache.stats.misses, cache.stats.l2_hits) == (1, 0)
        stats = store.stats
        assert (stats.misses, stats.corrupt, stats.errors, stats.stores) == (1, 0, 0, 1)
        assert v5_raw not in decoded
        assert store.gc() == 1
        assert not v5_path.exists() and len(store) == 1
        assert store.load(artifact.cache_key()).to_bytes() == artifact.to_bytes()
