"""The tier contract: one single-flight LRU, one atomic file tier.

``repro.tier`` holds the two algorithms every cache and every persisted
kind in the system is built on.  This suite pins each algorithm once,
directly, and then drives the same gate scenarios through the two LRU
owners (``PlanCache``, ``DocumentStore``) and the same
damage / sweep scenarios through the two persisted kinds (plan
artifact, index record) by parametrisation — the per-owner copies of
these tests are gone (mapping in ``CHANGES.md``).  Retired file
kinds are ``tests/retired.py``'s rows.

Every wait has a timeout: at a defect these tests fail, they do not hang.
"""

from __future__ import annotations

import gzip
import shutil
import sys
import threading
from dataclasses import dataclass

import pytest

from repro import faults
from repro.compile import PlanStore, QueryCompiler
from repro.docstore import DocumentStore, content_digest
from repro.errors import ReproError, XMLParseError
from repro.faults import FaultPlan, FaultRule
from repro.hype.api import ALGORITHMS
from repro.obs.counters import Counters
from repro.serve.cache import PlanCache, plan_key
from repro.serve.service import QueryRequest, QueryService
from repro.tier import RETIRED_SUFFIXES, FileTier, SingleFlightLRU
from repro.views.samples import sigma0
from repro.workloads import (
    VIEW_QUERIES,
    HospitalConfig,
    generate_hospital_document,
)
from repro.xtree.serialize import serialize

WAIT = 10  # seconds; every join / event wait below is bounded by it


@pytest.fixture(autouse=True)
def no_faults():
    yield
    faults.install(None)


@dataclass
class Tally(Counters):
    hits: int = 0
    evictions: int = 0
    errors: int = 0
    corrupt: int = 0
    gc_removed: int = 0


class Boom(RuntimeError):
    pass


class SlowStep:
    """The slow part of a build, under the test's control: counts calls,
    parks the caller for the keys in ``park`` until ``release`` is set,
    and raises :class:`Boom` once per ``fail_next``."""

    def __init__(self) -> None:
        self.calls: list = []
        self.park: set = set()
        self.entered = threading.Event()
        self.release = threading.Event()
        self.fail_next = False
        self._lock = threading.Lock()

    def __call__(self, key) -> None:
        with self._lock:
            self.calls.append(key)
            fail, self.fail_next = self.fail_next, False
        if key in self.park:
            self.entered.set()
            assert self.release.wait(WAIT), "parked build never released"
        if fail:
            raise Boom(key)


def run_threads(target, count: int) -> list:
    """``target(i)`` on ``count`` threads released together; results in
    thread order, exceptions re-raised."""
    barrier = threading.Barrier(count)
    results: list = [None] * count
    errors: list = []

    def body(i: int) -> None:
        try:
            barrier.wait(WAIT)
            results[i] = target(i)
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(WAIT)
    assert not any(thread.is_alive() for thread in threads), "a thread hung"
    if errors:
        raise errors[0]
    return results


def in_thread(target) -> tuple[threading.Thread, dict]:
    box: dict = {}

    def body() -> None:
        try:
            box["value"] = target()
        except BaseException as error:  # noqa: BLE001 - asserted by callers
            box["error"] = error

    thread = threading.Thread(target=body)
    thread.start()
    return thread, box


def finished(thread: threading.Thread) -> bool:
    thread.join(WAIT)
    return not thread.is_alive()


# ----------------------------------------------------------------------
# The LRU, directly
# ----------------------------------------------------------------------
class TestSingleFlightLRU:
    def make(self, capacity: int = 4):
        stats = Tally()
        return SingleFlightLRU(capacity, stats), stats

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            SingleFlightLRU(0, Tally())

    def test_a_hit_does_not_build(self):
        lru, stats = self.make()
        assert lru.get("k", lambda: "built") == "built"
        assert lru.get("k", lambda: pytest.fail("rebuilt a cached key")) == "built"
        assert lru.hit("k", uses=3) == "built"
        assert lru.hit("absent") is None
        assert stats.hits == 4 and stats.evictions == 0

    def test_n_threads_on_one_cold_key_build_once(self):
        lru, stats = self.make()
        step = SlowStep()

        def build():
            step("k")
            return object()

        values = run_threads(lambda _i: lru.get("k", build), 8)
        assert len({id(value) for value in values}) == 1
        assert step.calls == ["k"]
        assert stats.hits == 7

    def test_a_raising_build_hands_the_gate_to_the_next_waiter(self):
        lru, stats = self.make()
        step = SlowStep()
        step.park, step.fail_next = {"k"}, True

        def build():
            step("k")
            return "second builder's value"

        owner, owner_box = in_thread(lambda: lru.get("k", build))
        assert step.entered.wait(WAIT)
        waiter, waiter_box = in_thread(lambda: lru.get("k", build))
        step.release.set()
        assert finished(owner) and finished(waiter)
        assert isinstance(owner_box["error"], Boom)
        assert waiter_box["value"] == "second builder's value"
        assert step.calls == ["k", "k"]  # the waiter took over: no third
        assert lru._gates == {}  # and no gate is left behind
        assert lru.get("k", build) == "second builder's value"
        assert stats.hits == 1

    def test_recency_and_eviction_order(self):
        lru, stats = self.make(capacity=2)
        lru.get("a", lambda: 1)
        lru.get("b", lambda: 2)
        assert lru.hit("a") == 1  # refresh 'a'; 'b' is now least recent
        lru.get("c", lambda: 3)
        assert [key for key, _ in lru.items()] == ["a", "c"]
        assert lru.peek("b") is None and len(lru) == 2
        assert stats.evictions == 1
        for i in range(4):
            lru.get(f"k{i}", lambda i=i: i)
        assert [key for key, _ in lru.items()] == ["k2", "k3"]
        assert stats.evictions == 5

    def test_the_build_runs_outside_the_map_lock(self):
        lru, stats = self.make()
        lru.get("warm", lambda: "w")
        step = SlowStep()
        step.park = {"cold"}

        def build_cold():
            step("cold")
            return "c"

        owner, box = in_thread(lambda: lru.get("cold", build_cold))
        assert step.entered.wait(WAIT)
        # Every other operation completes while 'cold' is still building.
        probe, probed = in_thread(
            lambda: (
                lru.hit("warm"),
                lru.get("other", lambda: "o"),
                lru.peek("cold"),
                len(lru),
                [key for key, _ in lru.items()],
            )
        )
        assert finished(probe), "an operation queued behind another key's build"
        assert probed["value"] == ("w", "o", None, 2, ["warm", "other"])
        assert owner.is_alive()
        step.release.set()
        assert finished(owner) and box["value"] == "c"

    def test_a_stale_value_is_rebuilt_and_replaced(self):
        lru, stats = self.make()
        lru.get("k", lambda: ("v", 1))
        is_v2 = lambda value: value[1] == 2  # noqa: E731
        assert lru.get("k", lambda: ("v", 2), fresh=is_v2) == ("v", 2)
        rebuilt = lambda: pytest.fail("fresh value rebuilt")  # noqa: E731
        assert lru.get("k", rebuilt, fresh=is_v2) == ("v", 2)
        assert len(lru) == 1 and stats.hits == 1 and stats.evictions == 0

    def test_peek_counts_nothing_and_drop_is_not_an_eviction(self):
        lru, stats = self.make()
        for key in ("a1", "a2", "b1"):
            lru.get(key, lambda: key)
        assert lru.peek("a1") is not None and lru.peek("zz") is None
        assert [key for key, _ in lru.items()][0] == "a1"  # recency untouched
        assert lru.drop(lambda key: key.startswith("a")) == 2
        assert [key for key, _ in lru.items()] == ["b1"]
        assert stats.hits == 0 and stats.evictions == 0

    def test_stress_no_lost_update(self):
        """More workers than cores, a short switch interval, keys that
        keep evicting each other: every lookup is exactly one hit or one
        build, and every build beyond the survivors is one eviction."""
        lru, stats = self.make(capacity=8)
        builds: list = []
        rounds, workers, keys = 300, 12, 24

        def worker(offset: int) -> None:
            for i in range(rounds):
                key = (offset * 7 + i * 5) % keys
                value = lru.get(key, lambda key=key: builds.append(key) or key)
                assert value == key

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads(worker, workers)
        finally:
            sys.setswitchinterval(interval)
        assert stats.hits + len(builds) == rounds * workers
        assert stats.evictions == len(builds) - len(lru)
        assert len(lru) == 8 and lru._gates == {}


# ----------------------------------------------------------------------
# The same gate scenarios through the three owners
# ----------------------------------------------------------------------
class PlanOwner:
    """``PlanCache.plan`` over a store; the slow step is the compile."""

    def __init__(self, tmp_path, monkeypatch) -> None:
        self.step = step = SlowStep()

        class SteppedCompiler(QueryCompiler):
            def compile(self, spec, query):
                step(query.text)
                return super().compile(spec, query)

        self.cache = PlanCache(
            4, store=PlanStore(tmp_path / "plans"), compiler=SteppedCompiler()
        )
        self.queries = ["a/b", "c[d]", "e//f"]

    def key(self, i: int):
        return self.cache.compiler.normalize(self.queries[i]).text

    def lookup(self, i: int):
        return self.cache.plan(None, self.queries[i])

    def probe(self):
        return self.cache.stats, len(self.cache)

    def built(self) -> int:
        return self.cache.stats.misses


class DocumentOwner:
    """``DocumentStore.get``; the slow step is the parse."""

    def __init__(self, tmp_path, monkeypatch) -> None:
        import repro.docstore.store as module

        self.step = step = SlowStep()
        real = module.parse_canonical

        def stepped(content):
            step(content)
            return real(content)

        monkeypatch.setattr(module, "parse_canonical", stepped)
        self.store = DocumentStore(capacity=4, index_dir=tmp_path / "docs")
        self.texts = ["<a><b/></a>", "<c>x</c>", "<d><e/><e/></d>"]

    def key(self, i: int):
        return self.texts[i]

    def lookup(self, i: int):
        return self.store.get(self.texts[i])

    def probe(self):
        return self.store.snapshot_stats(), len(self.store), "0" * 64 in self.store

    def built(self) -> int:
        return self.store.stats.misses


@pytest.fixture(params=[PlanOwner, DocumentOwner])
def owner(request, tmp_path, monkeypatch):
    return request.param(tmp_path, monkeypatch)


class TestOwnersShareTheGate:
    def test_threads_racing_one_cold_key_build_once(self, owner):
        values = run_threads(lambda _i: owner.lookup(0), 6)
        assert len({id(value) for value in values}) == 1
        assert owner.step.calls == [owner.key(0)]
        assert owner.built() == 1

    def test_a_failed_build_leaves_the_key_resolvable(self, owner):
        for _ in range(2):  # a gate left behind would hang the second try
            owner.step.fail_next = True
            thread, box = in_thread(lambda: owner.lookup(0))
            assert finished(thread), "a failed build wedged its key"
            assert isinstance(box["error"], Boom)
        thread, box = in_thread(lambda: owner.lookup(0))
        assert finished(thread) and "error" not in box
        assert owner.lookup(0) is box["value"]
        assert len(owner.step.calls) == 3  # two failures, one build, one hit

    def test_a_parked_build_blocks_nobody_else(self, owner):
        """A cold build runs outside the map lock: ``stats`` / ``len``
        and every other key's lookup never queue behind it, for both
        owners."""
        owner.step.park = {owner.key(0)}
        parked, parked_box = in_thread(lambda: owner.lookup(0))
        assert owner.step.entered.wait(WAIT)
        same_key, same_box = in_thread(lambda: owner.lookup(0))
        others, others_box = in_thread(lambda: (owner.probe(), owner.lookup(1)))
        assert finished(others), "stats or another key queued behind a cold build"
        assert "error" not in others_box
        assert parked.is_alive() and same_key.is_alive()
        owner.step.release.set()
        assert finished(parked) and finished(same_key)
        assert same_box["value"] is parked_box["value"]
        assert owner.step.calls.count(owner.key(0)) == 1
        assert owner.built() == 2


def test_a_malformed_query_fails_every_time_and_wedges_nothing(sigma0_spec):
    cache = PlanCache()
    for _ in range(2):
        with pytest.raises(ReproError):
            cache.plan(None, "]][[")
    assert cache.plan(sigma0_spec, "patient") is not None


def test_a_malformed_document_adds_no_alias():
    store = DocumentStore()
    good = store.get("<a><b/></a>")
    for _ in range(2):
        with pytest.raises(XMLParseError, match="mismatched"):
            store.get("<a><b></a>")
    assert len(store) == 1 and store.get("<a><b/></a>") is good
    assert store.stats.misses == 1 and store.stats.hits == 1


# ----------------------------------------------------------------------
# The file tier, directly
# ----------------------------------------------------------------------
def upper(data) -> bytes:
    return bytes(data).upper()


class TestFileTier:
    @pytest.fixture()
    def tier(self, tmp_path):
        return FileTier(tmp_path / "files", Tally())

    def counts(self, tier):
        stats = tier.stats
        return (stats.errors, stats.corrupt, stats.gc_removed)

    def test_round_trip_and_a_missing_file_counts_nothing(self, tier):
        path = tier.root / "x.bin"
        assert tier.read(path, "seam.read", upper) is None
        assert tier.write(path, b"abc", "seam.write") is True
        assert tier.read(path, "seam.read", upper) == b"ABC"
        assert self.counts(tier) == (0, 0, 0)
        assert [p.name for p in tier.root.iterdir()] == ["x.bin"]

    def test_an_unreadable_file_is_an_error_not_corruption(self, tier):
        path = tier.root / "x.bin"
        path.mkdir()  # chmod does nothing as root; a directory always fails
        assert tier.read(path, "seam.read", upper) is None
        assert self.counts(tier) == (1, 0, 0)

    def test_empty_and_undecodable_files_are_corrupt(self, tier):
        def refuse(data):
            raise ValueError("not mine")

        path = tier.root / "x.bin"
        path.write_bytes(b"")
        assert tier.read(path, "seam.read", upper) is None
        path.write_bytes(b"abc")
        assert tier.read(path, "seam.read", refuse) is None
        assert self.counts(tier) == (0, 2, 0)

    def test_a_reader_never_sees_a_partial_file(self, tier):
        path = tier.root / "x.bin"
        size = 1 << 20
        payloads = [bytes([byte]) * size for byte in b"ab"]
        tier.write(path, payloads[0], "seam.write")
        done = threading.Event()

        def writer():
            try:
                for i in range(40):
                    assert tier.write(path, payloads[i % 2], "seam.write")
            finally:
                done.set()

        torn: list = []

        def whole(data: bytes) -> bytes:
            if len(data) != size or data.count(data[:1]) != size:
                torn.append(len(data))
            return data

        thread = threading.Thread(target=writer)
        thread.start()
        reads = 0
        while not done.is_set():
            assert tier.read(path, "seam.read", whole) is not None
            reads += 1
        assert finished(thread)
        assert torn == [] and reads > 0
        assert self.counts(tier) == (0, 0, 0)
        assert [p.name for p in tier.root.iterdir()] == ["x.bin"]

    def test_a_failed_write_leaves_no_temporary(self, tier, monkeypatch):
        import repro.tier as module

        def full_disk(*_args):
            raise OSError("disk full")

        monkeypatch.setattr(module.os, "replace", full_disk)
        assert tier.write(tier.root / "x.bin", b"abc", "seam.write") is False
        assert list(tier.root.iterdir()) == []
        assert self.counts(tier) == (1, 0, 0)

    def test_an_unwritable_root_degrades_to_counted_errors(self, tier):
        shutil.rmtree(tier.root)
        tier.root.write_bytes(b"a file where the directory was")
        assert tier.write(tier.root / "x.bin", b"abc", "seam.write") is False
        assert tier.read(tier.root / "x.bin", "seam.read", upper) is None
        assert tier.sweep((".bin",), lambda path, data: True) == 0
        assert self.counts(tier) == (3, 0, 0)

    def test_sweep_removes_what_keep_refuses(self, tier):
        for name, data in {
            "good.kind": b"good",
            "refused.kind": b"bad",
            "raises.kind": b"worse",
            "empty.kind": b"",
            "other.txt": b"not ours",
            "good.kind.tmp.1.2": b"someone's write in flight",
        }.items():
            (tier.root / name).write_bytes(data)
        (tier.root / "unreadable.kind").mkdir()

        def keep(path, data):
            if data == b"worse":
                raise ValueError("undecodable")
            return data == b"good"

        assert tier.sweep((".kind",), keep) == 3
        assert sorted(p.name for p in tier.root.iterdir()) == [
            "good.kind",
            "good.kind.tmp.1.2",
            "other.txt",
            "unreadable.kind",
        ]
        assert self.counts(tier) == (1, 0, 3)

    @pytest.mark.parametrize("suffix", RETIRED_SUFFIXES)
    def test_sweep_removes_a_retired_kind_unread(self, suffix, tier):
        """Whatever a retired file holds, no kind's check sees it and the
        sweep removes it; one that cannot be unlinked stays, an error."""
        (tier.root / f"good{suffix}").write_bytes(b"good")
        (tier.root / f"stuck{suffix}").mkdir()

        def keep(path, data):
            raise AssertionError(f"{path.name} was read")

        assert tier.sweep((".kind",), keep) == 1
        assert [p.name for p in tier.root.iterdir()] == [f"stuck{suffix}"]
        assert self.counts(tier) == (1, 0, 1)

    def test_seams_fire_with_bytes_in_hand_and_on_every_write(self, tier):
        path = tier.root / "x.bin"
        schedule = faults.install(
            FaultPlan(
                [
                    FaultRule("seam.read", "corrupt", hits=(2,)),
                    FaultRule("seam.write", "drop", hits=(2,)),
                ]
            )
        )
        assert tier.read(path, "seam.read", upper) is None  # missing: no hit
        assert schedule.hits("seam.read") == 0
        assert tier.write(path, b"abcdef", "seam.write") is True
        assert tier.write(path, b"uvwxyz", "seam.write") is False  # dropped
        assert tier.read(path, "seam.read", upper) == b"ABCDEF"
        assert tier.read(path, "seam.read", upper) == b"\x00CORRUPT\x00ABC"
        assert tier.read(path, "seam.read", upper) == b"ABCDEF"
        assert schedule.hits("seam.read") == 3 and schedule.hits("seam.write") == 2
        assert self.counts(tier) == (1, 0, 0)
        assert [p.name for p in tier.root.iterdir()] == ["x.bin"]


# ----------------------------------------------------------------------
# One read policy, one sweep policy: the two persisted kinds
# ----------------------------------------------------------------------
WAVE = sorted(VIEW_QUERIES.values())[:4]
XML = serialize(generate_hospital_document(HospitalConfig(num_patients=4, seed=3)))
SIBLING_XML = serialize(
    generate_hospital_document(HospitalConfig(num_patients=3, seed=5))
)
KINDS = ("plan", "index")


class Deployment:
    """A ``--plan-dir`` + ``--doc-dir`` pair and the service over them."""

    def __init__(self, root) -> None:
        self.plans, self.docs = root / "plans", root / "docs"

    def boot(self) -> QueryService:
        documents = DocumentStore(index_dir=self.docs)
        service = QueryService(
            documents.get(XML),
            plan_store=PlanStore(self.plans),
            document_store=documents,
        )
        service.register_view("research", sigma0())
        service.register_tenant("institute", "research")
        return service

    def drive(self, wave=WAVE) -> tuple[list, dict]:
        """The wave under all three algorithms: touches every plan and
        both index variants."""
        with self.boot() as service:
            answers = [
                [
                    answer.ids()
                    for answer in service.submit_many(
                        [QueryRequest("institute", q, algorithm) for q in wave]
                    )[0]
                ]
                for algorithm in ALGORITHMS
            ]
            return answers, service.metrics_snapshot().as_dict()

    def target(self, kind: str):
        """(the file a WAVE drive reads, a healthy file of the same kind
        stored under another key)."""
        plans = PlanStore(self.plans)
        tier = DocumentStore(index_dir=self.docs).tier
        address, other = content_digest(XML), content_digest(SIBLING_XML)
        return {
            "plan": (
                plans.path_for(plan_key(sigma0(), WAVE[0])),
                plans.path_for(plan_key(sigma0(), WAVE[1])),
            ),
            "index": (tier.path_for(address), tier.path_for(other)),
        }[kind]

    def counters(self, kind: str, snap: dict) -> dict:
        return snap["plan_store" if kind == "plan" else "doc_store"]


@pytest.fixture(scope="module")
def populated(tmp_path_factory):
    """Both directories after one cold run, with a second file of every
    kind (another query, another document) beside the targets."""
    deployment = Deployment(tmp_path_factory.mktemp("tiers"))
    answers, snap = deployment.drive()
    DocumentStore(index_dir=deployment.docs).get(SIBLING_XML).index_for(False)
    assert snap["plan_store"]["stores"] == len(WAVE)
    assert snap["doc_store"]["index_stores"] == 1  # one record per document
    for kind in KINDS:
        assert all(path.is_file() for path in deployment.target(kind))
    return deployment, answers


@pytest.fixture()
def deployed(populated, tmp_path):
    source, answers = populated
    copy = Deployment(tmp_path)
    shutil.copytree(source.plans, copy.plans)
    shutil.copytree(source.docs, copy.docs)
    return copy, answers


def flip_header_byte(path, sibling) -> None:
    raw = bytearray(path.read_bytes())
    raw[12] ^= 0xFF  # inside a plan's gzip stream / a record's hash echo
    path.write_bytes(bytes(raw))


def as_directory(path, sibling) -> None:
    path.unlink()
    path.mkdir()


DAMAGE = {
    "unreadable": as_directory,
    "empty": lambda path, sibling: path.write_bytes(b""),
    "truncated": lambda path, sibling: path.write_bytes(
        path.read_bytes()[: path.stat().st_size // 2]
    ),
    "flipped-byte": flip_header_byte,
    "wrong-key-echo": lambda path, sibling: path.write_bytes(sibling.read_bytes()),
}


class TestOneReadPolicy:
    """Satellite 2: whatever the kind, a missing file is a plain miss, an
    unreadable one counts ``errors`` and a damaged one ``corrupt`` — and
    serving continues with identical answers either way.  (At the parent
    an unreadable layout sidecar counted ``corrupt``.)"""

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    @pytest.mark.parametrize("kind", KINDS)
    def test_damage_is_counted_and_served_through(self, kind, damage, deployed):
        deployment, expected = deployed
        DAMAGE[damage](*deployment.target(kind))
        answers, snap = deployment.drive()
        assert answers == expected
        counters = deployment.counters(kind, snap)
        if damage == "unreadable":
            # One refused read, then one refused write-back onto the
            # directory: both I/O errors, nothing corrupt.
            assert (counters["errors"], counters["corrupt"]) == (2, 0)
        else:
            assert (counters["errors"], counters["corrupt"]) == (0, 1)
            # The rebuild overwrote the bad file: the next boot is clean.
            answers, snap = deployment.drive()
            assert answers == expected
            counters = deployment.counters(kind, snap)
            assert (counters["errors"], counters["corrupt"]) == (0, 0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_missing_file_is_a_plain_miss(self, kind, deployed):
        deployment, expected = deployed
        deployment.target(kind)[0].unlink()
        answers, snap = deployment.drive()
        assert answers == expected
        counters = deployment.counters(kind, snap)
        assert (counters["errors"], counters["corrupt"]) == (0, 0)

    def test_an_undamaged_deployment_reads_clean(self, deployed):
        deployment, expected = deployed
        answers, snap = deployment.drive()
        assert answers == expected
        assert snap["plan_store"]["corrupt"] == snap["doc_store"]["corrupt"] == 0
        assert snap["plan_store"]["misses"] == snap["plan_misses"] == 0
        assert snap["doc_store"]["index_builds"] == 0
        assert snap["doc_store"]["index_loads"] == 2  # one record, two variants


def undecodable_index(path, sibling) -> None:
    """A current-version name over a file that is not an index record:
    the gzip-JSON record format v2 wrote."""
    path.write_bytes(gzip.compress(b'{"doc_format_version": 2}'))


class TestGcReclaimsWhatLoadRefuses:
    """Satellite 3: a sweep's ``keep`` is the kind's own decode-and-echo
    check.  (At the parent ``gc`` kept an undecodable current-version
    index file and a sidecar truncated after its header.)"""

    CASES = [
        ("plan", DAMAGE["truncated"]),
        ("plan", DAMAGE["wrong-key-echo"]),
        ("index", DAMAGE["truncated"]),
        ("index", undecodable_index),
        ("index", DAMAGE["wrong-key-echo"]),
        ("plan", DAMAGE["empty"]),
        ("plan", flip_header_byte),
        ("index", DAMAGE["empty"]),
        ("index", flip_header_byte),
    ]

    @pytest.mark.parametrize("kind,damage", CASES)
    def test_gc_removes_the_mangled_file_only(self, kind, damage, deployed):
        deployment, expected = deployed
        path, sibling = deployment.target(kind)
        files = lambda: {  # noqa: E731
            p for root in (deployment.plans, deployment.docs) for p in root.iterdir()
        }
        before = files()
        damage(path, sibling)
        if kind == "plan":
            store = PlanStore(deployment.plans)
            assert store.gc() == 1
            assert store.stats.gc_removed == 1 and store.stats.errors == 0
        else:
            store = DocumentStore(index_dir=deployment.docs)
            assert store.tier.gc() == 1
            assert store.stats.gc_removed == 1 and store.stats.errors == 0
        assert before - files() == {path}
        answers, snap = deployment.drive()
        assert answers == expected
        counters = deployment.counters(kind, snap)
        assert (counters["errors"], counters["corrupt"]) == (0, 0)

    def test_gc_of_a_healthy_deployment_removes_nothing(self, deployed):
        deployment, _expected = deployed
        assert PlanStore(deployment.plans).gc() == 0
        assert DocumentStore(index_dir=deployment.docs).tier.gc() == 0
