"""Deterministic fault injection: schedule semantics and every seam.

Each injection point is driven with a plan whose schedule pins exact hit
numbers, and the test asserts the fault fired on exactly those hits —
plus that the seam degrades the way its non-injected failure path does
(counted miss/rebuild/error, never an unstructured crash).
"""

from __future__ import annotations

import time

import pytest

from repro import faults
from repro.compile import FORMAT_VERSION, PlanStore, QueryCompiler
from repro.docstore import DocumentStore
from repro.faults import ENV_VAR, FaultPlan, FaultRule
from repro.hype.api import compile_plan
from repro.serve.batch import BatchEvaluator
from repro.workloads.hospital import HospitalConfig, generate_hospital_document
from repro.xtree.serialize import serialize


@pytest.fixture(autouse=True)
def uninstall():
    """Every test leaves the process fault-free."""
    yield
    faults.install(None)


def plan(*rules, seed: int = 0) -> FaultPlan:
    return faults.install(FaultPlan(rules, seed=seed))


class TestScheduleSemantics:
    def test_exact_hits_fire_exactly(self):
        rule = FaultRule("p", "delay", hits=(2, 5))
        schedule = FaultPlan([rule])
        fired = [schedule.fire("p") is not None for _ in range(6)]
        assert fired == [False, True, False, False, True, False]
        assert schedule.fired_counts() == {"p": 2}
        assert schedule.hits("p") == 6

    def test_every_with_limit(self):
        rule = FaultRule("p", "delay", every=3, limit=2)
        schedule = FaultPlan([rule])
        fired = [schedule.fire("p") is not None for _ in range(12)]
        assert fired == [
            False, False, True,
            False, False, True,
            False, False, False,
            False, False, False,
        ]

    def test_no_trigger_means_every_hit(self):
        schedule = FaultPlan([FaultRule("p", "delay")])
        assert all(schedule.fire("p") is not None for _ in range(4))

    def test_points_count_independently(self):
        schedule = FaultPlan([FaultRule("a", "delay", hits=(1,))])
        assert schedule.fire("b") is None
        assert schedule.fire("a") is not None
        assert schedule.hits("a") == 1 and schedule.hits("b") == 1

    def test_first_matching_rule_wins_per_hit(self):
        first = FaultRule("p", "delay", hits=(1,))
        second = FaultRule("p", "corrupt", hits=(1, 2))
        schedule = FaultPlan([first, second])
        assert schedule.fire("p").action == "delay"
        assert schedule.fire("p").action == "corrupt"

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule("p", "explode")

    def test_json_round_trip(self):
        original = FaultPlan(
            [FaultRule("p", "corrupt", hits=(3,), seconds=0.5)], seed=42
        )
        restored = FaultPlan.from_json(original.to_json())
        assert restored.seed == 42
        assert restored.rules == original.rules

    def test_env_install(self, monkeypatch):
        schedule = FaultPlan([FaultRule("p", "delay", hits=(1,))], seed=9)
        monkeypatch.setenv(ENV_VAR, schedule.to_json())
        installed = faults.install_from_env()
        assert installed is not None and installed.seed == 9
        assert faults.active() is installed
        monkeypatch.delenv(ENV_VAR)
        assert faults.install_from_env() is None  # unset: no-op, stays put

    def test_inert_without_plan(self):
        faults.install(None)
        assert faults.fire("anything") is None


class TestPlanStoreSeams:
    def test_load_corruption_fires_on_scheduled_hit_only(self, tmp_path):
        store = PlanStore(tmp_path / "plans")
        artifact = QueryCompiler().compile(None, "a/b")
        key = artifact.cache_key()
        store.save(key, artifact)
        schedule = plan(FaultRule("plan-store.load", "corrupt", hits=(2,)))
        assert store.load(key) is not None  # hit 1: clean
        assert store.load(key) is None  # hit 2: corrupted in flight
        assert store.load(key) is not None  # hit 3: clean again
        assert schedule.fired_counts() == {"plan-store.load": 1}
        assert store.stats.corrupt == 1  # degraded exactly like real rot

    def test_save_drop_is_a_counted_write_failure(self, tmp_path):
        store = PlanStore(tmp_path / "plans")
        artifact = QueryCompiler().compile(None, "a/b")
        key = artifact.cache_key()
        plan(FaultRule("plan-store.save", "drop", hits=(1,)))
        assert store.save(key, artifact) is False
        assert store.stats.errors == 1
        assert store.load(key) is None  # nothing landed on disk
        assert store.save(key, artifact) is True  # hit 2: clean write
        assert store.load(key) is not None


class TestDocTierSeam:
    def test_load_corruption_degrades_to_rebuild(self, tmp_path):
        xml = serialize(
            generate_hospital_document(HospitalConfig(num_patients=3, seed=1))
        )
        cold = DocumentStore(index_dir=tmp_path / "docs")
        cold.get(xml).index_for(True)
        schedule = plan(FaultRule("doc-tier.load", "corrupt", hits=(1,)))
        warm = DocumentStore(index_dir=tmp_path / "docs")
        warm.get(xml).index_for(True)
        assert schedule.fired_counts() == {"doc-tier.load": 1}
        assert warm.stats.corrupt == 1
        assert warm.stats.index_builds == 1  # rebuilt and re-stored
        again = DocumentStore(index_dir=tmp_path / "docs")
        again.get(xml).index_for(True)
        assert again.stats.index_loads == 1  # hit 2: clean load


class TestSeamsNamedByTheTier:
    """The three file I/O sites that had no fault point before every read
    and write went through :class:`repro.tier.FileTier` (whose seam name
    is an argument): corrupt on load is a counted rebuild, drop on save a
    counted error, answers identical either way."""

    XML = serialize(
        generate_hospital_document(HospitalConfig(num_patients=3, seed=1))
    )
    QUERY = "//patient[.//diagnosis/text() = 'heart disease']"

    def answers(self, store: DocumentStore) -> list:
        from repro.serve.service import QueryService

        with QueryService(store.get(self.XML), document_store=store) as service:
            service.register_tenant("admin", None)
            return [
                service.submit("admin", self.QUERY, algorithm).ids()
                for algorithm in ("hype", "opthype", "opthype-c")
            ]

    def test_doc_tier_save_and_save_layout_drops_are_counted_errors(
        self, tmp_path
    ):
        reference = self.answers(DocumentStore())
        schedule = plan(
            FaultRule("doc-tier.save", "drop", hits=(1,)),
            FaultRule("doc-tier.save-layout", "drop", hits=(1,)),
        )
        cold = DocumentStore(index_dir=tmp_path / "docs")
        assert self.answers(cold) == reference
        assert schedule.fired_counts() == {
            "doc-tier.save": 1,
            "doc-tier.save-layout": 1,
        }
        stats = cold.stats
        assert (stats.errors, stats.corrupt) == (2, 0)
        # The second variant is a conversion and writes nothing: with the
        # document's one record dropped, nothing landed.
        assert (stats.layout_stores, stats.index_stores) == (0, 0)
        assert list((tmp_path / "docs").iterdir()) == []  # no temporaries
        # What did not land is rebuilt (and stored) by the next process.
        warm = DocumentStore(index_dir=tmp_path / "docs")
        assert self.answers(warm) == reference
        stats = warm.stats
        assert (stats.index_loads, stats.index_builds) == (0, 2)
        assert (stats.layout_stores, stats.index_stores) == (1, 1)
        again = DocumentStore(index_dir=tmp_path / "docs")
        assert self.answers(again) == reference
        stats = again.stats
        assert (stats.index_loads, stats.index_builds, stats.layout_loads) == (2, 0, 1)

    def test_doc_tier_load_layout_corruption_degrades_to_rebuild(self, tmp_path):
        cold = DocumentStore(index_dir=tmp_path / "docs")
        reference = self.answers(cold)
        schedule = plan(FaultRule("doc-tier.load-layout", "corrupt", hits=(1,)))
        warm = DocumentStore(index_dir=tmp_path / "docs")
        assert self.answers(warm) == reference
        assert schedule.fired_counts() == {"doc-tier.load-layout": 1}
        stats = warm.stats
        assert (stats.corrupt, stats.errors) == (1, 0)
        assert (stats.layout_loads, stats.layout_stores) == (0, 1)
        again = DocumentStore(index_dir=tmp_path / "docs")
        assert self.answers(again) == reference
        assert again.stats.layout_loads == 1  # hit 2: clean load


class TestRetiredComposedSeams:
    """Composed tables are no longer persisted, so the two points that
    guarded their file I/O are gone: a plan naming either one never
    fires across a cold and a restarted composed wave over a
    ``--plan-dir``, and the plan store counts no failure."""

    XML = TestSeamsNamedByTheTier.XML

    def composed_wave(self, directory) -> tuple[list, dict]:
        from repro.serve.service import QueryRequest, QueryService
        from repro.views.samples import sigma0
        from repro.workloads import VIEW_QUERIES

        with QueryService(
            DocumentStore().get(self.XML), plan_store=PlanStore(directory)
        ) as service:
            service.compose = True  # composed whatever the lean pass
            service.register_view("research", sigma0())
            service.register_tenant("institute", "research")
            wave = [
                QueryRequest("institute", query)
                for query in sorted(VIEW_QUERIES.values())[:4]
            ]
            answers, _stats = service.submit_many(wave)
            return (
                [answer.ids() for answer in answers],
                service.metrics_snapshot().as_dict(),
            )

    @pytest.mark.parametrize(
        "point,action",
        [
            ("plan-store.save-composed", "drop"),
            ("plan-store.load-composed", "corrupt"),
        ],
    )
    def test_a_retired_point_never_fires(self, point, action, tmp_path):
        reference, _snap = self.composed_wave(tmp_path / "reference")
        schedule = plan(FaultRule(point, action))
        for _boot in range(2):  # cold, then restarted over the same store
            answers, snap = self.composed_wave(tmp_path / "plans")
            assert answers == reference
            assert snap["composed_builds"] == 1
            counters = snap["plan_store"]
            assert (counters["errors"], counters["corrupt"]) == (0, 0)
        assert schedule.hits(point) == 0
        assert schedule.fired_counts() == {}
        assert list((tmp_path / "plans").glob("*.composed.json*")) == []


class TestDescendSeam:
    def test_slow_descent_fires_per_schedule(self):
        tree = generate_hospital_document(HospitalConfig(num_patients=2, seed=0))
        compiled = compile_plan("department/patient")
        schedule = plan(
            FaultRule("descend", "delay", hits=(2,), seconds=0.05)
        )
        fast = time.perf_counter()
        compiled.run(tree.root)
        fast = time.perf_counter() - fast
        slow = time.perf_counter()
        compiled.run(tree.root)  # hit 2: injected delay
        slow = time.perf_counter() - slow
        compiled.run(tree.root)
        assert schedule.fired_counts() == {"descend": 1}
        assert schedule.hits("descend") == 3
        assert slow >= fast + 0.04

    def test_composed_pass_fires_the_seam_too(self):
        """Regression: ``descend_composed`` skipped the seam, so slow-
        descent schedules never touched composed-wave traffic."""
        tree = generate_hospital_document(HospitalConfig(num_patients=2, seed=0))
        lanes = [
            compile_plan("department/patient"),
            compile_plan("department/patient/parent"),
        ]
        schedule = plan(
            FaultRule("descend", "delay", hits=(1,), seconds=0.05)
        )
        started = time.perf_counter()
        wave = BatchEvaluator(lanes, groups=[(0, 1)]).run(tree.root)
        elapsed = time.perf_counter() - started
        assert wave.composed == {0, 1}  # ONE composed pass, no per-lane one
        assert schedule.hits("descend") == 1
        assert schedule.fired_counts() == {"descend": 1}
        assert elapsed >= 0.04


class TestWorkerPointSchedules:
    """The worker seams live in subprocesses (exercised end-to-end by the
    chaos smoke); here their schedules are validated through the same
    module-level probe the seams call."""

    def test_worker_message_crash_schedule(self):
        schedule = plan(FaultRule("worker.message", "crash", hits=(3,)))
        fired = [faults.fire("worker.message") for _ in range(4)]
        assert [f.action if f else None for f in fired] == [
            None, None, "crash", None,
        ]
        assert schedule.fired_counts() == {"worker.message": 1}

    def test_worker_connect_drop_schedule(self):
        schedule = plan(FaultRule("worker.connect", "drop", every=2, limit=1))
        fired = [faults.fire("worker.connect") for _ in range(4)]
        assert [f.action if f else None for f in fired] == [
            None, "drop", None, None,
        ]
        assert schedule.fired_counts() == {"worker.connect": 1}

    def test_delay_sleeps_in_the_probe(self):
        plan(FaultRule("worker.message", "hang", hits=(1,), seconds=0.05))
        started = time.perf_counter()
        rule = faults.fire("worker.message")
        elapsed = time.perf_counter() - started
        assert rule is not None and rule.action == "hang"
        assert elapsed >= 0.04
