"""Plan-cache tests: LRU behaviour, counters, fingerprint keys, threading."""

import threading
import time

import pytest

from repro.compile import FORMAT_VERSION
from repro.engine import SMOQE
from repro.serve.cache import PlanCache, normalized_query_text, plan_key


class TestNormalizedQueryText:
    def test_syntactic_variants_share_a_key(self):
        assert normalized_query_text("//b") == normalized_query_text("(*)*/b")
        assert normalized_query_text("(a/b)") == normalized_query_text("a/b")
        assert normalized_query_text("((a)*)*") == normalized_query_text("a*")

    def test_distinct_queries_stay_distinct(self):
        assert normalized_query_text("a/b") != normalized_query_text("b/a")
        assert normalized_query_text("a[b]") != normalized_query_text("a[c]")

    def test_accepts_ast(self):
        from repro.xpath.parser import parse_query

        assert normalized_query_text(parse_query("a/b")) == normalized_query_text(
            "a/b"
        )


class TestPlanKey:
    def test_direct_queries_key_under_none_fingerprint(self):
        key = plan_key(None, "//b")
        assert key == (None, normalized_query_text("//b"), FORMAT_VERSION)

    def test_same_content_specs_share_a_key(self, sigma0_spec):
        from repro.views.samples import sigma0

        assert plan_key(sigma0_spec, "patient") == plan_key(sigma0(), "patient")

    def test_different_specs_never_share_a_key(self, sigma0_spec):
        from repro.dtd import hospital_dtd, hospital_view_dtd
        from repro.views.samples import SIGMA0_ANNOTATIONS
        from repro.views.spec import view_spec

        restricted = view_spec(
            hospital_dtd(),
            hospital_view_dtd(),
            {**SIGMA0_ANNOTATIONS, ("patient", "parent"): "parent[not(.)]"},
        )
        assert plan_key(sigma0_spec, "patient") != plan_key(restricted, "patient")


class TestPlanCache:
    """``PlanCache`` as an owner: its key scheme and counters.  The LRU
    and gate behaviour it is built on is pinned in ``tests/test_tier.py``
    (directly, and through this class as one of three owners)."""

    def test_get_is_a_counted_lookup(self):
        cache = PlanCache(capacity=4)
        key = plan_key(None, "a/b")
        assert cache.get(key) is None
        plan = cache.plan(None, "a/b")
        assert cache.get(key) is plan
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (1, 2, 0)
        assert stats.l1_hits == 1 and stats.l2_hits == 0
        assert stats.lookups == 3
        assert stats.hit_rate == pytest.approx(1 / 3)

    def test_keys_are_least_recently_used_first(self):
        cache = PlanCache(capacity=2)
        for query in ("a", "b"):
            cache.plan(None, query)
        cache.plan(None, "a")  # refresh 'a'; 'b' is now LRU
        cache.plan(None, "c")
        assert plan_key(None, "b") not in cache
        assert list(cache.keys()) == [plan_key(None, "a"), plan_key(None, "c")]
        assert cache.stats.evictions == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            PlanCache(capacity=0)

    def test_invalidate_view_drops_only_that_view(self, sigma0_spec):
        cache = PlanCache(capacity=8)
        cache.plan(sigma0_spec, "patient")
        cache.plan(sigma0_spec, "patient/record")
        cache.plan(None, "patient")
        assert cache.invalidate_view("no-such-fingerprint") == 0
        assert cache.invalidate_view(sigma0_spec.fingerprint()) == 2
        assert list(cache.keys()) == [plan_key(None, "patient")]
        assert cache.stats.evictions == 0  # released, not evicted


class TestFingerprintKeys:
    """The spec fingerprint *is* the isolation mechanism: no manual
    spec-identity checks remain anywhere."""

    def test_same_view_name_different_specs_never_share_a_plan(
        self, hospital_doc, sigma0_spec
    ):
        """Regression (the documented footgun): two services binding the
        same view *name* to different specs must never share a plan."""
        from repro.dtd import hospital_dtd, hospital_view_dtd
        from repro.serve.service import QueryService
        from repro.views.samples import SIGMA0_ANNOTATIONS
        from repro.views.spec import view_spec

        restricted = view_spec(
            hospital_dtd(),
            hospital_view_dtd(),
            {**SIGMA0_ANNOTATIONS, ("patient", "parent"): "parent[not(.)]"},
        )
        cache = PlanCache(capacity=8)
        open_service = QueryService(hospital_doc, cache=cache)
        open_service.register_view("research", sigma0_spec)
        open_service.register_tenant("institute", "research")
        locked_service = QueryService(hospital_doc, cache=cache)
        locked_service.register_view("research", restricted)
        locked_service.register_tenant("institute", "research")

        query = "patient/parent"
        open_answer = open_service.submit("institute", query)
        locked_answer = locked_service.submit("institute", query)
        assert locked_answer.ids() == []  # never sees sigma0's rewriting
        assert open_answer.ids() != []
        # Both plans live side by side under their own fingerprints.
        assert plan_key(sigma0_spec, query) in cache
        assert plan_key(restricted, query) in cache
        assert cache.stats.misses == 2
        # Neither holder is poisoned by the other's plan afterwards.
        assert open_service.submit("institute", query).ids() == open_answer.ids()
        assert locked_service.submit("institute", query).ids() == []
        open_service.close()
        locked_service.close()

    def test_identical_content_specs_share_one_plan(self, hospital_doc):
        """The flip side: same *content* under different names/objects is
        one fingerprint, so tenants share the warm plan."""
        from repro.serve.service import QueryService
        from repro.views.samples import sigma0

        cache = PlanCache(capacity=8)
        with QueryService(hospital_doc, cache=cache) as service:
            service.register_view("research-a", sigma0())
            service.register_view("research-b", sigma0())
            service.register_tenant("a", "research-a")
            service.register_tenant("b", "research-b")
            first = service.submit("a", "patient")
            second = service.submit("b", "patient")
            assert first.ids() == second.ids()
            stats = cache.stats
            assert stats.misses == 1 and stats.hits == 1

    def test_service_reregistration_recompiles_for_cache_sharer(
        self, hospital_doc, sigma0_spec
    ):
        """Re-registering a view with a *different* ViewSpec on a service
        must not let an engine sharing the PlanCache serve stale plans."""
        from repro.dtd import hospital_dtd, hospital_view_dtd
        from repro.serve.service import QueryService
        from repro.views.samples import SIGMA0_ANNOTATIONS
        from repro.views.spec import view_spec

        restricted = view_spec(
            hospital_dtd(),
            hospital_view_dtd(),
            {**SIGMA0_ANNOTATIONS, ("patient", "parent"): "parent[not(.)]"},
        )
        cache = PlanCache(capacity=8)
        service = QueryService(hospital_doc, cache=cache)
        service.register_view("research", sigma0_spec)
        service.register_tenant("institute", "research")
        engine = SMOQE(hospital_doc, cache=cache)
        engine.register_view("research", restricted)

        open_answer = service.submit("institute", "patient/parent")
        assert engine.answer("research", "patient/parent").ids() == []
        # The service re-registers its view with the restricted spec: its
        # later submits compile (or share) against the new spec, never
        # reusing sigma0's entries.
        service.register_view("research", restricted)
        assert service.submit("institute", "patient/parent").ids() == []
        # Flipping back recompiles again (no poisoning either direction).
        service.register_view("research", sigma0_spec)
        assert (
            service.submit("institute", "patient/parent").ids()
            == open_answer.ids()
        )
        service.close()

    def test_eviction_accounting_under_capacity_pressure(self):
        cache = PlanCache(capacity=2)
        for i in range(6):
            cache.plan(None, f"q{i}")
        stats = cache.stats
        assert len(cache) == 2
        assert stats.evictions == 4
        # Only the two most recent keys survive.
        assert plan_key(None, "q4") in cache and plan_key(None, "q5") in cache

    def test_engine_answers_stay_correct_across_evictions(
        self, hospital_doc, sigma0_spec
    ):
        """Eviction + recompilation under pressure never changes answers."""
        engine = SMOQE(hospital_doc, cache=PlanCache(capacity=2))
        engine.register_view("research", sigma0_spec)
        baseline = {
            q: engine.answer("research", q).ids()
            for q in ("patient", "patient/record", "patient/parent")
        }
        for _ in range(3):  # cycle so every plan is evicted at least once
            for query, expected in baseline.items():
                assert engine.answer("research", query).ids() == expected
        assert engine.cache.stats.evictions >= 3


class TestSMOQEDelegation:
    def test_engine_uses_shared_plan_cache(self, hospital_doc, sigma0_spec):
        cache = PlanCache(capacity=8)
        engine = SMOQE(hospital_doc, cache=cache)
        engine.register_view("research", sigma0_spec)
        first = engine.answer("research", "patient")
        again = engine.answer("research", "(patient)")  # same normalised key
        assert first.ids() == again.ids()
        stats = engine.cache.stats
        assert stats.misses == 1 and stats.hits == 1
        assert plan_key(sigma0_spec, "patient") in cache

    def test_direct_queries_cache_under_none_view(self, hospital_doc):
        engine = SMOQE(hospital_doc)
        engine.evaluate("//pname")
        engine.evaluate("//pname")
        assert engine.cache.stats.hits == 1
        assert plan_key(None, "//pname") in engine.cache

    def test_cache_shared_between_engine_and_service(
        self, hospital_doc, sigma0_spec
    ):
        """Engine and service store the same CachedPlan values, so one
        cache serves both without type clashes in either fill order."""
        from repro.serve.service import QueryService

        cache = PlanCache(capacity=16)
        service = QueryService(hospital_doc, cache=cache)
        service.register_tenant("admin", None)
        engine = SMOQE(hospital_doc, cache=cache)
        engine.register_view("research", sigma0_spec)
        # Service fills, engine hits — and the other way around.
        served = service.submit("admin", "department/name")
        direct = engine.evaluate("department/name")
        assert served.ids() == direct.ids()
        engine.evaluate("//pname")
        assert service.submit("admin", "//pname").ids() == engine.evaluate(
            "//pname"
        ).ids()
        stats = cache.stats
        assert stats.hits >= 2
        service.close()

    def test_eviction_recompiles_transparently(self, hospital_doc):
        engine = SMOQE(hospital_doc, cache=PlanCache(capacity=1))
        a = engine.evaluate("department/name")
        engine.evaluate("//pname")  # evicts the first plan
        b = engine.evaluate("department/name")  # recompiled
        assert a.ids() == b.ids()
        assert engine.cache.stats.evictions >= 1


class TestExecutableLifetime:
    def test_executables_are_per_label_table_not_per_document(self):
        """What an OptHyPE executable derives is a function of (plan,
        label set), so it is held weakly by label table: with a
        capacity-2 store and 11 same-DTD documents through one hot
        query, the cached plan keeps ONE executable (it was one per live
        document while executables embedded a document's index), which
        owns no index — every run prunes on its own document's masks,
        and a re-ingested document is served by the same executable."""
        from repro.baselines.naive import NaiveEvaluator
        from repro.docstore import DocumentStore
        from repro.hype.api import HYPE, OPTHYPE
        from repro.workloads import HospitalConfig, generate_hospital_document
        from repro.xtree.serialize import serialize

        query = "//patient[.//diagnosis/text() = 'heart disease']"
        store = DocumentStore(capacity=2)
        cached = PlanCache(8).plan(None, query)

        def answer(xml):
            doc = store.get(xml)
            plan = cached.compiled(OPTHYPE, doc.tree, doc)
            got = plan.run(doc.tree.root, layout=doc.layout).answers
            want = NaiveEvaluator(query).run(doc.tree)
            assert {n.node_id for n in got} == {n.node_id for n in want}
            return len(got)

        texts = [
            serialize(
                generate_hospital_document(HospitalConfig(num_patients=6, seed=s))
            )
            for s in range(11)
        ]
        assert sum(answer(xml) for xml in texts) > 0
        assert store.stats.evictions == 9
        (live,) = cached.executables()
        assert not hasattr(live, "index")
        answer(texts[0])  # evicted long ago: re-ingested, same executable, right
        assert cached.executables() == [live]
        annex = store.get("<hospital><annex><patient/></annex></hospital>")
        assert cached.compiled(OPTHYPE, annex.tree, annex) is not live
        # The index-free HyPE executable is per plan, whatever the document.
        docs = [store.get(xml) for xml in texts[:3]]
        assert len({id(cached.compiled(HYPE, d.tree, d)) for d in docs}) == 1


class TestResolutionGate:
    """The per-key gate covers probe + compile + publication, not the
    write-back.  (The gate itself: ``tests/test_tier.py``.)"""

    class SlowStore:
        def __init__(self, fail: bool = False) -> None:
            self.fail = fail
            self.saving = threading.Event()
            self.release = threading.Event()
            self.saved: list = []

        def load(self, key):
            return None

        def save(self, key, artifact) -> bool:
            self.saving.set()
            if self.fail:
                raise RuntimeError("disk on fire")
            assert self.release.wait(10)
            self.saved.append(key)
            return True

    def test_waiters_return_before_the_write_back_finishes(self):
        from repro.compile.pipeline import QueryCompiler

        compiling = threading.Event()
        go = threading.Event()

        class GatedCompiler(QueryCompiler):
            def compile(self, spec, query):
                compiling.set()
                assert go.wait(10)
                return super().compile(spec, query)

        store = self.SlowStore()
        cache = PlanCache(4, store=store, compiler=GatedCompiler())
        results: dict = {}

        def ask(name):
            results[name] = cache.plan(None, "a[b]/c")

        owner = threading.Thread(target=ask, args=("owner",))
        owner.start()
        assert compiling.wait(10)
        waiter = threading.Thread(target=ask, args=("waiter",))
        waiter.start()
        time.sleep(0.1)  # let the waiter reach the owner's gate
        go.set()
        assert store.saving.wait(10)
        waiter.join(10)
        try:
            assert not waiter.is_alive(), "waiter queued behind store.save"
            assert store.saved == [] and owner.is_alive()
        finally:
            store.release.set()
            owner.join(10)
        assert not owner.is_alive()
        assert results["waiter"] is results["owner"]
        assert len(store.saved) == 1
        assert cache.stats.misses == 1

    def test_a_failing_save_leaves_the_key_resolvable(self):
        store = self.SlowStore(fail=True)
        cache = PlanCache(4, store=store)
        with pytest.raises(RuntimeError):
            cache.plan(None, "a[b]/c")
        plan = cache.plan(None, "a[b]/c")  # published before the save
        assert plan.artifact is not None
        assert cache.stats.misses == 1 and cache.stats.hits == 1


class TestComposedCache:
    """What is ``ComposedCache``'s own on top of the shared LRU: the
    member-identity staleness test."""

    KEYS = ((None, "q0", 3), (None, "q1", 3))

    @staticmethod
    def members():
        from repro.hype.api import to_mfa
        from repro.hype.core import CompiledPlan

        return [CompiledPlan(to_mfa(query)) for query in ("//a", "//a/b")]

    def test_recompiled_members_rebuild_the_kernel(self):
        """A plan the plan LRU evicted and recompiled is a new object
        under the same key: its kernel must not be served stale."""
        from repro.hype.api import HYPE
        from repro.serve.cache import ComposedCache

        cache = ComposedCache()
        first, recompiled = self.members(), self.members()
        kernel = cache.kernel_for(first, self.KEYS, HYPE)
        assert cache.kernel_for(first, self.KEYS, HYPE) is kernel
        rebuilt = cache.kernel_for(recompiled, self.KEYS, HYPE)
        assert rebuilt is not kernel and rebuilt.plans == recompiled
        assert cache.kernel_for(recompiled, self.KEYS, HYPE) is rebuilt
        stats = cache.stats
        assert (stats.builds, stats.hits, stats.evictions) == (2, 2, 0)
        assert len(cache) == 1 and cache.gauges()["kernels"] == 1


def _restricted_spec():
    from repro.dtd import hospital_dtd, hospital_view_dtd
    from repro.views.samples import SIGMA0_ANNOTATIONS
    from repro.views.spec import view_spec

    return view_spec(
        hospital_dtd(),
        hospital_view_dtd(),
        {**SIGMA0_ANNOTATIONS, ("patient", "parent"): "parent[not(.)]"},
    )


def _stage_counts(cache: PlanCache) -> dict:
    return {
        name: stage["count"]
        for name, stage in cache.compiler.metrics.snapshot().as_dict().items()
    }


class TestRawTextAlias:
    """A text seen before reaches its plan without being parsed: the
    alias table maps ``(view fingerprint, text as posed)`` to the plan
    key and the display text, holds no plan, and is never the reason a
    request is answered differently."""

    def test_a_hit_does_no_compile_stage_work(self, sigma0_spec):
        cache = PlanCache(capacity=4)
        plan, display = cache.lookup(sigma0_spec, "(patient)//record")
        before, stats = _stage_counts(cache), cache.stats
        for _ in range(5):
            assert cache.lookup(sigma0_spec, "(patient)//record") == (plan, display)
        assert _stage_counts(cache) == before
        assert cache.stats.hits == stats.hits + 5
        assert cache.stats.misses == stats.misses == 1

    def test_display_text_is_the_unparse_of_the_text_as_posed(self):
        from repro.xpath.parser import parse_query
        from repro.xpath.unparse import unparse

        cache = PlanCache(capacity=4)
        for text in ("a//b", "(a)/((*)*)/b", "a//b"):
            assert cache.lookup(None, text)[1] == unparse(parse_query(text))
        assert cache.lookup(None, parse_query("a//b"))[1] == unparse(
            parse_query("a//b")
        )

    def test_two_spellings_are_two_aliases_of_one_plan(self):
        cache = PlanCache(capacity=4)
        sugared = cache.plan(None, "a//b")
        desugared = cache.plan(None, normalized_query_text("a//b"))
        assert sugared is desugared
        assert len(cache._aliases) == 2 and len(cache) == 1
        stats = cache.stats
        assert (stats.misses, stats.hits) == (1, 1)

    def test_reregistering_a_view_name_never_serves_the_old_alias(
        self, hospital_doc, sigma0_spec
    ):
        from repro.serve.service import QueryService

        cache = PlanCache(capacity=8)
        with QueryService(hospital_doc, cache=cache) as service:
            service.register_view("research", sigma0_spec)
            service.register_tenant("institute", "research")
            opened = service.submit("institute", "patient/parent").ids()
            assert opened and service.submit("institute", "patient/parent").ids() == opened
            service.register_view("research", _restricted_spec())
            assert service.submit("institute", "patient/parent").ids() == []
            assert service.submit("institute", "patient/parent").ids() == []
            service.register_view("research", sigma0_spec)
            assert service.submit("institute", "patient/parent").ids() == opened

    def test_an_alias_outliving_its_plan_recompiles_and_counts_a_miss(self):
        from repro.xpath.parser import parse_query

        cache = PlanCache(capacity=2)
        cache.plan(None, "a")
        cache.plan(None, "b")
        # An AST lookup writes no alias: 'a' loses its plan, not its alias.
        cache.plan(None, parse_query("c"))
        assert plan_key(None, "a") not in cache
        assert len(cache._aliases) == 2
        assert cache.stats.misses == 3
        cache.plan(None, "a")
        assert cache.stats.misses == 4 and plan_key(None, "a") in cache
        hits = cache.stats.hits
        cache.plan(None, "a")
        assert cache.stats.hits == hits + 1 and cache.stats.misses == 4

    def test_rejected_texts_are_rejected_every_time_and_leave_no_alias(self):
        from repro.compile.pipeline import QueryCompiler
        from repro.errors import QueryParseError, QueryTooComplexError
        from repro.guard import CompileBudget

        cache = PlanCache(
            capacity=4,
            compiler=QueryCompiler(budget=CompileBudget(max_ast_nodes=3)),
        )
        for _ in range(3):
            with pytest.raises(QueryParseError):
                cache.plan(None, "]][[")
            with pytest.raises(QueryTooComplexError):
                cache.plan(None, "a/b/c/d/e/f")
        assert len(cache._aliases) == 0 and len(cache) == 0
        assert cache.plan(None, "a") is cache.plan(None, "a")

    def test_the_table_is_bounded_at_the_plan_capacity(self, sigma0_spec):
        cache = PlanCache(capacity=8)
        for i in range(40):  # plan_churn: every text is new
            cache.plan(sigma0_spec, f"patient[record/diagnosis/text() = 'd{i}']")
            cache.plan(None, f"//x{i}")
            assert len(cache._aliases) <= 8 and len(cache) <= 8
        assert cache.stats.hits == 0 and cache.stats.misses == 80

    def test_an_alias_does_not_keep_its_plan_alive(self):
        import gc
        import weakref

        from repro.xpath.parser import parse_query

        cache = PlanCache(capacity=1)
        gc.collect()
        gc.disable()
        try:
            ref = weakref.ref(cache.plan(None, "a/b"))
            assert ref() is not None
            cache.plan(None, parse_query("c"))  # evicts the plan, not the alias
            assert len(cache._aliases) == 1
            assert ref() is None
        finally:
            gc.enable()

    def test_invalidation_releases_the_aliases_too(self, sigma0_spec):
        cache = PlanCache(capacity=8)
        cache.plan(sigma0_spec, "patient")
        cache.plan(None, "patient")
        assert cache.invalidate_view(sigma0_spec.fingerprint()) == 1
        assert len(cache._aliases) == 1
        assert cache.invalidate_view(None) == 1
        assert len(cache._aliases) == 0

    def test_a_hit_still_emits_the_plan_span_with_its_tier(self):
        from repro.obs.trace import Tracer

        cache = PlanCache(capacity=4)
        tracer = Tracer(sample_rate=1.0, slow_seconds=None)
        for _ in range(2):
            with tracer.trace("request"):
                cache.plan(None, "a/b")
        tiers = [
            span["attributes"]["tier"]
            for trace in tracer.store.recent(None)
            for span in trace["spans"]
            if span["name"] == "plan"
        ]
        assert sorted(tiers) == ["compile", "l1"]


def test_warm_requests_over_the_wire_record_no_compile_stage(
    hospital_doc, sigma0_spec
):
    """Compile-stage counters count compile work: N warm requests move
    ``cache.hits`` by N and nothing under ``compile``."""
    import asyncio

    from repro.serve.admission import AdmissionConfig
    from repro.serve.frontend import FrontendClient, QueryFrontend
    from repro.serve.service import QueryService

    queries = ["patient", "patient/record", "(patient)//diagnosis"]
    warm = 4

    async def scenario(service):
        frontend = QueryFrontend(service, AdmissionConfig(max_wave=1, max_wait=0.02))
        host, port = await frontend.start("127.0.0.1", 0)
        client = await FrontendClient.connect(host, port)
        try:
            cold = [await client.query("institute", q, limit=-1) for q in queries]
            before = (await client.metrics())["metrics"]
            replies = [
                await client.query("institute", q, limit=-1)
                for _ in range(warm)
                for q in queries
            ]
            return cold, before, replies, (await client.metrics())["metrics"]
        finally:
            await client.aclose()
            await frontend.close()

    with QueryService(hospital_doc) as service:
        service.register_view("research", sigma0_spec)
        service.register_tenant("institute", "research")
        cold, before, replies, after = asyncio.run(scenario(service))
    n = warm * len(queries)
    assert all(reply["ok"] for reply in replies)
    assert [r["ids"] for r in replies] == [r["ids"] for r in cold] * warm
    assert [r["query"] for r in replies] == [r["query"] for r in cold] * warm
    assert after["compile"] == before["compile"]
    assert before["compile"]["normalize"]["count"] == len(queries)
    assert after["cache"]["hits"] == before["cache"]["hits"] + n
    assert after["cache"]["misses"] == before["cache"]["misses"] == len(queries)
