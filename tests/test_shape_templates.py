"""The plan cache's shape tier (``repro.compile.shape``).

A query with a non-empty literal is instantiated from its shape's
template — compiled once, from the shape, with slot sentinels — and the
instance must be a fresh compile byte for byte: ``to_bytes()``, the
closure tables (:func:`tests.oracle.closure_tables`) and ``mfa.size()``,
whatever literals the template was first asked for.
Beside the property: the unit behaviour of ``shape_of``, the tier's
counters and tier label, a failing template, a view annotation whose
literal reads like a sentinel, and the quoting that keeps two queries
off one key.
"""

from __future__ import annotations

import gzip
import json

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from repro.compile import (
    FORMAT_VERSION,
    INSTANTIATE,
    REWRITE,
    PlanStore,
    QueryCompiler,
    Slot,
    shape_of,
)
from repro.errors import QuerySyntaxError, QueryTooComplexError, RewriteError
from repro.guard import CompileBudget
from repro.obs.trace import Tracer
from repro.serve.cache import PlanCache
from repro.serve.service import QueryService
from repro.views import sigma0
from repro.xpath import ast
from repro.xpath.parser import parse_query
from repro.xpath.unparse import unparse

from .oracle import closure_tables, reference
from .strategies import CHURN, LABELS, VIEWS, make_view, other_literals, paths

COMPILER = QueryCompiler()
SIGMA0 = sigma0()
#: σ0's own literal, which the churn queries use too.
HEART = "heart disease"
#: Literals: empty, σ0's, repeats (a small alphabet), both quote
#: characters, and a sentinel's own text.
LITERALS = ("", "x", HEART, "x'y", 'x"y', "$0", "$1")
#: A view with a literal of its own (and one that reads like a sentinel).
LITERAL_VIEW = make_view("a[t/text() = 'x']", "t | b[t/text() = '$0']/t")
SPECS = (
    (None, LABELS),
    (SIGMA0, tuple(sorted(SIGMA0.view_dtd.productions))),
    (VIEWS[1], ("p", "leaf")),
    (LITERAL_VIEW, ("p", "leaf")),
)


def fresh(spec, query):
    return COMPILER.compile(spec, query)


def assert_fresh(artifact, expected) -> None:
    """``artifact`` is the fresh compile ``expected`` byte for byte, and
    its closure is the fresh compile's (a decoded one is closed here)."""
    assert artifact.to_bytes() == expected.to_bytes()
    assert closure_tables(artifact.closed()) == closure_tables(expected.closure)


@st.composite
def spec_and_query(draw):
    spec, labels = draw(st.sampled_from(SPECS))
    return spec, draw(paths(max_leaves=6, labels=labels, texts=LITERALS))


class TestInstancesAreFreshCompiles:
    @given(case=spec_and_query())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_an_instance_equals_a_fresh_compile(self, case):
        spec, query = case
        try:
            expected = fresh(spec, query)
        except QueryTooComplexError:
            reject()
        cache = PlanCache(8)
        cache.plan(spec, other_literals(query))  # the template's first use
        before = cache.stats
        plan = cache.plan(spec, query)
        after = cache.stats
        assert_fresh(plan.artifact, expected)
        assert plan.mfa.size() == expected.mfa.size()
        assert plan.artifact.cache_key() == expected.cache_key()
        _shape, literals = shape_of(COMPILER.normalize(query))
        if literals:  # a miss, served by the template
            assert after.misses == before.misses + 1
            assert after.shape_hits == before.shape_hits + 1
        else:  # the same query: an L1 hit
            assert after.hits == before.hits + 1

    @pytest.mark.parametrize("query", CHURN)
    def test_the_churn_templates(self, query):
        cache = PlanCache(4)
        parsed = parse_query(query)
        cache.plan(SIGMA0, other_literals(parsed))
        plan = cache.plan(SIGMA0, query)
        expected = fresh(SIGMA0, query)
        assert cache.stats.shape_hits == 1
        assert_fresh(plan.artifact, expected)
        assert plan.mfa.size() == expected.mfa.size()


class TestShapeOf:
    def shape(self, text):
        return shape_of(COMPILER.normalize(text))

    def test_literals_become_slots_in_text_order(self):
        shape, literals = self.shape("a[b[text() = 'x']/text() = 'y' or c/text() = 'z']")
        assert literals == ("x", "y", "z")
        assert shape.text == "a[b[text() = '$0']/text() = '$1' or c/text() = '$2']"
        values = [n.value for n in ast.iter_nodes(shape.ast) if isinstance(n, ast.TextEquals)]
        assert all(isinstance(value, Slot) for value in values)
        assert sorted(value.index for value in values) == [0, 1, 2]

    def test_equal_literals_share_a_slot(self):
        same, literals = self.shape("a[b/text() = 'x' or c/text() = 'x']")
        differ, _ = self.shape("a[b/text() = 'x' or c/text() = 'y']")
        assert literals == ("x",)
        assert same.text != differ.text

    def test_empty_literals_stay_inline(self):
        shape, literals = self.shape("a[b/text() = '' or c/text() = 'x']")
        assert literals == ("x",)
        assert shape.text == "a[b/text() = '' or c/text() = '$0']"

    def test_a_query_without_a_literal_is_its_own_shape(self):
        normalized = COMPILER.normalize("a[b/text() = '']/c")
        assert shape_of(normalized) == (normalized, ())

    def test_the_literals_do_not_matter(self):
        one, _ = self.shape(CHURN[0])
        other, _ = self.shape(CHURN[0].replace("'k7n1'", "\"q'9\""))
        assert one.text == other.text


class TestTheTier:
    def test_no_literal_bypasses_the_tier(self):
        cache = PlanCache(4)
        cache.plan(None, "a/b")
        cache.plan(None, "a[b/text() = '']")
        assert len(cache._templates) == 0
        assert cache.stats.shape_hits == 0

    def test_counters_tiers_and_stages(self):
        cache = PlanCache(8)
        tracer = Tracer(sample_rate=1.0, slow_seconds=None)
        for value in ("x", "y", "z"):
            with tracer.trace("request"):
                cache.plan(SIGMA0, f"patient[record/diagnosis/text() = '{value}']")
        tiers = [
            span["attributes"]["tier"]
            for trace in reversed(tracer.store.recent(None))
            for span in trace["spans"]
            if span["name"] == "plan"
        ]
        assert tiers == ["compile", "shape", "shape"]
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.shape_hits) == (0, 3, 2)
        stages = cache.compiler.metrics.snapshot()
        assert stages.stage(REWRITE).count == 1
        assert stages.stage(INSTANTIATE).count == 3

    def test_instances_are_written_back(self, tmp_path):
        store = PlanStore(tmp_path)
        cache = PlanCache(8, store=store)
        query = "patient[record/diagnosis/text() = 'x']"
        cache.plan(SIGMA0, query.replace("'x'", "'w'"))
        cache.plan(SIGMA0, query)
        assert cache.stats.shape_hits == 1 and store.stats.stores == 2
        warm = PlanCache(8, store=PlanStore(tmp_path))
        plan = warm.plan(SIGMA0, query)
        assert warm.stats.l2_hits == 1
        assert_fresh(plan.artifact, fresh(SIGMA0, query))

    def test_invalidation_drops_the_view_templates(self):
        cache = PlanCache(8)
        cache.plan(SIGMA0, "patient[record/diagnosis/text() = 'x']")
        cache.plan(None, "a[text() = 'x']")
        assert len(cache._templates) == 2
        cache.invalidate_view(SIGMA0.fingerprint())
        assert [key[0] for key, _ in cache._templates.items()] == [None]

    def test_a_template_that_raises_is_not_kept(self):
        """The template's rejection is not the tenant's: the query is
        compiled itself and raises its own error, naming its own text."""

        class Naming(QueryCompiler):
            def compile(self, spec, query):
                raise RewriteError(f"cannot rewrite {self.normalize(query).text}")

        cache = PlanCache(8, compiler=Naming())
        query = "patient[record/diagnosis/text() = 'x']"
        with pytest.raises(RewriteError) as raised:
            cache.plan(SIGMA0, query)
        assert str(raised.value) == f"cannot rewrite {COMPILER.normalize(query).text}"
        assert "$0" not in str(raised.value)
        assert len(cache._templates) == 0 and len(cache) == 0

    def test_a_template_over_budget_rejects_the_query(self):
        budget = CompileBudget(max_mfa_states=10)
        cache = PlanCache(8, compiler=QueryCompiler(budget=budget))
        with pytest.raises(QueryTooComplexError):
            cache.plan(SIGMA0, "patient[record/diagnosis/text() = 'x']")
        assert len(cache._templates) == 0


class TestSentinelsAreSlotsNotTexts:
    def test_a_sentinel_valued_annotation_is_never_substituted(self):
        """``LITERAL_VIEW`` annotates ``(p, leaf)`` with ``'$0'`` — slot
        0's sentinel text; the query's slot 0 is another final."""
        query = "p[leaf/text() = 'q']/leaf"
        cache = PlanCache(8)
        cache.plan(LITERAL_VIEW, query.replace("'q'", "'r'"))
        plan = cache.plan(LITERAL_VIEW, query)
        assert cache.stats.shape_hits == 1
        expected = fresh(LITERAL_VIEW, query)
        assert_fresh(plan.artifact, expected)
        texts = sorted(
            state.pred.value
            for state in plan.mfa.pool.states
            if state.pred is not None and hasattr(state.pred, "value")
        )
        assert "$0" in texts and "q" in texts and "r" not in texts
        assert not any(isinstance(text, Slot) for text in texts)

    def test_sigma0s_own_literal_is_a_literal_of_the_view(self):
        """σ0 compares against ``'heart disease'``; so does the query."""
        query = f"patient[record/diagnosis/text() = '{HEART}']"
        cache = PlanCache(8)
        cache.plan(SIGMA0, query.replace(HEART, "flu"))
        plan = cache.plan(SIGMA0, query)
        assert_fresh(plan.artifact, fresh(SIGMA0, query))


class TestQuotedLiterals:
    ONE = (
        "patient[record/diagnosis/text() = "
        "\"x' or record/diagnosis/text() = 'heart disease\"]"
    )
    TWO = (
        "patient[record/diagnosis/text() = 'x' or "
        "record/diagnosis/text() = 'heart disease']"
    )

    def test_a_literal_keeps_its_quotes(self):
        for literal in ("x'y", 'x"y'):
            node = ast.Filtered(ast.Label("a"), ast.TextEquals(ast.Empty(), literal))
            assert parse_query(unparse(node)) == node

    def test_a_literal_with_both_quotes_cannot_be_written(self):
        node = ast.Filtered(ast.Label("a"), ast.TextEquals(ast.Empty(), "x'\"y"))
        with pytest.raises(QuerySyntaxError):
            unparse(node)

    def test_two_queries_get_two_plans_and_their_own_answers(self, hospital_doc):
        assert parse_query(self.ONE) != parse_query(self.TWO)
        with QueryService(hospital_doc) as service:
            service.register_view("research", SIGMA0)
            service.register_tenant("institute", "research")
            answers = {q: service.submit("institute", q).ids() for q in (self.ONE, self.TWO)}
            assert service.cache.plan(SIGMA0, self.ONE) is not service.cache.plan(
                SIGMA0, self.TWO
            )
        for query, ids in answers.items():
            assert sorted(ids) == sorted(reference(SIGMA0, hospital_doc, parse_query(query)))
        assert answers[self.ONE] == [] and answers[self.TWO]

    def test_a_v4_store_file_is_swept(self, tmp_path):
        """v4 wrote both queries' texts alike: its files may hold the
        other query's plan, so they are never read and ``gc`` removes
        them."""
        store = PlanStore(tmp_path)
        artifact = fresh(SIGMA0, self.TWO)
        payload = json.loads(gzip.decompress(artifact.to_bytes()))
        payload["format_version"] = 4
        key = (artifact.view_fingerprint, artifact.normalized_query, 4)
        store.path_for(key).write_bytes(gzip.compress(json.dumps(payload).encode()))
        assert FORMAT_VERSION == 6
        assert store.load(artifact.cache_key()) is None
        assert store.gc() == 1 and len(store) == 0


def test_view_annotations_reach_the_builder_desugared():
    """The builder knows no ``//``: a view annotation is desugared when
    the view is built, a query when it is compiled or rewritten."""
    view = make_view("a//a", "t | .//t")
    assert not any(
        ast.contains_desc_or_self(annotation) for annotation in view.annotations.values()
    )
    assert fresh(view, "p//leaf").mfa.size() == fresh(view, "p/(*)*/leaf").mfa.size()
