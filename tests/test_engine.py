"""SMOQE engine integration tests."""

import pytest

from repro.engine import SMOQE
from repro.errors import ViewError
from repro.hype import HYPE, OPTHYPE, OPTHYPE_C
from repro.views import materialize, sigma0
from repro.xpath import evaluate, parse_query
from repro.xtree import serialize


class TestViews:
    def test_register_and_list(self, engine):
        assert engine.views() == ["research"]
        assert engine.view_spec("research").view_dtd.root == "hospital"

    def test_duplicate_registration_rejected(self, engine, sigma0_spec):
        with pytest.raises(ViewError, match="already registered"):
            engine.register_view("research", sigma0_spec)

    def test_unknown_view_rejected(self, engine):
        with pytest.raises(ViewError, match="unknown view"):
            engine.answer("nope", "patient")
        with pytest.raises(ViewError, match="unknown view"):
            engine.view_spec("nope")
        with pytest.raises(ViewError, match="unknown view"):
            engine.rewrite("nope", "patient")


class TestAnswering:
    def test_answer_equals_materialised_view(self, engine, hospital_doc, sigma0_spec):
        view = materialize(sigma0_spec, hospital_doc)
        for query_text in (
            "patient",
            "(patient/parent)*/patient",
            "patient[record/diagnosis/text() = 'heart disease']",
        ):
            query = parse_query(query_text)
            expected = {
                n.node_id
                for n in view.sources(evaluate(query, view.tree.root))
            }
            answer = engine.answer("research", query_text)
            assert set(answer.ids()) == expected, query_text

    def test_rewrite_cached(self, engine):
        first = engine.rewrite("research", "patient")
        second = engine.rewrite("research", "patient")
        assert first is second
        # whitespace-variant of the same query hits the same cache entry
        third = engine.rewrite("research", "patient ")
        assert third is first

    def test_answer_reports_metadata(self, engine):
        answer = engine.answer("research", "patient")
        assert answer.view == "research"
        assert answer.query_text == "patient"
        assert answer.algorithm == HYPE
        assert answer.mfa.size() > 0
        assert answer.stats.visited_elements > 0

    def test_bad_algorithm_rejected(self, engine):
        with pytest.raises(ValueError, match="unknown algorithm"):
            engine.answer("research", "patient", algorithm="warp")

    def test_default_algorithm_configurable(self, hospital_doc, sigma0_spec):
        engine = SMOQE(hospital_doc, default_algorithm=OPTHYPE)
        engine.register_view("v", sigma0_spec)
        assert engine.answer("v", "patient").algorithm == OPTHYPE

    def test_invalid_default_rejected(self, hospital_doc):
        with pytest.raises(ValueError):
            SMOQE(hospital_doc, default_algorithm="bogus")


class TestSecurityProperty:
    """Answers through the view never leak nodes outside the view."""

    def test_answers_subset_of_view_provenance(self, engine, hospital_doc, sigma0_spec):
        view = materialize(sigma0_spec, hospital_doc)
        visible = {source.node_id for source in view.provenance.values()}
        for query_text in ("patient", "//", "(patient/parent)*/patient[record]"):
            answer = engine.answer("research", query_text)
            assert set(answer.ids()) <= visible, query_text

    def test_hidden_siblings_never_returned(self, engine, hospital_doc):
        """Example 1.1's concern: '//' on the view must not reach siblings."""
        answer = engine.answer("research", "//")
        sibling_sources = set()
        for node in hospital_doc.nodes:
            if node.label == "sibling":
                sibling_sources.update(
                    d.node_id for d in node.iter_subtree()
                )
        assert not (set(answer.ids()) & sibling_sources)


class TestStandaloneEngine:
    def test_evaluate_regular_xpath(self, engine, hospital_doc):
        query = "department/patient/(parent/patient)*"
        expected = {
            n.node_id for n in evaluate(parse_query(query), hospital_doc.root)
        }
        answer = engine.evaluate(query)
        assert set(answer.ids()) == expected

    def test_evaluate_caches_compilation(self, engine):
        first = engine.evaluate("department")
        second = engine.evaluate("department")
        assert first.mfa is second.mfa

    def test_evaluate_with_opt_variants(self, engine):
        query = "//diagnosis"
        base = engine.evaluate(query, algorithm=HYPE).ids()
        assert engine.evaluate(query, algorithm=OPTHYPE).ids() == base
        assert engine.evaluate(query, algorithm=OPTHYPE_C).ids() == base
