"""Gene-Ontology-style workload tests: a second recursion shape end-to-end."""

import pytest

from repro.dtd import is_recursive, recursive_types, validate
from repro.hype import evaluate_hype
from repro.rewrite import rewrite_query, rewrite_to_xreg
from repro.views import materialize
from repro.workloads import (
    curated_view,
    generate_ontology_document,
    ontology_dtd,
)
from repro.xpath import evaluate, parse_query


@pytest.fixture(scope="module")
def onto_doc():
    return generate_ontology_document(num_terms=25, seed=4)


class TestWorkload:
    def test_dtd_recursive_on_two_axes(self):
        dtd = ontology_dtd()
        assert is_recursive(dtd)
        assert {"term", "isa", "partof"} <= recursive_types(dtd)

    def test_generated_document_conforms(self, onto_doc):
        validate(onto_doc, ontology_dtd())

    def test_deterministic(self):
        a = generate_ontology_document(num_terms=6, seed=1)
        b = generate_ontology_document(num_terms=6, seed=1)
        assert [n.label for n in a.nodes] == [n.label for n in b.nodes]

    def test_multi_axis_regular_xpath(self, onto_doc):
        """Closure over both recursion axes at once."""
        query = parse_query("term/((isa | partof)/term)*/tname")
        names = evaluate(query, onto_doc.root)
        assert names
        hype = evaluate_hype(query, onto_doc).answers
        assert {n.node_id for n in hype} == {n.node_id for n in names}


class TestCuratedView:
    def test_view_materialises(self, onto_doc):
        view = materialize(curated_view(), onto_doc)
        labels = {n.label for n in view.tree.nodes if n.is_element}
        assert labels <= {"ontology", "cterm", "label"}

    def test_only_exp_evidence_exposed(self, onto_doc):
        view = materialize(curated_view(), onto_doc)
        for cterm in evaluate(parse_query("//cterm"), view.tree.root):
            source = view.provenance[cterm]
            codes = {
                c.text()
                for e in source.children
                if e.label == "evidence"
                for c in e.children
                if c.label == "code"
            }
            assert "EXP" in codes

    def test_rewriting_over_ontology_view(self, onto_doc):
        spec = curated_view()
        query = parse_query("(cterm)*/cterm[label]")
        view = materialize(spec, onto_doc)
        expected = {
            n.node_id for n in view.sources(evaluate(query, view.tree.root))
        }
        mfa = rewrite_query(spec, query)
        got = {n.node_id for n in evaluate_hype(mfa, onto_doc).answers}
        assert got == expected

    def test_direct_rewriting_over_ontology_view(self, onto_doc):
        spec = curated_view()
        query = parse_query("cterm/cterm/label")
        view = materialize(spec, onto_doc)
        expected = {
            n.node_id for n in view.sources(evaluate(query, view.tree.root))
        }
        rewritten = rewrite_to_xreg(spec, query)
        got = {n.node_id for n in evaluate(rewritten, onto_doc.root)}
        assert got == expected

    def test_partof_branches_hidden(self, onto_doc):
        """The curated view follows only the is-a axis: no exposed term
        lies inside a partof branch."""
        spec = curated_view()
        view = materialize(spec, onto_doc)
        for source in view.provenance.values():
            if source.label == "term":
                ancestors = {a.label for a in source.iter_ancestors()}
                assert "partof" not in ancestors
