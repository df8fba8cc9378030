"""Property-based differential tests (hypothesis).

These are the library's strongest correctness guarantees:

* every evaluator (compiled-MFA conceptual, two-pass, XQuery-sim) agrees
  with the reference set semantics on random documents × random ``Xreg``
  queries (HyPE, OptHyPE and OptHyPE-C: ``tests/test_lattice.py``);
* rewriting satisfies the paper's defining equation ``Q(σ(T)) = M(T) =
  Q'(T)`` on random documents × random view queries for the recursive σ0
  and for randomly annotated views;
* structural properties: parser round trips, materialised views conform to
  the view DTD, pruning never changes answers, Theorem 5.1's size bound.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.automata import compile_query, conceptual_eval
from repro.baselines import TwoPassEvaluator, XQuerySimEvaluator
from repro.dtd import GeneratorConfig, generate_document
from repro.dtd.validate import conforms
from repro.rewrite import rewrite_query, rewrite_to_xreg
from repro.views import materialize
from repro.xpath import ast, evaluate, parse_query, unparse
from repro.xpath.normalize import canonical, simplify

from .strategies import SRC_DTD, VIEWS, paths, trees

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_ids(query, tree):
    return {n.node_id for n in evaluate(query, tree.root)}


class TestEvaluatorAgreement:
    @given(trees(), paths())
    @settings(max_examples=60, **COMMON)
    def test_conceptual_agrees(self, tree, query):
        expected = reference_ids(query, tree)
        got = conceptual_eval(compile_query(query), tree.root)
        assert {n.node_id for n in got} == expected

    @given(trees(max_depth=3), paths(max_leaves=6))
    @settings(max_examples=50, **COMMON)
    def test_baselines_agree(self, tree, query):
        expected = reference_ids(query, tree)
        assert {
            n.node_id for n in TwoPassEvaluator(compile_query(query)).run(tree)
        } == expected
        assert {
            n.node_id for n in XQuerySimEvaluator(query).run(tree)
        } == expected

    @given(trees(), paths())
    @settings(max_examples=50, **COMMON)
    def test_simplify_preserves_semantics(self, tree, query):
        assert reference_ids(query, tree) == reference_ids(
            simplify(query), tree
        )


class TestParserRoundTrip:
    @given(paths())
    @settings(max_examples=120, **COMMON)
    def test_unparse_parse_canonical(self, query):
        assert canonical(parse_query(unparse(query))) == canonical(query)

    @given(trees(), paths())
    @settings(max_examples=40, **COMMON)
    def test_round_trip_preserves_semantics(self, tree, query):
        reparsed = parse_query(unparse(query))
        assert reference_ids(query, tree) == reference_ids(reparsed, tree)


# ----------------------------------------------------------------------
# Rewriting properties over a family of random views
# ----------------------------------------------------------------------
def random_source(seed: int):
    return generate_document(
        SRC_DTD,
        GeneratorConfig(
            seed=seed,
            star_mean=1.4,
            max_depth=10,
            soft_depth=4,
            text_pools={"t": ["x", "y"]},
        ),
    )


VIEW_LABELS = ("p", "leaf")


def view_paths():
    from hypothesis import strategies as st

    atoms = st.one_of(
        st.sampled_from([ast.Label(label) for label in VIEW_LABELS]),
        st.just(ast.Wildcard()),
        st.just(ast.Empty()),
        st.just(ast.DescOrSelf()),
    )

    def view_filters(inner):
        base = st.one_of(
            st.builds(ast.Exists, inner),
            st.builds(ast.TextEquals, inner, st.sampled_from(("x", "y"))),
        )
        return st.recursive(
            base,
            lambda f: st.one_of(
                st.builds(ast.Not, f),
                st.builds(ast.And, f, f),
                st.builds(ast.Or, f, f),
            ),
            max_leaves=3,
        )

    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds(ast.Concat, inner, inner),
            st.builds(ast.Union, inner, inner),
            st.builds(ast.Star, inner),
            st.builds(ast.Filtered, inner, view_filters(inner)),
        ),
        max_leaves=6,
    )


class TestRewritingProperty:
    """The paper's defining equation for the direct (``Xreg``) rewriting;
    the MFA rewriting's is the lattice's (``tests/test_lattice.py``)."""

    @pytest.mark.parametrize("view_index", range(2))
    @given(query=view_paths())
    @settings(max_examples=15, **COMMON)
    def test_direct_rewriting(self, view_index, query):
        spec = VIEWS[view_index]
        source = random_source(seed=view_index + 1)
        view = materialize(spec, source)
        expected = {
            n.node_id for n in view.sources(evaluate(query, view.tree.root))
        }
        rewritten = rewrite_to_xreg(spec, query)
        got = {n.node_id for n in evaluate(rewritten, source.root)}
        assert got == expected, unparse(query)

    @given(query=view_paths())
    @settings(max_examples=25, **COMMON)
    def test_size_bound_theorem_51(self, query):
        spec = VIEWS[2]
        mfa = rewrite_query(spec, query)
        bound = 40 * max(query.size(), 1) * spec.size() * len(
            spec.view_dtd.productions
        )
        assert mfa.size() <= bound


class TestViewProperties:
    @pytest.mark.parametrize("view_index", range(len(VIEWS)))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_materialisation_conforms(self, view_index, seed):
        spec = VIEWS[view_index]
        view = materialize(spec, random_source(seed))
        assert conforms(view.tree, spec.view_dtd, strict_sequences=False)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_provenance_total(self, seed):
        spec = VIEWS[0]
        view = materialize(spec, random_source(seed))
        for node in view.tree.nodes:
            if node.is_element:
                assert node in view.provenance
