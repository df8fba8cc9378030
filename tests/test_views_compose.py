"""View composition tests (views of views, collapsed via rewriting)."""

import pytest

from repro.dtd import GeneratorConfig, generate_document, parse_dtd
from repro.errors import ViewError
from repro.views import compose, materialize, view_spec
from repro.xpath import evaluate, parse_query

SRC = parse_dtd(
    """
    root s
    s -> x*
    x -> x*, t*
    t -> #PCDATA
    """
)

V1 = parse_dtd(
    """
    root v
    v -> p*
    p -> p*, leaf*
    leaf -> #PCDATA
    """
)

V2 = parse_dtd(
    """
    root w
    w -> item*
    item -> #PCDATA
    """
)


def sigma1():
    return view_spec(
        SRC, V1, {("v", "p"): "x", ("p", "p"): "x", ("p", "leaf"): "t"}
    )


def sigma2(annotation="(p)*/leaf"):
    return view_spec(V1, V2, {("w", "item"): annotation})


def source_doc(seed=5):
    return generate_document(
        SRC,
        GeneratorConfig(
            seed=seed,
            star_mean=1.7,
            max_depth=8,
            soft_depth=3,
            text_pools={"t": ["u", "v", "w"]},
        ),
    )


class TestCompose:
    @pytest.mark.parametrize(
        "annotation",
        [
            "(p)*/leaf",
            "p/leaf",
            "p[leaf/text() = 'u']/leaf",
            "p/p/leaf | p/leaf",
        ],
    )
    @pytest.mark.parametrize("seed", [5, 6])
    def test_composed_equals_two_step(self, annotation, seed):
        s1, s2 = sigma1(), sigma2(annotation)
        composed = compose(s2, s1)
        doc = source_doc(seed)
        two_step = materialize(s2, materialize(s1, doc).tree)
        one_step = materialize(composed, doc)
        two = sorted(n.text() for n in two_step.tree.root.element_children())
        one = sorted(n.text() for n in one_step.tree.root.element_children())
        assert one == two

    def test_composed_provenance_points_to_source(self):
        composed = compose(sigma2(), sigma1())
        doc = source_doc()
        view = materialize(composed, doc)
        for node in view.tree.root.element_children():
            assert view.provenance[node].label == "t"

    def test_composed_spec_is_queryable_via_rewriting(self):
        """The composed view feeds straight back into the MFA rewriter."""
        from repro.hype import evaluate_hype
        from repro.rewrite import rewrite_query

        composed = compose(sigma2(), sigma1())
        doc = source_doc()
        query = parse_query("item[text() = 'u']")
        view = materialize(composed, doc)
        expected = {
            n.node_id for n in view.sources(evaluate(query, view.tree.root))
        }
        mfa = rewrite_query(composed, query)
        got = {n.node_id for n in evaluate_hype(mfa, doc).answers}
        assert got == expected

    def test_non_chaining_views_rejected(self):
        with pytest.raises(ViewError, match="do not chain"):
            compose(sigma1(), sigma1())

    def test_ambiguous_context_rejected(self):
        # A V2 type whose contexts can be both 'p' and 'leaf' typed.
        ambiguous = view_spec(V1, V2, {("w", "item"): "p | p/leaf"})
        with pytest.raises(ViewError, match="ambiguous"):
            compose(ambiguous, sigma1())

    def test_unsatisfiable_annotation_becomes_empty(self):
        # 'leaf/leaf' is well-typed but unsatisfiable: leaf has no children.
        dead = view_spec(V1, V2, {("w", "item"): "leaf/leaf"})
        composed = compose(dead, sigma1())
        view = materialize(composed, source_doc())
        assert view.tree.root.element_children() == []
