"""Fragment analysis and builder-DSL tests."""

import pytest

from repro.errors import FragmentError
from repro.xpath import (
    ast,
    classify,
    in_x_fragment,
    parse_query,
    require_x,
    to_xreg,
    unparse,
)
from repro.xpath.builders import (
    and_,
    exists,
    filt,
    label,
    or_,
    path,
    predicate,
    seq,
    star,
    txt_eq,
    union,
)


class TestFragment:
    def test_x_fragment_membership(self):
        assert in_x_fragment(parse_query("a//b[c]"))
        assert not in_x_fragment(parse_query("(a/b)*"))

    def test_star_in_filter_is_xreg(self):
        assert classify(parse_query("a[(b/c)*/d]")) == "Xreg"

    def test_classify(self):
        assert classify(parse_query("a//b")) == "X"
        assert classify(parse_query("a*")) == "Xreg"

    def test_require_x_passes(self):
        q = parse_query("a//b")
        assert require_x(q) is q

    def test_require_x_rejects(self):
        with pytest.raises(FragmentError):
            require_x(parse_query("a*"))

    def test_to_xreg_removes_descendant(self):
        q = to_xreg(parse_query("a//b"))
        assert not ast.contains_desc_or_self(q)

    def test_desugared_query_equivalent(self):
        from repro.xpath import evaluate
        from repro.xtree import parse_xml

        tree = parse_xml("<r><a><x><b/></x></a><b/></r>")
        q = parse_query("//b")
        assert {n.node_id for n in evaluate(q, tree.root)} == {
            n.node_id for n in evaluate(to_xreg(q), tree.root)
        }


class TestBuilders:
    def test_path_coercions(self):
        assert path("a") == ast.Label("a")
        assert path("*") == ast.Wildcard()
        assert path(".") == ast.Empty()
        assert path("//") == ast.DescOrSelf()
        assert path(ast.Label("z")) == ast.Label("z")

    def test_seq_builds_left_assoc(self):
        assert seq("a", "b", "c") == parse_query("a/b/c")

    def test_seq_empty_is_epsilon(self):
        assert seq() == ast.Empty()

    def test_union_matches_parser(self):
        assert union("a", "b", "c") == parse_query("a | b | c")

    def test_union_requires_operand(self):
        with pytest.raises(ValueError):
            union()

    def test_filt_and_predicate_coercion(self):
        assert filt("a", "b") == parse_query("a[b]")
        assert predicate("b") == exists(label("b"))

    def test_txt_eq(self):
        assert filt("a", txt_eq(seq("b", "c"), "v")) == parse_query(
            "a[b/c/text() = 'v']"
        )

    def test_boolean_builders(self):
        built = filt("a", or_(and_("b", "c"), ast.Not(exists("d"))))
        parsed = parse_query("a[b and c or not(d)]")
        assert built == parsed

    def test_star_builder(self):
        assert star(seq("a", "b")) == parse_query("(a/b)*")

    def test_builders_unparse_cleanly(self):
        q = filt(star(seq("a", "b")), exists(seq("c")))
        assert unparse(q) == "(a/b)*[c]"
