"""Unparser and normalisation tests (incl. the round-trip property)."""

import pytest
from hypothesis import given, settings

from repro.xpath import (
    ast,
    canonical,
    canonical_filter,
    desugar,
    nullable,
    parse_query,
    simplify,
    unparse,
)
from repro.xpath.builders import (
    and_,
    empty,
    exists,
    filt,
    label,
    or_,
    seq,
    star,
    txt_eq,
    union,
    wildcard,
)
from repro.xpath.normalize import simplify_filter

from .strategies import paths


class TestUnparse:
    CASES = [
        "a",
        ".",
        "*",
        "a/b/c",
        "a | b",
        "a/b | c/d",
        "(a | b)/c",
        "(a/b)*",
        "a*",
        "**",
        "//a",
        "a//b",
        "a[b]",
        "a[b/text() = 'c']",
        "a[text() = 'c']",
        "a[not(b)]",
        "a[b and c]",
        "a[(b or c) and d]",
        "a[(b/c)*/d]",
        "a[b][c]",
        "(patient/parent)*/patient[(parent/patient)*/record/diagnosis/text() = 'heart disease']",
    ]

    @pytest.mark.parametrize("source", CASES)
    def test_round_trip_fixed(self, source):
        q = parse_query(source)
        assert canonical(parse_query(unparse(q))) == canonical(q)

    def test_unparse_filter(self):
        f = and_(exists(label("a")), txt_eq(label("b"), "v"))
        assert unparse(f) == "a and b/text() = 'v'"

    @given(paths())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, q):
        assert canonical(parse_query(unparse(q))) == canonical(q)


class TestCanonical:
    def test_reassociates_concat(self):
        right = ast.Concat(label("a"), ast.Concat(label("b"), label("c")))
        left = ast.Concat(ast.Concat(label("a"), label("b")), label("c"))
        assert canonical(right) == left

    def test_reassociates_union_in_filters(self):
        f = exists(ast.Union(label("a"), ast.Union(label("b"), label("c"))))
        g = exists(ast.Union(ast.Union(label("a"), label("b")), label("c")))
        assert canonical_filter(f) == canonical_filter(g)


class TestDesugar:
    def test_dos_becomes_star_wildcard(self):
        assert desugar(ast.DescOrSelf()) == star(wildcard())

    def test_nested_desugar(self):
        q = desugar(seq("a", "//", "b"))
        assert not ast.contains_desc_or_self(q)
        assert ast.contains_star(q)

    def test_desugar_inside_filters(self):
        q = desugar(filt("a", exists(seq("//", "b"))))
        assert not ast.contains_desc_or_self(q)


class TestNullable:
    @pytest.mark.parametrize(
        "query,expected",
        [
            (empty(), True),
            (label("a"), False),
            (wildcard(), False),
            (ast.DescOrSelf(), True),
            (star(label("a")), True),
            (seq("a", "b"), False),
            (ast.Concat(empty(), empty()), True),
            (union("a", "."), True),
            (filt(empty(), exists(label("a"))), True),
        ],
    )
    def test_cases(self, query, expected):
        assert nullable(query) is expected


class TestSimplify:
    def test_concat_empty_identity(self):
        assert simplify(seq(".", "a", ".")) == label("a")

    def test_union_idempotent(self):
        assert simplify(union("a", "a")) == label("a")

    def test_star_of_empty(self):
        assert simplify(star(empty())) == empty()

    def test_star_of_star(self):
        assert simplify(star(star(label("a")))) == star(label("a"))

    def test_star_absorbs_empty_alternative(self):
        assert simplify(star(union(".", "a"))) == star(label("a"))

    def test_star_of_all_empty_union(self):
        assert simplify(star(union(".", "."))) == empty()

    def test_double_negation(self):
        twice = ast.Not(ast.Not(exists(label("a"))))
        assert simplify_filter(twice) == exists(label("a"))

    def test_and_idempotent(self):
        f = exists(label("a"))
        assert simplify_filter(and_(f, f)) == f

    def test_simplify_preserves_semantics(self):
        from repro.xpath import evaluate
        from repro.xtree import parse_xml

        tree = parse_xml("<a><b>x</b><a><b>y</b></a></a>")
        q = parse_query("(. | a)*/b")
        simplified = simplify(q)
        assert {n.node_id for n in evaluate(q, tree.root)} == {
            n.node_id for n in evaluate(simplified, tree.root)
        }
