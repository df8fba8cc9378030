"""Reference-evaluator semantics tests, construct by construct."""

import pytest

from repro.xpath import evaluate, holds, parse_filter, parse_query
from repro.xtree import parse_xml

TREE = parse_xml(
    """
    <r>
      <a><b>x</b><c><b>y</b></c></a>
      <a><b>y</b></a>
      <d><a><b>x</b></a></d>
    </r>
    """
)


def run(query: str, context=None) -> set[int]:
    node = context if context is not None else TREE.root
    return {n.node_id for n in evaluate(parse_query(query), node)}


def labels_of(ids: set[int]) -> list[str]:
    return sorted(TREE.node(i).label for i in ids)


class TestSteps:
    def test_empty_path_is_self(self):
        assert run(".") == {TREE.root.node_id}

    def test_label_step(self):
        assert labels_of(run("a")) == ["a", "a"]

    def test_label_step_misses_grandchildren(self):
        assert all(TREE.node(i).parent is TREE.root for i in run("a"))

    def test_wildcard(self):
        assert labels_of(run("*")) == ["a", "a", "d"]

    def test_wildcard_skips_text_nodes(self):
        a = sorted(run("a"))[0]
        assert labels_of(run("*", TREE.node(a))) == ["b", "c"]

    def test_concat(self):
        assert labels_of(run("a/b")) == ["b", "b"]

    def test_union(self):
        assert labels_of(run("a | d")) == ["a", "a", "d"]

    def test_descendant_or_self(self):
        assert len(run("//")) == TREE.element_count

    def test_descendant_then_label(self):
        assert labels_of(run("//b")) == ["b", "b", "b", "b"]

    def test_star_zero_iterations(self):
        assert TREE.root.node_id in run("(a)*")

    def test_star_closure(self):
        # a* from root: root, both a children (one hop); no a below them.
        assert run("a*") == {TREE.root.node_id} | run("a")

    def test_star_deep(self):
        tree = parse_xml("<a><a><a/></a></a>")
        assert len(evaluate(parse_query("a*"), tree.root)) == 3

    def test_evaluation_from_set_unions(self):
        from repro.xpath.evaluator import eval_path

        result = eval_path(parse_query("b"), evaluate(parse_query("a"), TREE.root))
        assert sorted(n.label for n in result) == ["b", "b"]


class TestFilters:
    def test_existence(self):
        assert labels_of(run("a[c]")) == ["a"]

    def test_text_equals(self):
        assert len(run("a[b/text() = 'y']")) == 1

    def test_text_equals_no_match(self):
        assert run("a[b/text() = 'zzz']") == set()

    def test_not(self):
        assert len(run("a[not(c)]")) == 1

    def test_and(self):
        assert len(run("a[b and c]")) == 1

    def test_or(self):
        assert len(run("a[c or b/text() = 'y']")) == 2

    def test_filter_with_descendant(self):
        assert len(run("a[.//b/text() = 'y']")) == 2

    def test_nested_filter(self):
        assert labels_of(run("a[c[b]]")) == ["a"]

    def test_filter_on_self(self):
        assert run(".[a]") == {TREE.root.node_id}
        assert run(".[zzz]") == set()

    def test_holds_direct(self):
        assert holds(parse_filter("a/b"), TREE.root)
        assert not holds(parse_filter("not(a)"), TREE.root)

    def test_star_inside_filter(self):
        tree = parse_xml(
            "<h><p><q><p><m>hit</m></p></q></p></h>"
        )
        q = parse_query("p[(q/p)*/m/text() = 'hit']")
        assert len(evaluate(q, tree.root)) == 1


class TestEdgeCases:
    def test_unknown_label_empty(self):
        assert run("nothing") == set()

    def test_text_of_multiple_text_children(self):
        tree = parse_xml("<a>one<x/></a>")  # an element kid: text unchanged
        assert evaluate(parse_query(".[text() = 'one']"), tree.root)

    def test_filter_applies_to_end_nodes_only(self):
        # a[b]/c: the filter constrains a, not c.
        tree = parse_xml("<r><a><b/><c/></a><a><c/></a></r>")
        q = parse_query("a[b]/c")
        assert len(evaluate(q, tree.root)) == 1

    def test_star_of_union(self):
        tree = parse_xml("<r><a><b><a/></b></a></r>")
        q = parse_query("(a | b)*")
        assert len(evaluate(q, tree.root)) == 4  # r, a, b, inner a

    def test_result_is_set_not_multiset(self):
        # Two distinct derivations of the same node count once.
        tree = parse_xml("<r><a/></r>")
        q = parse_query("a | a")
        assert len(evaluate(q, tree.root)) == 1
