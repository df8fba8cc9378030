"""HyPE evaluation tests: correctness, stats, pruning, reuse."""

import pytest

from repro.automata import compile_query
from repro.hype import CompiledPlan, build_index, evaluate_hype, hype_eval
from repro.xpath import evaluate, parse_query
from repro.xtree import parse_xml

TREE = parse_xml(
    """
    <r>
      <a><b>x</b><c><b>y</b></c></a>
      <a><b>y</b></a>
      <d><a><b>x</b></a></d>
      <e><f/><f/></e>
    </r>
    """
)

QUERIES = [
    ".",
    "a",
    "a/b",
    "//b",
    "(a)*",
    "a[b]",
    "a[b/text() = 'y']",
    "a[not(c)]",
    "a[b and c]",
    "a[c or b/text() = 'y']",
    "a[.//b/text() = 'y']",
    "a[c[b]]",
    "d/a[b]/b",
    "a[b]*",
    ".[a]",
    "e/f",
    "a[b/text() = 'nomatch']",
]


@pytest.mark.parametrize("source", QUERIES)
def test_hype_matches_reference(source):
    query = parse_query(source)
    expected = {n.node_id for n in evaluate(query, TREE.root)}
    result = hype_eval(compile_query(query), TREE.root)
    assert {n.node_id for n in result.answers} == expected


@pytest.mark.parametrize("source", QUERIES)
def test_warm_runs_stable(source):
    evaluator = CompiledPlan(compile_query(parse_query(source)))
    first = {n.node_id for n in evaluator.run(TREE.root).answers}
    for _ in range(3):
        assert {n.node_id for n in evaluator.run(TREE.root).answers} == first


class TestStats:
    def test_visited_plus_skipped_covers_elements(self):
        result = hype_eval(compile_query(parse_query("a/b")), TREE.root)
        stats = result.stats
        assert stats.visited_elements >= 1
        # pruning: the <e> and <d> subtrees are skipped after their roots.
        assert stats.visited_elements < TREE.element_count

    def test_full_scan_on_descendant_query(self):
        result = hype_eval(compile_query(parse_query("//b")), TREE.root)
        assert result.stats.visited_elements == TREE.element_count

    def test_answers_counter(self):
        result = hype_eval(compile_query(parse_query("a")), TREE.root)
        assert result.stats.answers == len(result.answers) == 2

    def test_gate_failures_recorded(self):
        result = hype_eval(
            compile_query(parse_query("a[b/text() = 'nomatch']")), TREE.root
        )
        assert result.stats.gate_failures >= 1
        assert result.answers == set()

    def test_no_gate_failures_without_filters(self):
        result = hype_eval(compile_query(parse_query("a/b")), TREE.root)
        assert result.stats.gate_failures == 0

    def test_cans_vertices_counted(self):
        result = hype_eval(compile_query(parse_query("a")), TREE.root)
        assert result.stats.cans_vertices >= result.stats.visited_elements


class TestPruning:
    def test_prunes_irrelevant_subtrees(self):
        # Query touching only <e>: the <a>/<d> subtrees are never entered.
        result = hype_eval(compile_query(parse_query("e/f")), TREE.root)
        assert result.stats.skipped_subtrees >= 3

    def test_pruned_results_equal_unpruned(self):
        for source in QUERIES:
            query = parse_query(source)
            expected = {n.node_id for n in evaluate(query, TREE.root)}
            got = {
                n.node_id
                for n in hype_eval(compile_query(query), TREE.root).answers
            }
            assert got == expected, source


class TestEvaluatorReuse:
    def test_same_mfa_many_documents(self):
        evaluator = CompiledPlan(compile_query(parse_query("a[b]")))
        other = parse_xml("<r><a><b/></a></r>")
        assert len(evaluator.run(TREE.root).answers) == 2
        assert len(evaluator.run(other.root).answers) == 1
        assert len(evaluator.run(TREE.root).answers) == 2

    def test_context_node_evaluation(self):
        (d_node,) = evaluate(parse_query("d"), TREE.root)
        result = hype_eval(compile_query(parse_query("a/b")), d_node)
        assert len(result.answers) == 1


class TestDeathPropagation:
    """Gate failures must sever exactly the runs through the failed state."""

    def test_failed_gate_blocks_continuation(self):
        tree = parse_xml("<r><a><c/></a><a><b/><c/></a></r>")
        query = parse_query("a[b]/c")
        expected = {n.node_id for n in evaluate(query, tree.root)}
        got = {n.node_id for n in hype_eval(compile_query(query), tree.root).answers}
        assert got == expected
        assert len(got) == 1

    def test_star_with_failing_iterations(self):
        tree = parse_xml(
            "<r><a><ok/><a><a><ok/></a></a></a></r>"
        )
        query = parse_query("(a[ok])*")
        expected = {n.node_id for n in evaluate(query, tree.root)}
        got = {n.node_id for n in hype_eval(compile_query(query), tree.root).answers}
        assert got == expected

    def test_root_gate_failure(self):
        query = parse_query(".[zzz]/a")
        got = hype_eval(compile_query(query), TREE.root).answers
        assert got == set()

    def test_root_gate_success(self):
        query = parse_query(".[a]/a")
        got = hype_eval(compile_query(query), TREE.root).answers
        assert len(got) == 2
