"""Subtree-label index and viability-analysis tests (OptHyPE machinery).

Label → bit lives on the label table (``index.table.bit_of``), per-node
masks are the ``index.masks`` column, and an index is built by
``build_index`` (its classes are constructed from a swept column).
"""

import pytest

from repro.automata import compile_query
from repro.hype import (
    CompressedLabelIndex,
    CompiledPlan,
    SubtreeLabelIndex,
    ViabilityAnalyzer,
    build_index,
)
from repro.xpath import evaluate, parse_query
from repro.xtree import parse_xml

TREE = parse_xml(
    """
    <r>
      <a><b>x</b></a>
      <c><d/><d/></c>
      <a><c><b>y</b></c></a>
    </r>
    """
)


class TestIndexes:
    def test_masks_cover_strict_descendants(self):
        index = build_index(TREE)
        bit_of = index.table.bit_of
        root_mask = index.masks[TREE.root.node_id]
        for label in ("a", "b", "c", "d"):
            assert root_mask & bit_of[label]
        assert not root_mask & bit_of["r"]

    def test_leaf_mask_empty(self):
        index = build_index(TREE)
        for node in TREE.nodes:
            if node.is_element and not node.children:
                assert index.masks[node.node_id] == 0

    def test_text_marker_bit(self):
        index = build_index(TREE)
        text_bit = index.table.bit_of["#text"]
        a_first = TREE.root.element_children()[0]
        assert index.masks[a_first.node_id] & text_bit
        c_node = TREE.root.element_children()[1]
        assert not index.masks[c_node.node_id] & text_bit

    def test_compressed_equals_plain(self):
        plain = build_index(TREE)
        compressed = build_index(TREE, compressed=True)
        assert plain.table is compressed.table
        assert plain.masks == compressed.masks

    def test_compressed_is_smaller_on_repetitive_docs(self):
        from repro.workloads import HospitalConfig, generate_hospital_document

        doc = generate_hospital_document(HospitalConfig(num_patients=40, seed=3))
        plain = build_index(doc)
        compressed = build_index(doc, compressed=True)
        assert compressed.distinct_masks() == plain.distinct_masks()
        assert compressed.distinct_masks() < doc.size / 10
        # The interned masks moved from the index to its label table,
        # which every document of the label set shares: a second
        # same-DTD document is keyed by ids the first already minted.
        interned = len(compressed.table.masks)
        assert compressed.distinct_masks() <= interned < doc.size / 10
        assert max(compressed.mask_keys) < interned
        other = generate_hospital_document(HospitalConfig(num_patients=40, seed=4))
        again = build_index(other, compressed=True)
        assert again.table is compressed.table
        assert len(again.table.masks) < interned + again.distinct_masks()

    def test_build_index_dispatch(self):
        assert isinstance(build_index(TREE), SubtreeLabelIndex)
        assert isinstance(build_index(TREE, compressed=True), CompressedLabelIndex)

    def test_mask_id_stability(self):
        compressed = build_index(TREE, compressed=True)
        leaf_ids = {
            compressed.mask_keys[n.node_id]
            for n in TREE.nodes
            if n.is_element and not n.children
        }
        assert len(leaf_ids) == 1  # all childless elements share mask 0


class TestViability:
    def test_unreachable_label_kills_nfa(self):
        mfa = compile_query(parse_query("//b"))
        index = build_index(TREE)
        analyzer = ViabilityAnalyzer(mfa, index.table.bit_of)
        # The <c><d/><d/></c> subtree has no b anywhere: nothing viable
        # except final states already satisfied.
        c_node = TREE.root.element_children()[1]
        viable = analyzer.viable_nfa_states(index.masks[c_node.node_id])
        finals = mfa.nfa.finals
        assert viable <= frozenset(
            s for s in range(mfa.nfa.num_states) if s in finals
        ) | frozenset()

    def test_afa_possibly_true_requires_labels(self):
        mfa = compile_query(parse_query(".[x/y]"))
        index = build_index(TREE)
        analyzer = ViabilityAnalyzer(mfa, index.table.bit_of)
        possible = analyzer.afa_possibly_true(index.masks[TREE.root.node_id])
        entry = next(iter(mfa.nfa.ann.values()))
        assert possible[entry] is False  # no x labels in the document

    def test_text_predicate_needs_text_bit(self):
        mfa = compile_query(parse_query(".[d/text() = 'v']"))
        index = build_index(TREE)
        analyzer = ViabilityAnalyzer(mfa, index.table.bit_of)
        c_node = TREE.root.element_children()[1]  # d children but no text
        possible = analyzer.afa_possibly_true(index.masks[c_node.node_id])
        entry = next(iter(mfa.nfa.ann.values()))
        assert possible[entry] is False

    def test_not_is_conservative(self):
        mfa = compile_query(parse_query(".[not(zzz)]"))
        index = build_index(TREE)
        analyzer = ViabilityAnalyzer(mfa, index.table.bit_of)
        possible = analyzer.afa_possibly_true(0)
        entry = next(iter(mfa.nfa.ann.values()))
        assert possible[entry] is True

    def test_caches_by_mask(self):
        mfa = compile_query(parse_query("//b"))
        index = build_index(TREE)
        analyzer = ViabilityAnalyzer(mfa, index.table.bit_of)
        first = analyzer.viable_nfa_states(index.masks[0])
        second = analyzer.viable_nfa_states(index.masks[0])
        assert first is second


class TestOptHyPECorrectness:
    QUERIES = [
        "//b",
        "a/b",
        "a[b/text() = 'y']",
        "a[not(b)]",
        "c/d",
        "(a | c)*/b",
        "a[.//b]",
    ]

    @pytest.mark.parametrize("source", QUERIES)
    @pytest.mark.parametrize("compressed", [False, True])
    def test_matches_reference(self, source, compressed):
        query = parse_query(source)
        expected = {n.node_id for n in evaluate(query, TREE.root)}
        index = build_index(TREE, compressed=compressed)
        result = CompiledPlan(compile_query(query), index=index).run(TREE.root)
        assert {n.node_id for n in result.answers} == expected

    def test_index_prunes_more_than_plain(self):
        query = parse_query("//b[text() = 'zzz']")
        mfa = compile_query(query)
        plain = CompiledPlan(mfa).run(TREE.root)
        index = build_index(TREE)  # held: it keeps the plan's label table alive
        opt = CompiledPlan(mfa, index=index).run(TREE.root)
        assert opt.stats.visited_elements <= plain.stats.visited_elements
        assert opt.answers == plain.answers == set()

    def test_regression_gate_blocked_epsilon_path(self):
        """A viable final state reachable only through an impassable gate
        must not survive index filtering (the restricted-closure fix)."""
        tree = parse_xml("<a><b><b>x<a>x</a></b><b/></b><a/></a>")
        query = parse_query("(a[a[a/text() = 'x']])*")
        expected = {n.node_id for n in evaluate(query, tree.root)}
        index = build_index(tree)
        result = CompiledPlan(compile_query(query), index=index).run(tree.root)
        assert {n.node_id for n in result.answers} == expected
