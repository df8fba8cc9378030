"""Phase 2 is candidate-driven: same answers as the full cans walk.

``CompiledPlan._collect_answers_py`` (and its compiled twin, which
``RunCursor.finish`` runs where it is built) recomputes alive sets only on the
chains from the candidates (visits with a final state in phase 1) up to
the root.  The walk it replaced — every visit, top-down — is kept here,
and only here, as the reference the property compares against.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.automata import compile_query
from repro.docstore import IndexedDocument
from repro.hype.compose import ComposedKernel, descend_composed
from repro.hype.core import CompiledPlan, RunCursor
from repro.hype.kernel import descend
from repro.xpath import evaluate, parse_query
from repro.xtree import parse_xml

from .strategies import gated_paths, trees

#: Per family, the index of an IndexedDocument a plan is compiled with
#: (asking parks the document's mask column on its layout).
FAMILIES = (
    lambda doc: None,
    lambda doc: doc.index_for(False),
    lambda doc: doc.index_for(True),
)


def full_walk(plan: CompiledPlan, cursor: RunCursor) -> set:
    """The pre-PR-21 phase 2: alive sets for the whole visit list (over
    node ids and the document's label column, as the descent records
    them now)."""
    nfa = plan.mfa.nfa
    label = cursor.layout.columns.label
    mstates_list = cursor.visit_mstates
    alive: list = [None] * len(cursor.visit_ids)
    answers = set()
    for i, node_id in enumerate(cursor.visit_ids):
        parent = cursor.visit_parents[i]
        phase1 = mstates_list[i]
        dead = cursor.deaths.get(i)
        if parent == -1:
            base = frozenset({nfa.start}) & phase1
        elif dead is None and alive[parent] is mstates_list[parent]:
            alive[i] = phase1
            if phase1 & nfa.finals:
                answers.add(node_id)
            continue
        else:
            base = frozenset(
                t for s in alive[parent] for t in nfa.step_targets(s, label[node_id])
            ) & phase1
        alive[i] = plan._closure_avoiding(base, dead, phase1)
        if alive[i] & nfa.finals:
            answers.add(node_id)
    return answers


def assert_matches_full_walk(plan, cursor):
    expected = full_walk(plan, cursor)
    result = cursor.finish()
    assert set(result.ids) == expected
    assert result.answers == {result.tree.nodes[i] for i in expected}
    assert result.stats.answers == len(expected)
    assert result.stats.gate_failures == len(cursor.deaths)
    assert result.stats.cans_vertices == sum(map(len, cursor.visit_mstates))


@given(trees(max_depth=3), st.lists(gated_paths(), min_size=2, max_size=3))
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_candidate_driven_equals_the_full_walk(tree, queries):
    """Documents x filter queries x 3 algorithms x lean / wave / composed."""
    doc = IndexedDocument(tree)
    layout = doc.layout
    for family in FAMILIES:
        index = family(doc)
        plans = [CompiledPlan(compile_query(q), index=index) for q in queries]

        def lean(lanes):
            for lane in lanes:
                descend([lane], tree.root, layout)

        def wave(lanes):
            descend(lanes, tree.root, layout)

        def composed(lanes):
            descend_composed(
                ComposedKernel(plans), [c for _p, c in lanes], tree.root, layout
            )

        for drive in (lean, wave, composed):
            lanes = [(plan, RunCursor(plan)) for plan in plans]
            drive(lanes)
            for plan, cursor in lanes:
                assert_matches_full_walk(plan, cursor)


# ----------------------------------------------------------------------
# Pinned by hand
# ----------------------------------------------------------------------
def run(query: str, xml: str):
    tree = parse_xml(xml)
    parsed = parse_query(query)
    plan = CompiledPlan(compile_query(parsed))
    cursor = RunCursor(plan)
    descend([(plan, cursor)], tree.root)
    expected = {n.node_id for n in evaluate(parsed, tree.root)}
    return plan, cursor, expected


def answer_ids(plan, cursor) -> set[int]:
    assert_matches_full_walk(plan, cursor)
    return set(cursor.finish().ids)


class CountingList(list):
    """A visit column that counts its reads."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_a_death_at_the_root_kills_every_candidate():
    plan, cursor, expected = run(".[zzz]/a", "<r><a/><a/><b/></r>")
    assert 0 in cursor.deaths and len(cursor.finals_seen) == 2
    assert answer_ids(plan, cursor) == expected == set()


def test_a_candidate_that_is_itself_dead():
    plan, cursor, expected = run("a[b]", "<r><a/><a><b/></a></r>")
    dead_candidates = set(cursor.finals_seen) & set(cursor.deaths)
    assert len(dead_candidates) == 1 and len(cursor.finals_seen) == 2
    assert answer_ids(plan, cursor) == expected and len(expected) == 1


def test_a_live_candidate_nested_under_a_dead_ancestor():
    """``(patient/parent)*/patient[...]``: the outer patient fails the
    gate, the path to the nested one runs through its ungated state."""
    plan, cursor, expected = run(
        "(a/b)*/a[x]", "<r><a><b><a><x/></a></b></a></r>"
    )
    nested = max(cursor.finals_seen)
    chain = []
    i = nested
    while i != -1:
        chain.append(i)
        i = cursor.visit_parents[i]
    assert set(chain[1:]) & set(cursor.deaths), "no death above the candidate"
    assert nested not in cursor.deaths
    assert answer_ids(plan, cursor) == expected
    assert cursor.visit_ids[nested] in expected and len(expected) == 1


def test_candidates_sharing_a_chain_climb_it_once():
    """Two sibling candidates three levels down, a death elsewhere: the
    first climbs to the root, the second stops at its memoised parent."""
    plan, cursor, expected = run(
        "a[zzz] | c/c/c/d", "<r><a/><c><c><c><d/><d/></c></c></c></r>"
    )
    assert cursor.deaths and len(cursor.finals_seen) == 3  # a, d, d
    parents = CountingList(cursor.visit_parents)
    # Phase 2 returns node ids and reads labels off the label column.
    # The reference, by name: the compiled phase 2 reads the list in C,
    # past any __getitem__ spy (tests/test_descent_native.py holds the
    # two to identical answers and cache keys).
    answers = plan._collect_answers_py(
        cursor.visit_ids,
        parents,
        cursor.visit_mstates,
        cursor.deaths,
        cursor.finals_seen,
        cursor.layout.columns.label,
    )
    assert set(answers) == expected and len(expected) == 2
    # a: itself + root (2 reads); first d: d, c, c, c up to the known
    # root (4 reads); second d: only itself (1 read).
    assert parents.reads == 7


def test_no_deaths_builds_no_chain_at_all():
    plan, cursor, expected = run("a/b", "<r><a><b/><b/></a><a/></r>")
    assert not cursor.deaths
    answers = plan._collect_answers_py(
        cursor.visit_ids, None, None, cursor.deaths, cursor.finals_seen, None
    )
    assert set(answers) == expected and len(expected) == 2


def test_finals_seen_holds_visit_indices_in_both_loops():
    tree = parse_xml("<r><a><b/></a><a><b/></a></r>")
    plans = [CompiledPlan(compile_query(parse_query(q))) for q in ("a/b", "a")]
    lean = [RunCursor(plan) for plan in plans]
    descend(list(zip(plans, lean)), tree.root)
    composed = [RunCursor(plan) for plan in plans]
    descend_composed(ComposedKernel(plans), composed, tree.root)
    for one, other in zip(lean, composed):
        assert one.finals_seen == other.finals_seen
        assert all(type(i) is int for i in one.finals_seen)
        label = one.layout.columns.label
        assert [label[one.visit_ids[i]] for i in one.finals_seen] in (
            ["b", "b"],
            ["a", "a"],
        )


@pytest.mark.parametrize("source", ["_phase2", "finals_append(node)", "finals_append(child)"])
def test_the_full_walk_is_gone_from_the_package(source):
    from pathlib import Path

    import repro

    for path in Path(repro.__file__).parent.rglob("*.py"):
        assert source not in path.read_text(), path
