"""Batch-vs-sequential equivalence: answers, stats and pruning counters.

The batched evaluator must be *observationally identical* per query to N
sequential :class:`CompiledPlan` runs — same answer sets, same per-lane
visited/skipped/gate-failure counters — while the shared pass visits no
more elements than the sequential total.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.automata.compile import compile_query
from repro.docstore import IndexedDocument
from repro.hype.core import CompiledPlan
from repro.hype.index import build_index
from repro.serve.batch import BatchEvaluator
from repro.workloads import FIG8, FIG9, VIEW_QUERIES
from repro.xpath.parser import parse_query

from .conftest import ids
from .strategies import paths, trees


def assert_batch_matches_sequential(tree, queries, indexed=False):
    """Run ``queries`` batched and sequentially; compare lane by lane."""
    mfas = [compile_query(parse_query(q)) for q in queries]
    index = build_index(tree) if indexed else None
    sequential = [
        CompiledPlan(mfa, index=index).run(tree.root) for mfa in mfas
    ]
    batch = BatchEvaluator(
        [CompiledPlan(mfa, index=index) for mfa in mfas]
    ).run(tree.root)
    assert len(batch.results) == len(sequential)
    for seq, bat in zip(sequential, batch.results):
        assert ids(bat.answers) == ids(seq.answers)
        assert bat.stats.visited_elements == seq.stats.visited_elements
        assert bat.stats.skipped_subtrees == seq.stats.skipped_subtrees
        assert bat.stats.gate_failures == seq.stats.gate_failures
        assert bat.stats.cans_vertices == seq.stats.cans_vertices
        assert bat.stats.answers == seq.stats.answers
    total_sequential = sum(r.stats.visited_elements for r in sequential)
    assert batch.stats.sequential_visited == total_sequential
    assert batch.stats.visited_elements <= total_sequential
    assert batch.stats.saved_visits >= 0
    return batch


class TestBatchOnHospital:
    def test_source_queries_match(self, hospital_doc):
        queries = sorted(FIG8.values()) + sorted(FIG9.values())
        batch = assert_batch_matches_sequential(hospital_doc, queries)
        # Six-plus overlapping queries must share traversal work.
        assert batch.stats.visited_elements < batch.stats.sequential_visited

    def test_indexed_lanes_match(self, hospital_doc):
        queries = sorted(FIG8.values())
        assert_batch_matches_sequential(hospital_doc, queries, indexed=True)

    def test_mixed_plain_and_indexed_lanes(self, hospital_doc):
        index = build_index(hospital_doc)
        queries = sorted(FIG8.values())
        mfas = [compile_query(parse_query(q)) for q in queries]
        plans = [
            CompiledPlan(mfa, index=index if i % 2 else None)
            for i, mfa in enumerate(mfas)
        ]
        sequential = [p.run(hospital_doc.root) for p in plans]
        fresh = [
            CompiledPlan(mfa, index=index if i % 2 else None)
            for i, mfa in enumerate(mfas)
        ]
        batch = BatchEvaluator(fresh).run(hospital_doc.root)
        for seq, bat in zip(sequential, batch.results):
            assert ids(bat.answers) == ids(seq.answers)

    def test_rewritten_view_queries_match(self, engine):
        mfas = [
            engine.rewrite("research", q) for q in sorted(VIEW_QUERIES.values())
        ]
        sequential = [
            CompiledPlan(mfa).run(engine.document.root) for mfa in mfas
        ]
        batch = BatchEvaluator(
            [CompiledPlan(mfa) for mfa in mfas]
        ).run(engine.document.root)
        for seq, bat in zip(sequential, batch.results):
            assert ids(bat.answers) == ids(seq.answers)
            assert bat.stats.visited_elements == seq.stats.visited_elements

    def test_dead_lane_gets_empty_zero_stat_result(self, hospital_doc):
        batch = BatchEvaluator(
            [
                CompiledPlan(compile_query(parse_query("nosuchlabel/child"))),
                CompiledPlan(compile_query(parse_query("department/name"))),
            ]
        ).run(hospital_doc.root)
        dead, live = batch.results
        assert dead.answers == set()
        assert live.answers
        sequential = CompiledPlan(
            compile_query(parse_query("nosuchlabel/child"))
        ).run(hospital_doc.root)
        assert dead.stats.visited_elements == sequential.stats.visited_elements

    def test_reusing_batch_evaluator_is_stable(self, hospital_doc):
        batch = BatchEvaluator(
            [
                CompiledPlan(compile_query(parse_query(q)))
                for q in sorted(FIG8.values())
            ]
        )
        first = batch.run(hospital_doc.root)
        second = batch.run(hospital_doc.root)
        for a, b in zip(first.results, second.results):
            assert ids(a.answers) == ids(b.answers)
        assert first.stats.visited_elements == second.stats.visited_elements

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            BatchEvaluator([])

    def test_raw_mfa_lane_rejected_with_guidance(self):
        """The pre-split ``MFA | HyPEEvaluator`` union is gone: a raw MFA
        lane must fail loudly, pointing at the CompiledPlan wrapper."""
        mfa = compile_query(parse_query("department/name"))
        with pytest.raises(TypeError, match="CompiledPlan"):
            BatchEvaluator([mfa])

    def test_lanes_sharing_one_plan_object_match(self, hospital_doc):
        """Two lanes backed by ONE CompiledPlan (the cross-tenant sharing
        case) still produce per-lane results identical to sequential."""
        shared = CompiledPlan(compile_query(parse_query("department/name")))
        expected = CompiledPlan(
            compile_query(parse_query("department/name"))
        ).run(hospital_doc.root)
        batch = BatchEvaluator([shared, shared]).run(hospital_doc.root)
        for lane in batch.results:
            assert ids(lane.answers) == ids(expected.answers)
            assert lane.stats == expected.stats


class TestBatchProperty:
    @settings(max_examples=60, deadline=None)
    @given(tree=trees(), qs=paths(), q2=paths())
    def test_random_tree_random_queries(self, tree, qs, q2):
        mfas = [compile_query(qs), compile_query(q2)]
        sequential = [CompiledPlan(mfa).run(tree.root) for mfa in mfas]
        batch = BatchEvaluator([CompiledPlan(mfa) for mfa in mfas]).run(
            tree.root
        )
        for seq, bat in zip(sequential, batch.results):
            assert ids(bat.answers) == ids(seq.answers)
            assert bat.stats.visited_elements == seq.stats.visited_elements
            assert bat.stats.skipped_subtrees == seq.stats.skipped_subtrees
            assert bat.stats.gate_failures == seq.stats.gate_failures
        assert batch.stats.visited_elements <= batch.stats.sequential_visited


#: Family -> the index its lanes compile against.  A served wave compiles
#: every lane against its document's own index, which also parks the
#: mask column on the document's layout.
FAMILIES = {
    "hype": lambda doc: None,
    "opthype": lambda doc: doc.index_for(False),
    "opthype-c": lambda doc: doc.index_for(True),
}


class TestWaveEqualsSequentialEveryFamily:
    """One wave over N lanes == N sequential runs, answers and full
    ``HyPEStats``, for every algorithm family, with the layout built on
    demand or supplied by the document."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("supplied", [False, True], ids=["on-demand", "supplied"])
    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(tree=trees(), queries=st.lists(paths(max_leaves=5), min_size=2, max_size=4))
    def test_lanes_identical(self, family, supplied, tree, queries):
        doc = IndexedDocument(tree)  # owns the plans' label table
        layout = doc.layout if supplied else None
        index = FAMILIES[family](doc)
        plans = [CompiledPlan(compile_query(q), index=index) for q in queries]
        sequential = [plan.run(tree.root, layout=layout) for plan in plans]
        wave = BatchEvaluator(plans).run(tree.root, layout=layout)
        for lane, (got, expected) in enumerate(zip(wave, sequential)):
            assert ids(got.answers) == ids(expected.answers), f"lane {lane}"
            assert got.stats == expected.stats, f"lane {lane}"
        assert wave.stats.sequential_visited == sum(
            r.stats.visited_elements for r in sequential
        )
        assert wave.stats.visited_elements <= wave.stats.sequential_visited
