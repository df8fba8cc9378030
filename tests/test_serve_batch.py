"""Batches on the hospital document, pinned by hand: dead lanes, reuse,
lanes sharing one plan and the lane guards.

A wave is one lean pass per lane, so per lane it is *observationally
identical* to N sequential :class:`CompiledPlan` runs and its
``visited_elements`` is their sum.  The generated wave-vs-oracle
property lives in ``tests/test_lattice.py``.
"""

import pytest

from repro.automata.compile import compile_query
from repro.hype.core import CompiledPlan
from repro.serve.batch import BatchEvaluator
from repro.workloads import FIG8
from repro.xpath.parser import parse_query

from .conftest import ids


class TestBatchOnHospital:
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
        # One pass per lane: the wave visits what its lanes visit.
        lanes = sum(result.stats.visited_elements for result in first.results)
        assert first.stats.visited_elements == second.stats.visited_elements == lanes

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
