"""Wave composition: the composed kernel is indistinguishable per lane.

Unit coverage for :mod:`repro.hype.compose` (construction errors, the
ccfg cap) plus the PR's strongest guarantee as a
hypothesis property: stepping N plans as ONE composed machine yields
answers *and* full per-lane ``HyPEStats`` byte-identical to N sequential
runs — across all three algorithm families, over on-demand and supplied
layouts, and straight through a mid-wave ccfg-cap fallback.  A
service-level test pins the grouping contract: waves mixing views must
NOT compose across view boundaries.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.automata import compile_query
from repro.docstore import IndexedDocument
from repro.hype import build_index, kernel
from repro.hype.compose import (
    ComposedKernel,
    ComposeError,
    ComposedOverflow,
    descend_composed,
)
from repro.hype.core import CompiledPlan, RunCursor
from repro.serve.batch import BatchEvaluator
from repro.xpath.parser import parse_query
from repro.xtree.parse import parse_xml

from .strategies import paths, trees

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: (family name, index of an IndexedDocument) — composition members
#: must share one (label table, variant), exactly as the serving stack
#: compiles every lane against the document's own index, which also
#: parks the mask column on the document's layout.
FAMILIES = (
    ("hype", lambda doc: None),
    ("opthype", lambda doc: doc.index_for(False)),
    ("opthype-c", lambda doc: doc.index_for(True)),
)


def _plans(queries, index):
    return [
        CompiledPlan(
            compile_query(parse_query(q) if isinstance(q, str) else q),
            index=index,
        )
        for q in queries
    ]


def _sequential(plans, tree, layout):
    return [plan.run(tree.root, layout=layout) for plan in plans]


def _composed(plans, tree, layout, kernel=None):
    kernel = kernel or ComposedKernel(plans)
    cursors = [RunCursor(plan) for plan in plans]
    descend_composed(kernel, cursors, tree.root, layout)
    return [cursor.finish() for cursor in cursors]


def _assert_lanes_identical(got, reference):
    for lane, (result, expected) in enumerate(zip(got, reference)):
        assert [n.node_id for n in result.answers] == [
            n.node_id for n in expected.answers
        ], f"lane {lane} answers diverged"
        assert result.stats == expected.stats, f"lane {lane} stats diverged"


class TestConstruction:
    def test_needs_two_members(self, hospital_doc):
        (plan,) = _plans(["patient"], None)
        with pytest.raises(ComposeError, match="at least two"):
            ComposedKernel([plan])

    def test_rejects_mixed_families(self, hospital_doc):
        """The "same index object" rule became "same (label table,
        variant)": members read ONE mask column, the run's document's."""
        plain = _plans(["//patient"], None)
        index = build_index(hospital_doc)
        indexed = _plans(["//ward"], index)
        with pytest.raises(ComposeError, match="share one algorithm family"):
            ComposedKernel(plain + indexed)
        # Two index objects of one label table are one family ...
        other = _plans(["//patient"], build_index(hospital_doc))
        assert ComposedKernel(indexed + other).indexed
        # ... the other variant, or another label table, is not.
        packed = _plans(["//patient"], build_index(hospital_doc, compressed=True))
        with pytest.raises(ComposeError, match="share one algorithm family"):
            ComposedKernel(indexed + packed)
        foreign = build_index(parse_xml("<hospital><annex/></hospital>"))
        with pytest.raises(ComposeError, match="share one algorithm family"):
            ComposedKernel(indexed + _plans(["//patient"], foreign))

    def test_cap_overflow_raises(self, hospital_doc):
        plans = _plans(["//patient", "//patient//treatment"], None)
        kernel = ComposedKernel(plans, max_ccfgs=1)
        cursors = [RunCursor(plan) for plan in plans]
        with pytest.raises(ComposedOverflow):
            descend_composed(kernel, cursors, hospital_doc.root, None)

    def test_interned_ccfgs_grow_then_stay(self, hospital_doc):
        plans = _plans(["//patient", "patient/record"], None)
        kernel = ComposedKernel(plans)
        assert kernel.interned_ccfgs == 1  # the all-dead anchor
        _composed(plans, hospital_doc, None, kernel=kernel)
        grown = kernel.interned_ccfgs
        assert grown > 1
        _composed(plans, hospital_doc, None, kernel=kernel)
        assert kernel.interned_ccfgs == grown  # tables are saturated


class TestPopOutcomeCap:
    def test_outcomes_past_the_cap_resolve_without_being_stored(
        self, hospital_doc, monkeypatch
    ):
        """A composed pop key combines every lane's truths, so the memo
        is capped per ccfg; past the cap pops still resolve (per member)
        and lanes stay identical to sequential runs."""
        from repro.hype import compose

        monkeypatch.setattr(compose, "POP_OUTCOME_CAP", 1)
        queries = [
            "//patient[.//diagnosis/text() = 'flu']",
            "//patient[.//test/text() = 'x-ray']/pname",
        ]
        plans = _plans(queries, None)
        layout = IndexedDocument(hospital_doc).layout
        kernel = ComposedKernel(plans)
        got = _composed(plans, hospital_doc, layout, kernel)
        _assert_lanes_identical(got, _sequential(plans, hospital_doc, layout))
        sizes = [len(outcomes) for _preds, outcomes in kernel.cpops]
        assert max(sizes) == 1


class TestComposedEqualsSequential:
    """The property: one composed machine == N sequential machines."""

    @given(trees(), st.lists(paths(max_leaves=5), min_size=2, max_size=4))
    @settings(max_examples=40, **COMMON)
    def test_all_families_on_demand_layout(self, tree, queries):
        doc = IndexedDocument(tree)  # keeps the plans' label table alive
        for _family, make_index in FAMILIES:
            plans = _plans(queries, make_index(doc))
            _assert_lanes_identical(
                _composed(plans, tree, None),
                _sequential(plans, tree, None),
            )

    @given(trees(), st.lists(paths(max_leaves=5), min_size=2, max_size=4))
    @settings(max_examples=40, **COMMON)
    def test_all_families_supplied_layout(self, tree, queries):
        doc = IndexedDocument(tree)
        layout = doc.layout
        for _family, make_index in FAMILIES:
            plans = _plans(queries, make_index(doc))
            _assert_lanes_identical(
                _composed(plans, tree, layout),
                _sequential(plans, tree, layout),
            )

    @given(trees(), st.lists(paths(max_leaves=5), min_size=2, max_size=3))
    @settings(max_examples=40, **COMMON)
    def test_cap_fallback_mid_wave_is_invisible(self, tree, queries):
        """A tiny ccfg cap forces mid-wave overflow; answers never move.

        The batch evaluator discards the partial composed cursors and
        re-runs the group per-lane — whether or not this particular
        (tree, queries) draw overflows, per-lane results are identical
        to plain sequential evaluation and the fallback is counted.
        """
        plans = _plans(queries, None)
        reference = _sequential(plans, tree, None)
        batch = BatchEvaluator(
            plans,
            groups=[range(len(plans))],
            composer=lambda members: ComposedKernel(members, max_ccfgs=3),
        )
        outcome = batch.run(tree.root)
        _assert_lanes_identical(list(outcome), reference)
        stats = outcome.stats
        assert stats.composed_fallbacks + stats.composed_groups == 1
        if stats.composed_fallbacks:
            assert not outcome.composed
        else:
            assert outcome.composed == frozenset(range(len(plans)))


class TestServiceGrouping:
    """Waves mixing views must NOT compose across the view boundary."""

    @pytest.fixture()
    def two_view_service(self, hospital_doc, sigma0_spec):
        from repro.dtd import hospital_dtd, hospital_view_dtd
        from repro.serve.service import QueryService
        from repro.views.samples import SIGMA0_ANNOTATIONS
        from repro.views.spec import view_spec

        restricted = view_spec(
            hospital_dtd(),
            hospital_view_dtd(),
            {**SIGMA0_ANNOTATIONS, ("patient", "parent"): "parent[not(.)]"},
        )
        service = QueryService(hospital_doc)
        # Composed whatever the lean pass: QueryService(compose=True)
        # resolves to per-lane stepping where the pass is compiled.
        service.compose = True
        service.register_view("research", sigma0_spec)
        service.register_view("restricted", restricted)
        service.register_tenant("inst", "research")
        service.register_tenant("audit", "restricted")
        return service

    def test_one_lane_per_view_never_composes(self, two_view_service):
        from repro.serve.service import QueryRequest

        wave = [
            QueryRequest("inst", "patient"),
            QueryRequest("audit", "patient"),
        ]
        answers, stats = two_view_service.submit_many(wave)
        assert len(answers) == 2
        assert stats.composed_groups == 0
        assert stats.composed_lanes == 0

    def test_views_compose_separately_with_identical_answers(
        self, two_view_service
    ):
        from repro.serve.service import QueryRequest

        wave = [
            QueryRequest("inst", "patient"),
            QueryRequest("inst", "patient/record"),
            QueryRequest("audit", "patient"),
            QueryRequest("audit", "patient/record"),
        ]
        answers, stats = two_view_service.submit_many(wave)
        # Two families of two lanes each — never one group of four.
        assert stats.composed_groups == 2
        assert stats.composed_lanes == 4
        # Every lane answers exactly what its own sequential submit
        # answers on the same service (per-view rewrites intact).
        for request, answer in zip(wave, answers):
            expected = two_view_service.submit(request.tenant, request.query)
            assert answer.ids() == expected.ids()
            assert answer.stats == expected.stats


@pytest.mark.skipif(
    kernel.DESCENT != "compiled", reason=f"descent is {kernel.DESCENT!r}"
)
class TestCompiledProcessStepsPerLane:
    """Where the lean pass is compiled, ``QueryService(compose=True)``
    steps waves per lane: the interpreted composed machine would be the
    slower pass.  The union of the lanes' visits is the composed
    traversal, so the wave's shared counters do not move either."""

    def test_compose_request_resolves_to_per_lane(
        self, hospital_doc, sigma0_spec, tmp_path, monkeypatch, caplog
    ):
        import logging

        from repro.compile import PlanStore
        from repro.serve.service import QueryRequest, QueryService
        from repro.workloads import VIEW_QUERIES

        def forbidden(*args, **kwargs):
            raise AssertionError("a per-lane wave reached the composed tier")

        wave = [
            QueryRequest("institute", query)
            for query in sorted(VIEW_QUERIES.values())[:5]
        ]
        runs = {}
        for name in ("per-lane", "composed"):
            directory = tmp_path / name
            with caplog.at_level(logging.INFO, logger="repro.serve.service"):
                service = QueryService(
                    hospital_doc, plan_store=PlanStore(directory), compose=True
                )
            with service:
                if name == "per-lane":
                    assert service.compose is False
                    monkeypatch.setattr(service.cache.composed, "kernel_for", forbidden)
                else:
                    service.compose = True
                service.register_view("research", sigma0_spec)
                service.register_tenant("institute", "research")
                answers, stats = service.submit_many(wave)
                runs[name] = answers, stats, service.metrics_snapshot().as_dict()
        assert [r.message for r in caplog.records].count(
            "compose: waves step per lane (the compiled lean pass "
            "outruns the interpreted composed machine)"
        ) == 2
        answers, stats, snap = runs["per-lane"]
        composed_answers, composed_stats, _snap = runs["composed"]
        assert (stats.composed_groups, stats.composed_lanes) == (0, 0)
        assert composed_stats.composed_lanes == len(wave)
        assert [a.ids() for a in answers] == [a.ids() for a in composed_answers]
        assert [a.stats for a in answers] == [a.stats for a in composed_answers]
        assert (stats.visited_elements, stats.skipped_subtrees) == (
            composed_stats.visited_elements,
            composed_stats.skipped_subtrees,
        )
        assert snap["composed_builds"] == 0
