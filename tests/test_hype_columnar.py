"""Columns are the only document the evaluator walks.

There is one path — :class:`repro.docstore.layout.DocumentLayout`
columns — so the properties here pin the two things that can differ
between callers: *whose* columns a run walks (the supplied layout, or
fresh ones built on demand when none covers the context) must not be
observable in answers or :class:`HyPEStats`, and the supplied-layout
path — the one production runs — must agree with the reference
evaluator directly, not transitively.  A stale or foreign layout is
never indexed; a never-frozen tree is refused.
"""

import pytest
from hypothesis import given, settings

from repro.docstore import DocumentStore, IndexedDocument
from repro.errors import EvaluationError
from repro.hype.api import ALGORITHMS, OPTHYPE, compile_plan
from repro.hype.compose import ComposedKernel, descend_composed
from repro.hype.core import RunCursor
from repro.serve.batch import BatchEvaluator
from repro.serve.service import QueryRequest, QueryService
from repro.workloads.hospital import HospitalConfig, generate_hospital_document
from repro.workloads.queries import FIG8
from repro.xpath import evaluate
from repro.xtree.serialize import serialize

from .strategies import paths, trees


def _composed(plans, context, layout):
    cursors = [RunCursor(plan) for plan in plans]
    descend_composed(ComposedKernel(plans), cursors, context, layout)
    return [cursor.finish() for cursor in cursors]


def _plan(query, algorithm, doc):
    """A plan over the document's own index (what serving builds)."""
    index = None if algorithm == "hype" else doc.index_for(algorithm == "opthype-c")
    return compile_plan(query, algorithm=algorithm, index=index)


def _poison(layout):
    """Make any read of the layout's kid columns raise."""
    layout.kid_ids = layout.kid_labels = layout.kid_start = None


def _same(results, expected):
    assert len(results) == len(expected)
    for got, want in zip(results, expected):
        assert got.answers == want.answers
        assert got.stats == want.stats


@given(trees(), paths(max_leaves=5), paths(max_leaves=5))
@settings(max_examples=60, deadline=None)
def test_on_demand_layout_is_identical_to_a_supplied_one(tree, first, second):
    """Per lane, batched and composed, all three algorithms, root and
    sub-tree contexts: a run that builds its own columns is the run
    that was handed the document's."""
    doc = IndexedDocument(tree)
    contexts = [n for n in tree.nodes if n.is_element][:3]
    for algorithm in ALGORITHMS:
        plans = [_plan(query, algorithm, doc) for query in (first, second)]
        for context in contexts:
            supplied = [plan.run(context, layout=doc.layout) for plan in plans]
            _same([plan.run(context) for plan in plans], supplied)
            batch = BatchEvaluator(plans)
            with_layout = batch.run(context, layout=doc.layout)
            on_demand = batch.run(context)
            assert with_layout.stats == on_demand.stats
            _same(on_demand.results, supplied)
            _same(with_layout.results, supplied)
            _same(_composed(plans, context, None), supplied)
            _same(_composed(plans, context, doc.layout), supplied)


@given(trees(), paths())
@settings(max_examples=120, deadline=None)
def test_supplied_layout_agrees_with_the_reference_evaluator(tree, query):
    """The oracle on the path production runs: every algorithm, over
    the document's own layout and index, against the set semantics."""
    doc = IndexedDocument(tree)
    contexts = [n for n in tree.nodes if n.is_element][:3]
    for algorithm in ALGORITHMS:
        plan = _plan(query, algorithm, doc)
        for context in contexts:
            expected = {n.node_id for n in evaluate(query, context)}
            got = plan.run(context, layout=doc.layout)
            assert {n.node_id for n in got.answers} == expected
            assert got.stats.answers == len(expected)


def test_refrozen_tree_invalidates_the_layout():
    """Regression: index_tree re-freezes IN PLACE (same nodes list
    object), so a stale layout used to keep passing covers() and the
    run silently dropped nodes added by the documented edit + re-freeze
    protocol.  The stale layout is never indexed: the run walks the
    fresh structure's columns and reports its answers and stats."""
    from repro.xtree.build import document, element
    from repro.xtree.node import Node, index_tree

    tree = document(element("a", element("b"), element("c")))
    doc = IndexedDocument(tree)
    stale_layout = doc.layout
    plan = compile_plan("//b", algorithm="hype")
    assert len(plan.run(tree.root, layout=stale_layout).answers) == 1

    tree.root.append(Node("b"))
    index_tree(tree.root, tree)

    assert not stale_layout.covers(tree.root)
    _poison(stale_layout)
    fresh = IndexedDocument(tree)
    assert fresh.layout.covers(tree.root)
    expected = plan.run(tree.root, layout=fresh.layout)
    assert len(expected.answers) == 2
    for layout in (stale_layout, None):
        got = plan.run(tree.root, layout=layout)
        assert got.answers == expected.answers
        assert got.stats == expected.stats
        batch = BatchEvaluator([plan, plan]).run(tree.root, layout=layout)
        _same(batch.results, [expected, expected])
        _same(_composed([plan, plan], tree.root, layout), [expected, expected])


def test_foreign_layout_is_never_indexed():
    tree = generate_hospital_document(HospitalConfig(num_patients=2, seed=0))
    other = generate_hospital_document(HospitalConfig(num_patients=3, seed=9))
    foreign = IndexedDocument(other).layout
    doc = IndexedDocument(tree)
    assert not foreign.covers(tree.root)
    _poison(foreign)
    for algorithm in ALGORITHMS:
        plan = _plan("//patient", algorithm, doc)
        expected = plan.run(tree.root, layout=doc.layout)
        assert expected.answers
        got = plan.run(tree.root, layout=foreign)
        assert got.answers == expected.answers
        assert got.stats == expected.stats
        _same(
            BatchEvaluator([plan, plan]).run(tree.root, layout=foreign).results,
            [expected, expected],
        )
        _same(_composed([plan, plan], tree.root, foreign), [expected, expected])


def test_a_never_frozen_tree_is_refused():
    """``node_id``s that are not the document order would mis-index the
    columns: both descents raise instead."""
    from repro.xtree.build import document, element
    from repro.xtree.node import Node

    loose = element("a", element("b"), element("c"))  # never frozen
    plan = compile_plan("//b", algorithm="hype")
    with pytest.raises(EvaluationError):
        plan.run(loose)
    with pytest.raises(EvaluationError):
        BatchEvaluator([plan, plan]).run(loose)
    with pytest.raises(EvaluationError):
        _composed([plan, plan], loose, None)
    # Edited since its freeze and not re-frozen: refused too.
    tree = document(element("a", element("b")))
    tree.root.children.insert(0, Node("b"))
    with pytest.raises(EvaluationError):
        plan.run(tree.root)


def test_one_plan_serves_two_documents_with_distinct_layouts():
    """Label ids are per-document: a shared HyPE plan must not leak one
    document's interning into another's rows."""
    plan = compile_plan("//patient/record", algorithm="hype")
    for seed in (1, 2, 3):
        tree = generate_hospital_document(
            HospitalConfig(num_patients=2, seed=seed)
        )
        doc = IndexedDocument(tree)
        a = plan.run(tree.root)
        b = plan.run(tree.root, layout=doc.layout)
        assert a.answers == b.answers and a.stats == b.stats


class TestServiceSharing:
    @pytest.fixture()
    def store_and_service(self):
        tree = generate_hospital_document(HospitalConfig(num_patients=6, seed=2))
        store = DocumentStore()
        service = QueryService(
            tree, default_algorithm=OPTHYPE, document_store=store
        )
        service.register_tenant("t", None)
        yield store, service, tree
        service.close()

    def test_n_requests_one_index_build(self, store_and_service):
        """The acceptance metric: ``doc_index_builds == 1`` while
        ``doc_hits >= N - 1`` for N requests over one document."""
        store, service, _tree = store_and_service
        n = 8
        for _ in range(n):
            service.submit("t", FIG8["fig8a"])
        snap = service.metrics_snapshot()
        assert snap.doc_index_builds == 1
        assert snap.doc_hits >= n - 1
        payload = snap.as_dict()
        assert payload["doc_index_builds"] == 1
        assert payload["doc_hits"] >= n - 1
        assert payload["doc_store"]["index_builds"] == 1
        assert "doc store: " in snap.describe()

    def test_store_backed_answers_match_plain_service(self, store_and_service):
        store, service, tree = store_and_service
        with QueryService(tree, default_algorithm=OPTHYPE) as plain:
            plain.register_tenant("t", None)
            for query in FIG8.values():
                a = service.submit("t", query)
                b = plain.submit("t", query)
                assert a.ids() == b.ids()
                assert a.stats == b.stats

    def test_batched_wave_shares_the_store_document(self, store_and_service):
        store, service, _tree = store_and_service
        requests = [QueryRequest("t", q) for q in FIG8.values()] * 2
        result = service.submit_wave(requests)
        assert result.rejected == 0
        assert store.stats.index_builds == 1

    def test_two_services_one_store_share_one_build(self):
        tree = generate_hospital_document(HospitalConfig(num_patients=4, seed=5))
        xml = serialize(tree)
        store = DocumentStore()
        with QueryService(
            store.get(xml), default_algorithm=OPTHYPE, document_store=store
        ) as first, QueryService(
            store.get(xml), default_algorithm=OPTHYPE, document_store=store
        ) as second:
            first.register_tenant("t", None)
            second.register_tenant("t", None)
            a = first.submit("t", "//patient")
            b = second.submit("t", "//patient")
            assert a.ids() == b.ids()
            assert store.stats.index_builds == 1
