"""Columns are the only document the evaluator walks.

There is one path — :class:`repro.docstore.layout.DocumentLayout`
columns.  *Whose* columns a run walks (the supplied layout, or fresh
ones built on demand when none covers the context) is an axis of the
oracle lattice (``tests/test_lattice.py``), as is the supplied-layout
path — the one production runs — at sub-tree contexts.  A foreign
layout is never indexed; a never-frozen tree is refused, and a frozen
one cannot be edited under a layout (a freeze is final).
"""

import pytest

from repro.docstore import DocumentStore, IndexedDocument
from repro.errors import EvaluationError
from repro.hype.api import ALGORITHMS, OPTHYPE, compile_plan
from repro.serve.batch import BatchEvaluator
from repro.serve.service import QueryRequest, QueryService
from repro.workloads.hospital import HospitalConfig, generate_hospital_document
from repro.workloads.queries import FIG8
from repro.xtree.serialize import serialize


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


@pytest.mark.parametrize("parse", [True, False], ids=["parsed", "built"])
def test_an_edit_under_a_layout_fails_at_the_edit(parse):
    """Regression: appending to a wrapped tree used to succeed, and the
    run over the document's layout kept answering from the columns it
    had (1 answer for ``a``) while the reference walked the edited
    children (2).  The edit is refused now, so every algorithm's run
    over the layout and the reference agree."""
    from repro.baselines.naive import NaiveEvaluator
    from repro.xtree import parse_xml
    from repro.xtree.build import document, element
    from repro.xtree.node import Node

    tree = parse_xml("<r><a/></r>") if parse else document(element("r", element("a")))
    doc = IndexedDocument(tree)
    with pytest.raises(EvaluationError, match="immutable"):
        tree.root.append(Node("a"))
    with pytest.raises(EvaluationError, match="immutable"):
        tree.root.children[0].extend([Node("a")])
    assert len(NaiveEvaluator("a").run(tree)) == 1
    for algorithm in ALGORITHMS:
        plan = _plan("a", algorithm, doc)
        assert len(plan.run(0, layout=doc.layout).ids) == 1
        assert len(plan.run(tree.root).ids) == 1


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


def test_a_never_frozen_tree_is_refused():
    """``node_id``s that are not the document order would mis-index the
    columns: both descents raise instead."""
    from repro.xtree.build import element

    loose = element("a", element("b"), element("c"))  # never frozen
    plan = compile_plan("//b", algorithm="hype")
    with pytest.raises(EvaluationError):
        plan.run(loose)
    with pytest.raises(EvaluationError):
        BatchEvaluator([plan, plan]).run(loose)


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
