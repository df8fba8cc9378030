"""One label table per label set: what it shares, and that sharing is
unobservable.

OptHyPE(-C) executables, transition rows and OptHyPE-C's mask interning
belong to the :class:`repro.hype.index.LabelTable` of a label set, so a
new document of a known label set runs on tables its predecessors
filled.  The harness below is the equivalence claim — a shared
executable *after* other documents filled it is a fresh one, answers and
:class:`HyPEStats` alike, per lane, as a wave and composed — and the
hand-written cases pin who shares what, what an executable refuses, and
that concurrent ingests agree on one table.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.docstore import DocumentStore, IndexedDocument
from repro.errors import EvaluationError
from repro.hype.api import ALGORITHMS, HYPE, OPTHYPE, OPTHYPE_C
from repro.hype.compose import ComposedKernel
from repro.hype.core import CompiledPlan
from repro.hype.index import build_index, label_table
from repro.serve.batch import BatchEvaluator
from repro.serve.cache import PlanCache
from repro.workloads import HospitalConfig, generate_hospital_document
from repro.xtree.parse import parse_xml
from repro.xtree.serialize import serialize

from .strategies import gated_paths, trees


def _same(got, want):
    assert {n.node_id for n in got.answers} == {n.node_id for n in want.answers}
    assert got.stats == want.stats


@given(
    st.lists(trees(max_depth=3), min_size=2, max_size=4),
    st.lists(gated_paths(), min_size=2, max_size=3),
)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_a_shared_executable_is_a_fresh_one(forest, queries):
    """Sequences of same- and mixed-label-set documents x gated queries
    x 3 algorithms x per-lane / wave / composed: each document runs on
    the executables (and composed kernels) its predecessors filled, and
    is indistinguishable from a fresh ``for_algorithm`` plan of its own."""
    cache = PlanCache(8)
    cached = [cache.plan(None, query) for query in queries]
    documents = [IndexedDocument(tree) for tree in forest]
    kernels: dict = {}
    for doc in documents:
        root, layout = doc.tree.root, doc.layout
        for algorithm in ALGORITHMS:
            shared = [plan.compiled(algorithm, doc.tree, doc) for plan in cached]
            want = [
                CompiledPlan.for_algorithm(plan.mfa, algorithm, doc.tree, doc).run(
                    root, layout=layout
                )
                for plan in cached
            ]
            for plan, expected in zip(shared, want):
                _same(plan.run(root, layout=layout), expected)
            wave = BatchEvaluator(shared).run(root, layout=layout)
            assert not wave.composed
            composed = BatchEvaluator(
                shared,
                groups=[range(len(shared))],
                composer=lambda members: kernels.setdefault(
                    (algorithm, id(layout.table)), ComposedKernel(members)
                ),
            ).run(root, layout=layout)
            assert len(composed.composed) == len(shared)
            for lane, stepped, expected in zip(wave.results, composed.results, want):
                _same(lane, expected)
                _same(stepped, expected)
    tables = {id(doc.layout.table) for doc in documents}
    for plan in cached:
        assert len(plan.executables()) == 1 + 2 * len(tables)


# ----------------------------------------------------------------------
# Who shares what
# ----------------------------------------------------------------------
def test_one_label_set_is_one_table_and_one_executable_per_variant():
    first = IndexedDocument(parse_xml("<r><a><b>x</b></a><c/></r>"))
    # Same label set, another first-appearance order and other masks.
    second = IndexedDocument(parse_xml("<r><c><b/></c><a>y</a><a/></r>"))
    extra = IndexedDocument(parse_xml("<r><a><b>x</b></a><c/><d/></r>"))
    assert first.layout.table is second.layout.table
    assert first.layout.table is label_table(("a", "b", "c", "r"))
    assert extra.layout.table is not first.layout.table
    cached = PlanCache(4).plan(None, "//a[b]")
    for algorithm in ALGORITHMS:
        one = cached.compiled(algorithm, first.tree, first)
        assert cached.compiled(algorithm, second.tree, second) is one
        other = cached.compiled(algorithm, extra.tree, extra)
        assert (other is one) == (algorithm == HYPE)
        for doc, expected in ((first, [1]), (second, []), (extra, [1])):
            plan = cached.compiled(algorithm, doc.tree, doc)
            got = plan.run(doc.root, layout=doc.layout).answers
            assert sorted(n.node_id for n in got) == expected
    assert len(cached.executables()) == 5
    # The rows a plan filled for one document are the next one's.
    hype = cached.compiled(HYPE, first.tree, first)
    assert first.layout.table.rows_for(hype) is second.layout.table.rows_for(hype)
    # Both variants of both documents are keyed in the one table.
    packed = [doc.index_for(True) for doc in (first, second)]
    assert packed[0].table is packed[1].table is first.layout.table
    for index, doc in zip(packed, (first, second)):
        assert index.masks == doc.index_for(False).masks


def test_a_tier_loaded_document_joins_the_canonical_table(tmp_path):
    xml = serialize(generate_hospital_document(HospitalConfig(num_patients=3, seed=2)))
    other = serialize(generate_hospital_document(HospitalConfig(num_patients=3, seed=5)))
    cold = DocumentStore(index_dir=tmp_path)
    built = cold.get(xml)
    built.index_for(True)
    warm = DocumentStore(index_dir=tmp_path)
    loaded, fresh = warm.get(xml), warm.get(other)
    assert warm.stats.layout_loads == 1 and warm.stats.layout_stores == 1
    assert loaded.layout.table is built.layout.table is fresh.layout.table
    assert loaded.index_for(True).mask_keys == built.index_for(True).mask_keys
    assert warm.stats.index_loads == 1 and warm.stats.index_builds == 0


def test_concurrent_ingests_agree_on_one_table():
    """8 threads ingesting same-DTD documents at once: one table, every
    interned mask stored once, every document's ids decode to the masks
    a single-threaded sweep finds."""
    texts = [
        serialize(generate_hospital_document(HospitalConfig(num_patients=8, seed=s)))
        for s in range(8)
    ]
    store = DocumentStore(capacity=8)
    barrier = threading.Barrier(len(texts))
    documents: list = [None] * len(texts)

    def ingest(slot: int) -> None:
        barrier.wait()
        doc = store.get(texts[slot])
        doc.index_for(True)
        doc.index_for(False)
        documents[slot] = doc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=ingest, args=(slot,)) for slot in range(len(texts))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    tables = {id(doc.layout.table) for doc in documents}
    assert len(tables) == 1
    table = documents[0].layout.table
    assert len(set(table.masks)) == len(table.masks)
    for doc in documents:
        reference = build_index(doc.tree).masks
        assert doc.index_for(True).masks == reference == doc.index_for(False).masks
        assert doc.index_for(True).table is table


# ----------------------------------------------------------------------
# What an executable refuses (it used to prune on the wrong masks)
# ----------------------------------------------------------------------
QUERY = "//patient[.//diagnosis]/pname"


def _documents():
    return [
        IndexedDocument(
            generate_hospital_document(HospitalConfig(num_patients=8, seed=seed))
        )
        for seed in (3, 4)
    ]


@pytest.mark.parametrize("algorithm", [OPTHYPE, OPTHYPE_C])
def test_an_executable_runs_any_document_of_its_label_table(algorithm):
    """Regression: an index-equipped executable handed another
    document's root and layout pruned on the masks of the document it
    was built for (same freeze count, so nothing refused it) — 1 answer
    where there are 17.  It prunes on the run's document now."""
    a, b = _documents()
    cached = PlanCache(4).plan(None, QUERY)
    plan = cached.compiled(algorithm, a.tree, a)
    expected = cached.compiled(HYPE, b.tree, b).run(b.root, layout=b.layout)
    assert len(expected.answers) == 17
    b.index_for(algorithm == OPTHYPE_C)
    assert plan.run(b.root, layout=b.layout).answers == expected.answers
    batch = BatchEvaluator([plan, plan], groups=[(0, 1)])
    result = batch.run(b.root, layout=b.layout)
    assert result.composed == {0, 1}
    assert [lane.answers for lane in result.results] == [expected.answers] * 2


@pytest.mark.parametrize("algorithm", [OPTHYPE, OPTHYPE_C])
def test_a_document_without_the_mask_column_is_refused(algorithm):
    """No mask column of the executable's (label table, variant) on the
    run's layout — the variant was never built for that document, or the
    document is of a foreign label set — is a structured error, per lane
    and composed; never a wrong answer."""
    a, unbuilt = _documents()
    foreign = IndexedDocument(parse_xml("<hospital><patient><pname/></patient></hospital>"))
    for compressed in (False, True):
        foreign.index_for(compressed)
    unbuilt.index_for(algorithm != OPTHYPE_C)  # the other variant only
    plan = PlanCache(4).plan(None, QUERY).compiled(algorithm, a.tree, a)
    assert plan.run(a.root, layout=a.layout).answers
    for doc in (unbuilt, foreign):
        with pytest.raises(EvaluationError, match="no subtree-mask column"):
            plan.run(doc.root, layout=doc.layout)
        with pytest.raises(EvaluationError, match="no subtree-mask column"):
            BatchEvaluator([plan]).run(doc.root, layout=doc.layout)
        with pytest.raises(EvaluationError, match="no subtree-mask column"):
            BatchEvaluator([plan, plan], groups=[(0, 1)]).run(
                doc.root, layout=doc.layout
            )
    # On-demand columns of a foreign label set are refused the same way.
    with pytest.raises(EvaluationError, match="no subtree-mask column"):
        plan.run(foreign.root)
