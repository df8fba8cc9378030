"""A parsed document is columns; ``Node`` objects exist on demand only.

One equivalence harness: a tree built in memory (frozen by
``index_tree``) and the same tree parsed back from its serialisation
(emitted as columns by the parser) must be one document — every column,
the canonical text, the content address, and the answers and
:class:`HyPEStats` of all three algorithms per lane, batched and
composed.  Then the ownership contract, by hand: one node object per id,
created under concurrency without duplicates; a served query creates no
node at all; a released tree is freed by reference count even while one
of its answer nodes is held.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

from hypothesis import given, settings

import repro.xtree.node as node_module
from repro.docstore import DocumentStore, IndexedDocument, content_digest
from repro.hype.api import ALGORITHMS, compile_plan
from repro.hype.compose import ComposedKernel, descend_composed
from repro.hype.core import RunCursor
from repro.serve.batch import BatchEvaluator
from repro.serve.service import QueryRequest, QueryService
from repro.workloads import FIG8
from repro.workloads.hospital import HospitalConfig, generate_hospital_document
from repro.xtree import parse_xml, serialize
from repro.xtree.parse import parse_canonical

from .strategies import paths, trees

COLUMNS = ("label", "parent", "depth", "text", "position", "kid_ids", "kid_start")


def _runs(doc: IndexedDocument, query) -> list[tuple[list[int], object]]:
    """``(answer ids, stats)`` of every algorithm x per-lane / batch /
    composed over ``doc``'s own layout and indexes."""
    out = []
    for algorithm in ALGORITHMS:
        index = None if algorithm == "hype" else doc.index_for(algorithm == "opthype-c")
        plans = [compile_plan(query, algorithm=algorithm, index=index)] * 2
        results = [plans[0].run(0, layout=doc.layout)]
        results += BatchEvaluator(plans).run(0, layout=doc.layout).results
        cursors = [RunCursor(plan) for plan in plans]
        descend_composed(ComposedKernel(plans), cursors, 0, doc.layout)
        results += [cursor.finish() for cursor in cursors]
        out += [(result.ids, result.stats) for result in results]
    return out


@given(trees(), paths(max_leaves=6))
@settings(max_examples=50, deadline=None)
def test_a_built_and_a_parsed_tree_are_one_document(built, query):
    text = serialize(built)
    parsed, canonical = parse_canonical(text)
    for name in COLUMNS:
        assert list(getattr(parsed.columns, name)) == list(
            getattr(built.columns, name)
        ), name
    assert parsed.labels == built.labels
    assert canonical == text == serialize(parsed)
    assert content_digest(canonical) == IndexedDocument(built).content_hash
    assert _runs(IndexedDocument(parsed), query) == _runs(
        IndexedDocument(built), query
    )


# ----------------------------------------------------------------------
# Ownership, by hand
# ----------------------------------------------------------------------
def _hospital(patients: int = 3, seed: int = 4) -> str:
    return serialize(
        generate_hospital_document(HospitalConfig(num_patients=patients, seed=seed))
    )


def test_one_node_object_per_id_and_answers_are_the_trees_own():
    tree = parse_xml(_hospital())
    assert all(tree.nodes[i] is tree.nodes[i] for i in range(tree.size))
    assert tree.root is tree.node(0) is tree.nodes[-tree.size]
    doc = IndexedDocument(tree)
    for algorithm in ALGORITHMS:
        index = None if algorithm == "hype" else doc.index_for(algorithm == "opthype-c")
        plan = compile_plan("//patient", algorithm=algorithm, index=index)
        answers = plan.run(tree.root, layout=doc.layout).answers
        assert answers and all(node is tree.nodes[node.node_id] for node in answers)
    for node in tree.nodes:
        assert all(kid is tree.nodes[kid.node_id] for kid in node.children)
        assert node.parent is None or node in node.parent.children


def test_concurrent_first_access_creates_one_object_per_id():
    """8 threads ask for every node of fresh trees in the same order, with
    a short switch interval so their first accesses of one id collide."""
    text = _hospital(patients=4)
    trees = [parse_xml(text) for _ in range(25)]
    seen: list[list] = [[] for _ in range(8)]
    start = threading.Barrier(8)

    def ask(slot: int) -> None:
        start.wait(timeout=10)
        seen[slot] = [tree.nodes[i] for tree in trees for i in range(tree.size)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(slot,)) for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for objects in zip(*seen):
        assert len({id(node) for node in objects}) == 1
    held = [tree.nodes[i] for tree in trees for i in range(tree.size)]
    assert all(node is first for node, first in zip(held, seen[0]))


def test_a_served_query_creates_no_node(monkeypatch):
    """Service, batch wave and reply ids walk node ids only."""
    created = []
    real = node_module._view
    monkeypatch.setattr(
        node_module, "_view", lambda *args: created.append(args[2]) or real(*args)
    )
    store = DocumentStore()
    doc = store.get(_hospital(patients=5))
    with QueryService(doc, document_store=store) as service:
        service.register_tenant("t", None)
        for query in FIG8.values():
            for algorithm in ALGORITHMS:
                service.submit("t", query, algorithm).ids()
        wave = service.submit_wave(
            [QueryRequest("t", query) for query in FIG8.values()] * 2
        )
        assert wave.admitted == len(wave.outcomes)
        for outcome in wave.outcomes:
            outcome.ids()
    assert created == []


def _live_nodes() -> int:
    return sum(type(o) is node_module.Node for o in gc.get_objects())


def test_a_dropped_tree_is_freed_by_refcount_while_an_answer_is_held():
    """Collector off: the tree and every other view go the moment the
    last holder lets go; a held answer keeps the columns it reads (and
    only those) until it goes too."""
    gc.collect()
    gc.disable()
    try:
        before = _live_nodes()
        doc = DocumentStore().get(_hospital())
        tree = doc.tree
        answers = compile_plan("//pname").run(tree.root, layout=doc.layout).answers
        answer = min(answers, key=lambda node: node.node_id)
        assert _live_nodes() == before + 1 + len(answers)  # root + answers
        refs = [weakref.ref(held) for held in (doc, tree, doc.layout)]
        columns = weakref.ref(tree.columns)
        name = answer.text()
        del doc, tree, answers
        assert [ref() for ref in refs] == [None] * len(refs)
        assert _live_nodes() == before + 1
        assert columns() is answer.columns
        assert [kid.value for kid in answer.children] == [name]
        del answer
        assert columns() is None
        assert _live_nodes() == before
    finally:
        gc.enable()
