"""Collector hygiene of the plan-miss and document-ingest paths (tier-1).

A missed plan is built once and owned one way — cached plan → artifact
→ index-free executable → dense kernel, no back-pointers — so LRU
eviction frees it by reference count.  A document is owned one way too —
store entry → tree → nodes → children, a node knowing its parent by id
and its tree weakly — so an evicted, released document is freed the same
way, whatever still holds one of its nodes.  The checks themselves live
in ``benchmarks/churn_hygiene.py`` (``make churn-smoke`` runs them
outside pytest); here they are assertions.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.docstore import DocumentStore
from repro.errors import EvaluationError
from repro.hype.api import ALGORITHMS
from repro.serve.cache import PlanCache
from repro.workloads import HospitalConfig, generate_hospital_document
from repro.xtree import Node, parse_xml, serialize, text_node

from .strategies import load_hygiene


@pytest.fixture(scope="module")
def hygiene():
    return load_hygiene()


def test_evicted_plans_leave_no_cyclic_garbage(hygiene):
    """>= 64 never-seen queries through a capacity-4 cache under
    ``DEBUG_SAVEALL``: nothing of the program's — no ``repro.*`` object,
    and so no list/dict/tuple hanging off one — waits for the cycle
    collector."""
    garbage = hygiene.cyclic_garbage(requests=96, capacity=4)
    kinds = sorted({f"{type(o).__module__}.{type(o).__name__}" for o in garbage})
    assert not [kind for kind in kinds if kind.startswith("repro.")], kinds
    assert garbage == [], kinds


def test_an_evicted_plan_dies_by_reference_count(hygiene):
    """With the collector OFF, the cached plan, its executable and its
    dense kernel are gone the moment the LRU drops the entry."""
    churn = hygiene.ChurnService(capacity=2)
    gc.collect()
    gc.disable()
    try:
        churn.drive(1)
        (key,) = list(churn.cache.keys())
        cached = churn.cache.get(key)
        (executable,) = cached.executables()
        refs = [
            weakref.ref(cached),
            weakref.ref(cached.artifact),
            weakref.ref(executable),
            weakref.ref(executable.kernel),
        ]
        del cached, executable
        assert all(ref() is not None for ref in refs)
        churn.drive(2)  # capacity 2: the first entry is evicted
        assert key not in churn.cache
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()
        churn.close()


def test_an_evicted_template_dies_by_reference_count(hygiene):
    """The eight churn templates through a capacity-4 cache evict shape
    templates continuously; with the collector OFF, none outlives its
    eviction (instances share its automaton, never point back)."""
    evicted, alive = hygiene.evicted_templates_alive(requests=48, capacity=4)
    assert evicted > 0 and alive == 0


def test_tracked_objects_per_cached_plan(hygiene):
    """What each L1 entry adds to every later collection's traversal
    (509 before the payload, the second plan and the per-state ``eps``
    lists stopped being retained)."""
    assert hygiene.tracked_per_plan(256) <= 350


def test_the_closure_computes_only_named_columns(hygiene):
    """``_compute_child_sets`` calls per compile on the churn templates
    (97 when every (cfg, column) pair was computed)."""
    counts = hygiene.collections_and_calls(requests=64, capacity=16)
    assert counts["child_sets_calls_per_compile"] <= 40


# ----------------------------------------------------------------------
# The document side
# ----------------------------------------------------------------------
def _hospital_text(seed: int) -> str:
    return serialize(
        generate_hospital_document(HospitalConfig(num_patients=2, seed=seed))
    )


def _live_nodes() -> int:
    return sum(type(o) is Node for o in gc.get_objects())


def test_evicted_documents_leave_no_cyclic_garbage(hygiene):
    """Twelve never-seen documents through a capacity-2 store behind
    services that are dropped, under ``DEBUG_SAVEALL`` (one ``Node`` and
    one ``list`` per element waited for the collector while ``parent``
    was an object reference)."""
    garbage = hygiene.document_garbage(documents=12, capacity=2)
    assert garbage == [], hygiene._kinds(garbage)


def test_an_evicted_document_dies_by_reference_count():
    """With the collector OFF, the wrapper, tree, layout, both indexes
    and every node are gone the moment the store evicts the entry and
    the caller lets go — after the document was served by all three
    algorithms through a cached plan.  The index belongs to the layout
    (an executable holds none, so the masks go at once); rows and
    OptHyPE executables belong to the label table, which the last
    document of the label set takes with it."""
    texts = [_hospital_text(seed) for seed in (11, 12, 13)]
    store = DocumentStore(capacity=2)
    cached = PlanCache(8).plan(None, "//patient")
    gc.collect()
    gc.disable()
    try:
        before = _live_nodes()
        doc = store.get(texts[0])
        results = [
            cached.compiled(algorithm, doc.tree, doc).run(
                doc.root, layout=doc.layout
            )
            for algorithm in ALGORITHMS
        ]
        assert all(result.answers for result in results)
        per_table = [
            plan for plan in cached.executables() if plan.bit_of is not None
        ]
        assert len(per_table) == 2
        table = doc.layout.table
        assert table.rows_for(per_table[0])
        assert doc.layout.indexes == {
            False: doc.index_for(False),
            True: doc.index_for(True),
        }
        refs = [
            weakref.ref(held)
            for held in (
                doc,
                doc.tree,
                doc.layout,
                doc.index_for(False),
                doc.index_for(True),
            )
        ]
        shared = [weakref.ref(held) for held in (table, *per_table)]
        # Nodes are created on demand only: the context and the answers
        # asked for above (every node existed once the tree was parsed).
        asked = {doc.root, *(node for result in results for node in result.answers)}
        assert _live_nodes() == before + len(asked)
        del doc, results, per_table, table, asked
        assert all(ref() is not None for ref in refs)  # the store's entry
        store.get(texts[1])
        store.get(texts[2])  # capacity 2: the first document is evicted
        assert [ref() for ref in refs] == [None] * len(refs)
        # Same DTD: the two live documents keep the table, and with it
        # the two executables every document of the label set runs on.
        assert all(ref() is not None for ref in shared)
        assert all(store.get(text).size for text in texts[1:])  # hits
        assert _live_nodes() == before  # nobody asked the live ones for a node
        store.get("<other/>")
        store.get("<another/>")  # the last hospital document is evicted
        assert [ref() for ref in shared] == [None] * len(shared)
        assert len(cached.executables()) == 1  # the index-free one
    finally:
        gc.enable()


def test_tables_and_executables_of_dead_label_sets_are_gone():
    """With the collector OFF, documents of 100 distinct label sets
    through a capacity-2 store under one cached plan: a label table, its
    interned masks and its executables live exactly as long as a
    document of that label set does (an executable holds the table's
    bit map and mask list, never the table), so the plan holds at most
    two executables per live table plus the index-free one."""
    store = DocumentStore(capacity=2)
    cached = PlanCache(8).plan(None, "//item[note]")
    gc.collect()
    gc.disable()
    try:
        tables, plans = [], []
        for n in range(100):
            doc = store.get(f"<r><item><note/></item><item/><kind-{n}/></r>")
            for algorithm in ALGORITHMS:
                plan = cached.compiled(algorithm, doc.tree, doc)
                assert len(plan.run(doc.root, layout=doc.layout).answers) == 1
                if plan.bit_of is not None:
                    plans.append(weakref.ref(plan))
            tables.append(weakref.ref(doc.layout.table))
            del doc, plan
            live = sum(ref() is not None for ref in tables)
            assert live <= store.capacity
            assert len(cached.executables()) <= 2 * live + 1
        assert sum(ref() is not None for ref in tables) == 2
        assert sum(ref() is not None for ref in plans) == 4
    finally:
        gc.enable()


def test_executables_are_per_label_table_not_per_document(hygiene):
    """``doc_churn`` in miniature with every document still held: a
    cached plan holds executables for its label tables, however many
    documents share them."""
    most, tables, documents = hygiene.executables_per_plan(documents=8)
    assert tables < documents
    assert most <= 2 * tables + 1


def test_a_held_node_pins_its_columns_not_its_document():
    """An answer outlives its document: the subtree stays readable, the
    way up raises the documented error, nothing else is kept.  A node
    holds its document's columns now (it held its subtree's nodes), so
    what it keeps is those columns plus the views its reads create."""
    gc.collect()
    gc.disable()
    try:
        before = _live_nodes()
        tree = parse_xml("<a><b><c>x</c><c>y</c></b><d>z</d></a>")
        held = tree.node(1)
        assert held.parent is tree.root
        assert [a.label for a in tree.node(3).iter_ancestors()] == ["c", "b", "a"]
        tree_ref, columns_ref = weakref.ref(tree), weakref.ref(tree.columns)
        del tree
        assert tree_ref() is None
        assert _live_nodes() == before + 1  # held: the other views went
        assert columns_ref() is held.columns  # ... and what it reads
        assert [n.label for n in held.iter_subtree()][:2] == ["b", "c"]
        assert [c.text() for c in held.children] == ["x", "y"]
        assert _live_nodes() == before + 5  # b, c, x, c, y
        with pytest.raises(EvaluationError, match="released"):
            held.parent
        with pytest.raises(EvaluationError, match="released"):
            next(held.iter_ancestors())
        del held
        assert _live_nodes() == before
        assert columns_ref() is None
    finally:
        gc.enable()


def test_a_very_deep_document_dies_by_reference_count():
    """200 000 nested elements: freeing the chain by reference count
    neither recurses through the interpreter stack nor waits for the
    collector."""
    depth = 200_000
    tree = parse_xml("<a>" * depth + "</a>" * depth)
    assert tree.size == depth
    gc.collect()
    gc.disable()
    try:
        ref = weakref.ref(tree)
        del tree
        assert ref() is None
        assert _live_nodes() < depth
    finally:
        gc.enable()


def test_a_text_node_is_a_leaf():
    """Text nodes share one empty child tuple (no list a document can
    never fill), so building under one is refused."""
    leaf = text_node("x")
    assert leaf.children == ()
    assert leaf.children is text_node("y").children
    with pytest.raises(EvaluationError):
        leaf.append(Node("b"))
    with pytest.raises(EvaluationError):
        leaf.extend([Node("b")])


def test_tracked_objects_per_document(hygiene):
    """What each held document adds to every later collection's
    traversal, whatever its node count (3.2 per node with a child list
    per text node; 878 for a 484-node document while every node was an
    object): a parsed document is columns."""
    tracked, nodes = hygiene.tracked_per_document(documents=4)
    assert tracked <= hygiene.TRACKED_PER_DOCUMENT_FLOOR
    assert nodes > 2 * hygiene.TRACKED_PER_DOCUMENT_FLOOR
