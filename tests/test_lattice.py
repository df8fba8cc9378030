"""One oracle over the configuration lattice (``docs/robustness.md``).

Every configuration is held to the paper's oracle,
:func:`tests.oracle.reference`, not to a neighbour.  An example draws
inputs (a sample DTD's policy view or σ0, a random tree, or a wide
draw past 63 finals) and a value per axis: algorithm; alone or lane 0
of a wave (wavemates rotate the algorithm); own or on-demand layout;
compiled or Python descent and scan; fresh, L2, seeded, rehydrated,
shape plan (instantiated from a template compiled for other literals)
or frame plan (a text looked up after another text of its frame);
built, parsed or tier-loaded document.  Every lane answers like
the reference, in document order; the query's ``HyPEStats`` (and,
where serialised or instantiated, artifact bytes and closure tables)
equal the canonical point's: fresh, built, alone, own layout, Python
passes.  The reference itself is anchored to ElementTree.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import threading
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from repro.compile import PlanArtifact, QueryCompiler
from repro.compile.store import PlanStore
from repro.docstore import DocumentStore, IndexedDocument
from repro.dtd import hospital_dtd, hospital_view_dtd
from repro.dtd.generate import GeneratorConfig, generate_document
from repro.errors import AutomatonError, DeadlineError, QueryTooComplexError
from repro.guard import CHECK_INTERVAL, Deadline
from repro.hype import core, kernel
from repro.hype.api import ALGORITHMS, HYPE
from repro.hype.core import CompiledPlan
from repro.serve.batch import BatchEvaluator
from repro.serve.cache import CachedPlan, PlanCache
from repro.serve.fleet import FleetSpec, start_fleet
from repro.serve.frontend import FrontendClient
from repro.views import sigma0
from repro.views.security import AccessPolicy, derive_view
from repro.workloads import VIEW_QUERIES, HospitalConfig, generate_hospital_document
from repro.workloads.multidoc import HOSPITAL, MultiDocConfig, build_documents
from repro.xpath import ast
from repro.xpath.parser import parse_query
from repro.xpath.unparse import unparse
from repro.xtree import parse, parse_xml
from repro.xtree.build import element
from repro.xtree.node import XMLTree
from repro.xtree.parse import parse_canonical
from repro.xtree.serialize import serialize

from .oracle import as_etree, closure_tables, et_queries, reference
from .strategies import (
    CHURN, SRC_DTD, VIEWS as PROPERTY_VIEWS, gated_paths, other_literals, paths, trees,
)

PLANS = ("fresh", "l2", "seeded", "rehydrated", "shape", "frame")
DOCUMENTS = ("built", "parsed", "tier")
LAYOUTS = ("supplied", "on-demand")
PASSES = ("python", "compiled")
#: The passes this process has: the compiled ones only where they loaded.
HAVE = {
    "descent": PASSES if kernel.DESCENT == "compiled" else ("python",),
    "scan": PASSES if parse.SCAN == "compiled" else ("python",),
}
RECORD = {"descent": kernel.DESCENT, "scan": parse.SCAN}
EXAMPLES = 200
FLEET_EXAMPLES = 25
SLOW = [HealthCheck.too_slow, HealthCheck.data_too_large]


@dataclass(frozen=True)
class Point:
    algorithm: str
    wavemates: int = 0
    layout: str = "supplied"
    descent: str = "python"
    scan: str = "python"
    plan: str = "fresh"
    document: str = "built"


@contextmanager
def passes(descent: str, scan: str):
    """The Python passes where asked, the compiled ones otherwise."""
    saved = kernel._descend_lane, kernel._cold, core._collect_answers, parse._scan
    if descent == "python":
        kernel._descend_lane, kernel._cold = kernel._descend_lane_py, None
        core._collect_answers = CompiledPlan._collect_answers_py
    if scan == "python":
        parse._scan = None
    try:
        yield
    finally:
        kernel._descend_lane, kernel._cold, core._collect_answers, parse._scan = saved


def _skip_missing(**axes) -> None:
    for axis, value in axes.items():
        if value not in HAVE[axis]:
            pytest.skip(f"{axis} is {RECORD[axis]!r}")


DTDS = {"hospital": hospital_dtd(), "hospital-view": hospital_view_dtd()}
TEXTS = ("v", "w")


@dataclass
class Inputs:
    spec: object  # a ViewSpec, or None: the source itself
    tree: XMLTree
    query: ast.Path
    mates: list
    context: int = 0  # the node every lane runs at (the root of a view)


@functools.lru_cache(maxsize=None)
def _queries(labels: tuple, texts: tuple = TEXTS) -> st.SearchStrategy:
    """One query strategy per label set (building one is the slow part)."""
    return paths(max_leaves=6, labels=labels, texts=texts)


@st.composite
def policies(draw, dtd):
    """Per DTD edge: allow, deny, or visible under a filter on the child."""
    rules = {}
    for parent, child in sorted(set(dtd.edges())):
        rule = draw(st.sampled_from(("allow", "allow", "allow", "deny", "filter")))
        if rule == "filter":
            below = dtd.child_types(child)
            text = f"text() = '{draw(st.sampled_from(TEXTS))}'"
            test = draw(st.sampled_from(below)) if below else text
            rule = draw(st.sampled_from((test, f"not({test})")))
        if rule != "allow":
            rules[(parent, child)] = rule
    return AccessPolicy(dtd, rules)


@st.composite
def view_inputs(draw) -> Inputs:
    """A sample DTD with a policy's view or σ0, or one of the views of
    ``tests/strategies.py``."""
    name = draw(st.sampled_from([*sorted(DTDS), "properties"]))
    if name == "properties":
        spec, dtd, texts = draw(st.sampled_from(PROPERTY_VIEWS)), SRC_DTD, ("x", "y")
    else:
        dtd, texts = DTDS[name], TEXTS
        sigma = name == "hospital" and draw(st.booleans())
        spec = sigma0() if sigma else derive_view(draw(policies(dtd)))
    config = GeneratorConfig(
        seed=draw(st.integers(0, 2**16)), star_mean=0.9, max_depth=4, soft_depth=1,
        text_provider=lambda _label, rng: rng.choice(texts),
        star_overrides={(dtd.root, kid): 2.0 for kid in dtd.child_types(dtd.root)},
    )
    queries = _queries(tuple(sorted(spec.view_dtd.productions)), texts)
    mates = draw(st.lists(queries, min_size=3, max_size=3))
    return Inputs(spec, generate_document(dtd, config), draw(queries), mates)


@st.composite
def wide_inputs(draw) -> Inputs:
    """64-70 labels, each a branch of one union (one final each), and a
    filter of as many text comparisons at one node (the source itself)."""
    width = draw(st.integers(64, 70))
    kids = draw(st.lists(st.tuples(st.integers(0, width - 1), st.integers(0, width - 1)),
                         min_size=1, max_size=12))
    kids.append((width - 1, width - 1))  # a text whose predicate bit is past 63
    groups = ["".join(f"<x{x}>t{t}</x{x}>" for x, t in kids[i::3]) for i in range(3)]
    union = " | ".join(f"x{x}" for x in range(width))
    said = " or ".join(f"text() = 't{t}'" for t in range(width))
    query, *mates = [parse_query(q) for q in (
        f"*/({union})", f"*/({union})[{said}]", f"*[{union}]", f"//*[{said}]"
    )]
    return Inputs(None, parse_xml(f"<r><g>{'</g><g>'.join(groups)}</g></r>"), query, mates)


SOURCE_QUERIES = st.one_of(paths(), gated_paths())


@st.composite
def source_inputs(draw) -> Inputs:
    """A random tree, source queries (some gated: deaths happen), and
    one of its first elements."""
    tree = draw(trees())
    elements = [node.node_id for node in tree.nodes if node.is_element]
    mates = draw(st.lists(SOURCE_QUERIES, min_size=3, max_size=3))
    query = draw(SOURCE_QUERIES)
    return Inputs(None, tree, query, mates, draw(st.sampled_from(elements[:3])))


#: Per eight examples: four view draws, three random trees, one wide draw.
INPUTS = st.integers(0, 7).flatmap(
    lambda i: wide_inputs() if i == 0 else view_inputs() if i < 5 else source_inputs()
)
POINTS = st.builds(
    Point, st.sampled_from(ALGORITHMS), st.integers(0, 3), st.sampled_from(LAYOUTS),
    st.sampled_from(HAVE["descent"]), st.sampled_from(HAVE["scan"]),
    st.sampled_from(PLANS), st.sampled_from(DOCUMENTS),
)


COMPILER = QueryCompiler()
SHARED = PlanCache(64)  # the seeded point's cache, one per module


def _document(provenance: str, built: IndexedDocument, workdir: Path):
    if provenance == "built":
        return built
    text = serialize(built.tree)
    if provenance == "parsed":
        return IndexedDocument(parse_canonical(text)[0])
    first = DocumentStore(index_dir=workdir / "docs").get(text)
    first.index_for(False), first.index_for(True)
    return DocumentStore(index_dir=workdir / "docs").get(text)


def _retexted(tree: XMLTree) -> XMLTree:
    """``tree`` with every text turned to the next of its texts: the
    same labels (so the same label table), other answers."""
    texts = sorted({node.value for node in tree.nodes if node.is_text})
    turn = dict(zip(texts, texts[1:] + texts[:1]))

    def copy(node):
        kids = (turn[kid.value] if kid.is_text else copy(kid) for kid in node.children)
        return element(node.label, *kids)

    return XMLTree(copy(tree.root))


def _executable(provenance, algorithm, inputs, query, doc, workdir: Path, artifact=None):
    """``query``'s executable for ``doc`` and the artifact it was built
    from (``artifact``: one compiled under the same passes already) — an
    L2 or rehydrated plan's is the decoded one, closed on that build.  A
    seeded executable serves another document of the label set first."""
    spec = inputs.spec
    artifact = artifact or COMPILER.compile(spec, query)
    if provenance == "fresh":
        return CompiledPlan.for_algorithm(artifact.mfa, algorithm, doc.tree, doc), artifact
    if provenance == "l2":
        store = PlanStore(workdir / "plans")
        store.save(artifact.cache_key(), artifact)
        cache = PlanCache(4, store=store)
        cached = cache.plan(spec, query)
        assert cache.stats.l2_hits == 1
    elif provenance == "rehydrated":
        revived = PlanArtifact.from_bytes(artifact.to_bytes())
        cached = CachedPlan(revived.mfa, revived)
    elif provenance == "shape":
        cache = PlanCache(4)
        cache.plan(spec, other_literals(query))  # compiles the template
        cached = cache.plan(spec, query)
        stats = cache.stats  # the same text (no literal), or an instance
        assert (stats.hits, stats.shape_hits) in ((1, 0), (0, 1))
        return cached.compiled(algorithm, doc.tree, doc), cached.artifact
    elif provenance == "frame":
        cache = PlanCache(4)
        cache.plan(spec, unparse(other_literals(query)))  # learns the frame
        cached = cache.plan(spec, unparse(query))
        stats = cache.stats  # the same text (no literal), or a frame hit
        assert (stats.hits, stats.frame_hits) in ((1, 0), (0, 1))
        return cached.compiled(algorithm, doc.tree, doc), cached.artifact
    else:
        cached = SHARED.plan(spec, query)
        if algorithm == HYPE:  # THE HyPE executable: the closed table itself
            assert cached.compiled(HYPE, doc.tree, doc) is cached.artifact.closure
        other = IndexedDocument(_retexted(doc.tree))
        shared = cached.compiled(algorithm, other.tree, other)
        served = shared.run(other.tree.node(inputs.context), layout=other.layout).ids
        assert served == sorted(reference(spec, other.tree, query, inputs.context))
        assert cached.compiled(algorithm, doc.tree, doc) is shared
        return shared, artifact
    return cached.compiled(algorithm, doc.tree, doc), cached.artifact


def run_point(point: Point, inputs: Inputs, built, workdir: Path, artifacts=()):
    """Answer ids per lane (lane 0 the query), the query's stats, and
    its artifact bytes and closure tables where the point serialised it
    or instantiated it from a template (``artifacts``: per lane, one
    compiled under the same passes already)."""
    queries = [inputs.query, *inputs.mates[: point.wavemates]]
    with passes(point.descent, point.scan):
        doc = _document(point.document, built, workdir)
        first = ALGORITHMS.index(point.algorithm)  # wavemates rotate the algorithm
        algorithms = [ALGORITHMS[(first + lane) % 3] for lane in range(len(queries))]
        made = [
            _executable(point.plan, algorithm, inputs, query, doc, workdir, own)
            for algorithm, query, own in zip(algorithms, queries, [*artifacts, None, None, None, None])
        ]
        plans = [plan for plan, _artifact in made]
        layout = doc.layout if point.layout == "supplied" else None
        context = doc.tree.node(inputs.context)
        if point.wavemates:  # under a live deadline, as a served wave runs
            live = Deadline(time.perf_counter() + 3600)
            results = BatchEvaluator(plans).run(context, layout=layout, deadline=live).results
        else:
            results = [plans[0].run(context, layout=layout)]
        raw = None
        if point.plan in ("l2", "rehydrated", "shape", "frame"):
            raw = made[0][1].to_bytes(), closure_tables(made[0][1].closure)
    if point.document == "tier" and point.algorithm != HYPE:
        assert doc.stats.index_loads, "the tier point must load its index"
    return [result.ids for result in results], results[0].stats, raw


def check(point: Point, inputs: Inputs, workdir: Path):
    """``point`` answers like the oracle, in document order, with the
    canonical point's stats (and, where serialised, bytes and closure
    tables), which it returns.  A query over the compile budget is
    refused, not answered: the example is dropped."""
    queries = [inputs.query, *inputs.mates[: point.wavemates]]
    with passes("python", "python"):
        try:
            artifacts = [COMPILER.compile(inputs.spec, query) for query in queries]
        except QueryTooComplexError:
            reject()
    built = IndexedDocument(inputs.tree)
    canonical = Point(point.algorithm)
    ids, stats, _raw = run_point(canonical, inputs, built, workdir, artifacts[:1])
    expected = [
        sorted(reference(inputs.spec, inputs.tree, query, inputs.context)) for query in queries
    ]
    assert ids[0] == expected[0], ("canonical", unparse(inputs.query))
    assert stats.answers == len(ids[0])
    assert stats.visited_elements or not stats.skipped_subtrees  # a dead root prunes nothing
    if point == canonical:
        return stats
    # Under the Python passes the canonical compilations are the point's own.
    own = artifacts if point.descent == "python" else ()
    got, got_stats, raw = run_point(point, inputs, built, workdir, own)
    for lane, (answer, want) in enumerate(zip(got, expected)):
        assert answer == want, (point, lane)
    assert got_stats == stats, point
    if raw is not None:  # the canonical table was closed by the Python cold path
        assert raw == (artifacts[0].to_bytes(), closure_tables(artifacts[0].closure)), point
    return stats


def _view(view):
    if view is None or view == "sigma0":
        return view and sigma0()
    rules = {(parent, child): rule for parent, child, rule in view["rules"]}
    return derive_view(AccessPolicy(DTDS[view["dtd"]], rules))


@pytest.mark.parametrize("case", [
    pytest.param(json.loads(path.read_text()), id=path.stem)
    for path in sorted((Path(__file__).parent / "corpus").glob("*.json"))
])
def test_the_corpus_replays(case, tmp_path):
    """A case: ``view`` (``"sigma0"``, ``null`` for the source, or
    ``{"dtd", "rules": [[parent, child, rule]]}``), the source
    ``document`` as XML, a ``query``, its ``mates`` and the ``point``."""
    point = Point(**case["point"])
    _skip_missing(descent=point.descent, scan=point.scan)
    query, *mates = [parse_query(q) for q in (case["query"], *case["mates"])]
    check(point, Inputs(_view(case["view"]), parse_xml(case["document"]), query, mates), tmp_path)


@given(inputs=INPUTS, point=POINTS)
@settings(max_examples=EXAMPLES, deadline=None, suppress_health_check=SLOW)
def test_every_point_answers_like_the_oracle(inputs, point, tmp_path_factory):
    check(point, inputs, tmp_path_factory.getbasetemp())


#: σ0 over a hospital; wavemates from ``plan_churn``'s templates.
PINNED = Inputs(
    sigma0(),
    generate_hospital_document(HospitalConfig(num_patients=4, seed=5)),
    parse_query(VIEW_QUERIES["example-4.1"]),
    [parse_query(query) for query in CHURN[1::3]],
)


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("scan", PASSES)
@pytest.mark.parametrize("descent", PASSES)
def test_every_point_once(descent, scan, algorithm, plan, tmp_path):
    """The product of the other axes over the σ0 hospital inputs, one
    test per pass pair, algorithm and plan, so a failure names them.
    The inputs fail gates (a view qualifier is false somewhere)."""
    _skip_missing(descent=descent, scan=scan)
    for wavemates, layout, document in itertools.product((0, 3), LAYOUTS, DOCUMENTS):
        point = Point(algorithm, wavemates, layout, descent, scan, plan, document)
        assert check(point, PINNED, tmp_path).gate_failures


@pytest.mark.parametrize("descent", PASSES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_pass_refuses_what_it_must(algorithm, descent):
    """Over ``//.[text()='x']`` (no index decides it) and a document
    longer than a deadline checkpoint interval, every pass raises, never
    answers: past an expired deadline, and with ``NOT(OR(itself))`` wired
    under the gate, where the reference, ``AFAPool._analyze``, raises."""
    _skip_missing(descent=descent)
    doc = IndexedDocument(parse_xml("<a>x" + "<b>x</b>" * (CHECK_INTERVAL + 8) + "</a>"))
    with passes(descent, "python"):
        mfa = COMPILER.compile(None, "//.[text() = 'x']").mfa
        plan = CompiledPlan.for_algorithm(mfa, algorithm, doc.tree, doc)
        with pytest.raises(DeadlineError):
            plan.run(doc.tree.root, layout=doc.layout, deadline=Deadline(time.perf_counter() - 1))
        hub = mfa.pool.new_or()
        mfa.pool.wire(hub, mfa.pool.new_not(hub))
        for state, gate in list(mfa.nfa.ann.items()):
            mfa.nfa.ann[state] = mfa.pool.new_and([gate, hub])
        plan = CompiledPlan.for_algorithm(mfa, algorithm, doc.tree, doc)
        with pytest.raises(AutomatonError, match="ε-cycle"):
            plan.run(doc.tree.root, layout=doc.layout)


FLEET_CONFIG = MultiDocConfig(patients=4, tenants=1, curators=1, terms=8, chain_depth=3)
#: Tenant -> its view (``build_multidoc_service``).
FLEET_VIEWS = {"inst-0": sigma0(), "admin": None}


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """``(ask(message) -> reply, the hospital tree)`` of a 2-worker
    fleet driven from an event loop of its own."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def call(coroutine, timeout=120.0):
        return asyncio.run_coroutine_threadsafe(coroutine, loop).result(timeout)

    work = tmp_path_factory.mktemp("fleet")
    spec = FleetSpec(config=FLEET_CONFIG.as_dict(), plan_dir=str(work / "plans"),
                     doc_dir=str(work / "docs"), max_wait_ms=1.0)
    acceptor = call(start_fleet(spec, workers=2))
    client = call(FrontendClient.connect(acceptor.host, acceptor.port))
    try:
        hospital = build_documents(FLEET_CONFIG)[HOSPITAL]
        yield (lambda message: call(client.request(message))), hospital
    finally:
        call(client.aclose())
        call(acceptor.close())
        loop.call_soon_threadsafe(loop.stop)
        thread.join()
        loop.close()


@st.composite
def fleet_requests(draw):
    tenant = draw(st.sampled_from(sorted(FLEET_VIEWS)))
    spec = FLEET_VIEWS[tenant]
    labels = tuple(sorted((spec.view_dtd if spec else hospital_dtd()).productions))
    return tenant, draw(_queries(labels, ("heart disease", "v"))), draw(st.sampled_from(ALGORITHMS))


@given(request=fleet_requests())
@settings(max_examples=FLEET_EXAMPLES, deadline=None, suppress_health_check=SLOW)
@example(request=("inst-0", PINNED.query, HYPE))
def test_the_fleet_answers_like_the_oracle(fleet, request):
    ask, hospital = fleet
    tenant, query, algorithm = request
    message = {"op": "query", "tenant": tenant, "query": unparse(query), "algorithm": algorithm}
    reply = ask({**message, "limit": -1})
    assert reply["ok"], reply
    assert reply["ids"] == sorted(reference(FLEET_VIEWS[tenant], hospital, query)), message


@given(trees(), et_queries())
@settings(max_examples=150, deadline=None)
def test_the_reference_reads_like_elementtree(tree, query):
    ours, theirs = query
    ids: dict = {}
    found = as_etree(tree.root, ids).findall(theirs)
    assert reference(None, tree, ours) == {ids[id(hit)] for hit in found}, query


def test_the_text_deviation_is_the_string_value():
    """``b`` in ``<a><b>x<c>y</c></b></a>``: own text ``x``, string
    value ``xy``; on the leaf ``c`` the readings agree."""
    text = "<a><b>x<c>y</c></b></a>"
    tree, root = parse_xml(text), ET.fromstring(text)
    assert reference(None, tree, "b[text()='x']") == {1}
    assert root.findall("./b[.='x']") == [] and root.findall("./b[.='xy']")
    assert reference(None, tree, "b/c[text()='y']") == {3}
    assert len(root.findall("./b/c[.='y']")) == 1
