"""The compiled cold path against its reference: a never-seen plan's
dense closure and its first run's pop fills.

``repro.hype.kernel.close`` closes a plan's dense table with ``_lean.c``
(``kernel._cold``) when ``kernel.DESCENT == "compiled"``, else with
:func:`kernel._close_py`; the compiled lean pass resolves a pop miss in
C, where :func:`kernel._descend_lane_py` calls
:meth:`DenseKernel.fill_pop`.  The rule both sides keep: order is by
state id, contents decide.  A cfg's watch tuple and predicate bits walk
its relevant set in ascending state id, so no table depends on how a set
object was built (its iteration order).  Here:

* **differential** — for the churn templates, FIG8 and the σ0 queries,
  two MFAs compiled independently from one query are closed one by each
  side.
  The closure record, every interned set (id and contents), the cfg and
  transition tables, the NFA's ε-closures (contents), the closure tables
  (:func:`tests.oracle.closure_tables`) and ``PlanArtifact.to_bytes()``
  are identical.  Then each side runs all three algorithms cold (every
  pop a miss) and warm: answers, :class:`HyPEStats`, the pop tables,
  ``_pop_cache`` and ``_dead_cache`` (entries and their order) are
  identical.  On generated documents and
  queries the oracle lattice (``tests/test_lattice.py``) holds both
  sides' answers and stats to the reference, and the closure tables of a
  plan closed by the compiled side to the Python side's;
* **contents decide** — a plan whose sets were interned beforehand with
  other insertion histories closes and runs to the same closure tables
  and pop tables as a plain plan, and no plan mints two cfgs for one
  configuration, seeded or closed again from its decoded artifact;
* **the reference alone** — the same comparisons between two
  independent reference closures and runs.  This is what the ``CC=false``
  job asserts (the compiled cases skip there): the determinism the
  compiled side is held to;
* **bounds and references** — a mangled automaton (transition, ε,
  λ, target and operator ids out of range, a closure row naming a state
  past the automaton, no ε-closures at all, a wrong kind or arity) and
  mangled cfg tables (a set naming a state at or past the automaton's
  size) raise and never crash; 2 000 cold plans, some cut
  short by a raising predicate, leave allocated blocks and live sets
  where they were.  These run in a subprocess, so a crash fails the test
  instead of killing the suite.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import textwrap
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.compile import PlanArtifact, QueryCompiler
from repro.docstore import IndexedDocument
from repro.hype import kernel
from repro.hype.api import ALGORITHMS, HYPE, to_mfa
from repro.hype.core import CompiledPlan
from repro.rewrite.mfa_rewrite import rewrite_query, trim_mfa
from repro.serve.cache import CachedPlan
from repro.views import sigma0
from repro.workloads import FIG8, VIEW_QUERIES, HospitalConfig, generate_hospital_document

from .oracle import closure_tables

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

compiled_only = pytest.mark.skipif(
    kernel._cold is None, reason=f"descent is {kernel.DESCENT!r}"
)
SIDES = ["python", pytest.param("compiled", marks=compiled_only)]


def _churn_templates() -> tuple[str, ...]:
    """The plan_churn workload's query templates (benchmarks/e2e)."""
    spec = importlib.util.spec_from_file_location(
        "_e2e_inputs", ROOT / "benchmarks" / "e2e" / "inputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module.CHURN_TEMPLATES


SIGMA0 = sigma0()
#: (query, on σ0?) — every churn template with a fresh constant, FIG8 on
#: the source, the σ0 queries on the view.
NAMED = (
    [(t.format(c=f"cold{i}"), True) for i, t in enumerate(_churn_templates())]
    + [(query, False) for query in FIG8.values()]
    + [(query, True) for query in VIEW_QUERIES.values()]
)


@pytest.fixture(scope="module")
def docs():
    """Two hospital documents — held by this module only, so their label
    table dies with it (other suites count live tables)."""
    return [
        IndexedDocument(generate_hospital_document(HospitalConfig(num_patients=n, seed=s)))
        for n, s in ((2, 3), (6, 11))
    ]


def fresh_mfa(query, on_view: bool = False):
    """An MFA compiled from scratch (no ε-closures computed yet)."""
    if not on_view:
        return to_mfa(query)
    normalized = QueryCompiler().normalize(query)
    return trim_mfa(rewrite_query(SIGMA0, normalized.ast, trim=False))


@contextmanager
def side(name: str):
    """Run ``kernel.close`` and the lean pass of one side."""
    saved = kernel._cold, kernel._descend_lane
    if name == "python":
        kernel._cold, kernel._descend_lane = None, kernel._descend_lane_py
    try:
        yield
    finally:
        kernel._cold, kernel._descend_lane = saved


def contents(sets) -> list:
    """Each set's members in ascending state id: what a set *is*."""
    return [sorted(s) for s in sets]


def closure_state(plan) -> dict:
    """Everything a closure leaves: ids, contents, tables and bytes."""
    kern = plan.kernel
    order, children, bases, num_cfgs = kern.closure
    return {
        "record": (list(order), list(children), contents(bases), num_cfgs),
        "sets": [(sorted(canon), set_id) for canon, set_id in plan._set_ids.values()],
        "cfg ids": list(kern.cfg_ids.items()),
        "cfg sets": (contents(kern.cfg_mstates), contents(kern.cfg_relevant)),
        "cfg rows": (kern.cfg_watch, kern.cfg_m, kern.cfg_r, kern.cfg_has_ann),
        "packed": kern.cfg_packed,
        "trans": list(kern.trans.items()),
        "closures": contents(plan.mfa.nfa._closure),
        "tables": closure_tables(plan),
        "bytes": PlanArtifact(mfa=plan.mfa, normalized_query="q", closure=plan).to_bytes(),
    }


def pop_state(plan) -> dict:
    """A plan's pop tables and caches, entry order included."""
    kern = plan.kernel
    return {
        # Predicates by value: the two sides' MFAs hold equal, distinct ones.
        "pops": [
            ([(bit, holds.__self__) for bit, holds in preds], list(outcomes.items()))
            for preds, outcomes in kern.pops
        ],
        "pop cache": [(key, list(v.items())) for key, v in plan._pop_cache.items()],
        "dead cache": list(plan._dead_cache.items()),
    }


def run_side(name: str, mfa, docs) -> tuple[dict, list]:
    """Close ``mfa`` and run it, cold then warm, under all three
    algorithms on ``docs`` with one side; what it left behind."""
    with side(name):
        closed = CompiledPlan(mfa)
        kernel.close(closed)
        closure = closure_state(closed)
        runs = []
        for doc in docs:
            for algorithm in ALGORITHMS:
                if algorithm == HYPE:
                    plan = closed
                else:
                    plan = CompiledPlan.for_algorithm(mfa, algorithm, doc.tree, doc)
                    plan.kernel.seed(plan, closed.kernel)
                for _temperature in ("cold", "warm"):
                    result = plan.run(0, layout=doc.layout)
                    runs.append((algorithm, result.ids, result.stats, pop_state(plan)))
    return closure, runs


def assert_same(query, on_view, docs, sides=("python", "compiled")) -> None:
    (closure_a, runs_a), (closure_b, runs_b) = (
        run_side(name, fresh_mfa(query, on_view), docs) for name in sides
    )
    for key in closure_a:
        assert closure_a[key] == closure_b[key], (query, key)
    assert len(runs_a) == len(runs_b)
    for run_a, run_b in zip(runs_a, runs_b):
        assert run_a == run_b, (query, run_a[0])


class TestCompiledEqualsPython:
    @pytest.mark.parametrize("name", SIDES)
    @pytest.mark.parametrize("query, on_view", NAMED)
    def test_named_queries(self, name, query, on_view, docs):
        assert_same(query, on_view, docs, sides=("python", name))

    @pytest.mark.parametrize("name", SIDES)
    def test_truth_carrying_pops_are_exercised(self, name, docs):
        """A filter whose truth travels up from a child: the fills keyed by
        a truth set (three-part cache keys) take the same path."""
        query = "//patient[visit/treatment/medication]/pname"
        assert_same(query, False, docs, sides=("python", name))
        _closure, runs = run_side(name, fresh_mfa(query), docs)
        assert any(len(key) == 3 for *_, state in runs for key, _v in state["pop cache"])

    @pytest.mark.parametrize("name", SIDES)
    def test_a_truncated_closure_matches(self, name, monkeypatch):
        """max_cfgs cuts the BFS in the same place on both sides."""
        query, on_view = NAMED[7]
        states = []
        for each in ("python", name):
            with side(each):
                plan = CompiledPlan(fresh_mfa(query, on_view))
                kernel.close(plan, max_cfgs=3)
                states.append(closure_state(plan))
        assert states[0] == states[1]
        # DEAD and the root count as seen: the cap admits one child more.
        assert len(states[0]["record"][0]) == 2

    @compiled_only
    def test_eps_closures_match_the_reference(self):
        for query, on_view in NAMED:
            mfa = fresh_mfa(query, on_view)
            compiled = kernel._cold.eps_closures(mfa.nfa.eps)
            mfa.nfa._compute_closures()
            assert all(type(c) is frozenset for c in compiled), query
            assert compiled == mfa.nfa._closure, query

    def test_close_follows_descent(self):
        plan = CompiledPlan(fresh_mfa("a[b]/c"))
        assert (kernel._cold is None) == kernel.DESCENT.startswith("python")
        kernel.close(plan)
        with side("python"):
            reference = CompiledPlan(fresh_mfa("a[b]/c"))
            kernel.close(reference)
        assert closure_state(plan) == closure_state(reference)


# ----------------------------------------------------------------------
# Contents decide: no table depends on how a set object was built
# ----------------------------------------------------------------------
def reversed_history(members) -> frozenset:
    """A set built by inserting ``members`` in descending order — another
    insertion history, and for small int sets often another iteration
    order, than the plan's own construction gives it."""
    return frozenset(sorted(members, reverse=True))


def run_algorithms(name: str, mfa, doc, history=None) -> tuple[dict, tuple, list]:
    """One side closes ``mfa``'s index-free plan, seeds the OptHyPE(-C)
    plans from it and runs each algorithm on ``doc``, cold then warm.
    ``history`` maps an algorithm to set contents in id order: that plan
    interns them (:func:`reversed_history`) before anything else.
    Returns the plans, the artifact bytes with the closure tables and
    what each run left."""
    plans, runs = {}, []
    with side(name):
        for algorithm in ALGORITHMS:
            if algorithm == HYPE:
                plan = CompiledPlan(mfa)
            else:
                plan = CompiledPlan.for_algorithm(mfa, algorithm, doc.tree, doc)
            for members in (history or {}).get(algorithm, ()):
                plan._intern(reversed_history(members))
            if algorithm == HYPE:
                kernel.close(plan)
            else:
                plan.kernel.seed(plan, plans[HYPE].kernel)
            plans[algorithm] = plan
            for _temperature in ("cold", "warm"):
                result = plan.run(0, layout=doc.layout)
                runs.append((algorithm, result.ids, result.stats, pop_state(plan)))
        artifact = PlanArtifact(mfa=mfa, normalized_query="q", closure=plans[HYPE])
        return plans, (artifact.to_bytes(), closure_tables(plans[HYPE])), runs


@pytest.fixture(scope="module")
def doc30():
    """A 30-patient hospital document (module-held, like ``docs``)."""
    return IndexedDocument(
        generate_hospital_document(HospitalConfig(num_patients=30, seed=7))
    )


class TestContentsDecide:
    @pytest.mark.parametrize("name", SIDES)
    def test_other_insertion_histories_change_nothing(self, name, docs):
        """Pre-interning a plan's sets with other insertion histories
        leaves its closure tables, pop tables, answers and stats as a
        plain plan's: the tables read set contents, never iteration
        order."""
        doc = docs[1]
        reordered = 0
        for query, on_view in NAMED:
            mfa = fresh_mfa(query, on_view)
            plain, plain_closure, plain_runs = run_algorithms(name, mfa, doc)
            history = {
                algorithm: [sorted(s) for s, _id in plan._set_ids.values()]
                for algorithm, plan in plain.items()
            }
            reordered += sum(
                list(reversed_history(s)) != list(s)
                for plan in plain.values()
                for s, _id in plan._set_ids.values()
            )
            permuted, permuted_closure, permuted_runs = run_algorithms(
                name, mfa, doc, history
            )
            assert permuted_closure == plain_closure, query
            assert permuted_runs == plain_runs, query
            for algorithm, plan in permuted.items():
                assert plan._set_ids.keys() == plain[algorithm]._set_ids.keys()
        assert reordered, "no pre-interned set iterates in another order"

    @pytest.mark.parametrize("name", SIDES)
    def test_one_cfg_per_configuration(self, name, doc30):
        """No two cfgs of one plan share ``(mstates, relevant, watch
        contents)``, under every algorithm, after a run — whether the plan
        was seeded from the closed plan or rehydrated from its artifact
        (whose decoded automaton is closed again, as the plan cache does
        on a rehydrated plan's first build)."""
        for query, on_view in NAMED:
            seeded, (raw, tables), _runs = run_algorithms(
                name, fresh_mfa(query, on_view), doc30
            )
            stored = PlanArtifact.from_bytes(raw)
            with side(name):
                cached = CachedPlan(stored.mfa, stored)
                rehydrated = {
                    algorithm: cached.compiled(algorithm, doc30.tree, doc30)
                    for algorithm in ALGORITHMS
                }
                assert closure_tables(stored.closure) == tables, query
                for plan in rehydrated.values():
                    plan.run(0, layout=doc30.layout)
            for how, plans in (("seeded", seeded), ("rehydrated", rehydrated)):
                for algorithm, plan in plans.items():
                    kern = plan.kernel
                    cfgs = {}
                    for cfg, key in enumerate(
                        zip(kern.cfg_mstates, kern.cfg_relevant, map(frozenset, kern.cfg_watch))
                    ):
                        first = cfgs.setdefault(key, cfg)
                        assert first == cfg, (query, how, algorithm, first, cfg)


# ----------------------------------------------------------------------
# Bounds and references, each in a subprocess
# ----------------------------------------------------------------------
_PRELUDE = """
import gc, sys
from repro.docstore import IndexedDocument
from repro.hype import kernel
from repro.hype.api import to_mfa
from repro.hype.core import CompiledPlan
from repro.automata.afa import TextPred
from repro.workloads import HospitalConfig, generate_hospital_document

doc = IndexedDocument(generate_hospital_document(HospitalConfig(num_patients=3, seed=5)))
QUERY = "//patient[visit/treatment/medication/text() = 'headache' or not(.//test)]/pname"
_mfa = to_mfa(QUERY)
N_NFA, N_AFA = _mfa.nfa.num_states, len(_mfa.pool.states)
#: A state id past both automata that the flat automaton's bit rows hold.
IN_ROW_PAST = 64 * (max(N_NFA, N_AFA) // 64 + 1) - 1
"""

_MANGLED = _PRELUDE + """
def mangles():
    def labelled(m):
        return next(iter(next(t for t in m.nfa.trans if t).values()))
    yield "trans target", lambda m: labelled(m).add(10**6)
    yield "negative trans target", lambda m: labelled(m).add(-1)
    yield "closures", lambda m: setattr(m.nfa, "_closure", m.nfa._closure[:1])
    yield "closure member", lambda m: m.nfa._closure.__setitem__(0, frozenset({10**6}))
    yield "closure row past the automaton", lambda m: m.nfa._closure.__setitem__(
        0, frozenset({0, IN_ROW_PAST})
    )
    yield "lambda entry", lambda m: m.nfa.ann.__setitem__(m.nfa.start, 10**6)
    yield "lambda state", lambda m: m.nfa.ann.__setitem__(10**6, 0)
    def first(m, kind):
        return next(s for s in m.pool.states if s.kind == kind)
    yield "eps", lambda m: first(m, "or").eps.append(10**6)
    yield "negative eps", lambda m: first(m, "or").eps.append(-3)
    yield "afa target", lambda m: setattr(first(m, "trans"), "target", 10**6)
    yield "kind", lambda m: setattr(first(m, "final"), "kind", "maybe")
    yield "not arity", lambda m: first(m, "not").eps.append(0)
    yield "trans map", lambda m: m.nfa.trans.__setitem__(0, [])

failures, runs = [], 0
for name, mangle in mangles():
    mfa = to_mfa(QUERY)
    mfa.nfa._compute_closures()
    mangle(mfa)
    plan = CompiledPlan(mfa)
    try:
        kernel.close(plan)
        plan.run(0, layout=doc.layout)
        failures.append(f"{name}: no error")
    except (ValueError, IndexError, TypeError, KeyError):
        pass
    runs += 1

# No epsilon-closures at all, past the root cfg (which computes them, as
# kernel.close does): the flat automaton's build reads them as they are.
plan = CompiledPlan(to_mfa(QUERY))
root = plan.kernel.root_cfg(plan, None)
plan.mfa.nfa._closure = None
try:
    with plan._intern_lock, plan.kernel._lock:
        kernel._cold.close(plan, root, 256)
    failures.append("no closures: no error")
except ValueError as error:
    if "closure per NFA state" not in str(error):
        failures.append(f"no closures: {error}")
runs += 1

# Tables a pop fill reads, mangled after the closure.
def every(column, value):
    return lambda k: getattr(k, column).__setitem__(
        slice(1, None), [value] * (len(getattr(k, column)) - 1)
    )

def tables():
    yield "relevant member", every("cfg_relevant", frozenset({10**6}))
    yield "relevant cut", lambda k: k.cfg_relevant.__delitem__(slice(1, None))
    yield "watch", every("cfg_watch", ((1, 2, 3),))
    yield "watch kind", every("cfg_watch", [(1, 2)])
    yield "cfg_r cut", lambda k: k.cfg_r.__delitem__(slice(1, None))
    yield "mstates member", every("cfg_mstates", frozenset({-5}))
    yield "relevant at the bound", every("cfg_relevant", frozenset({N_AFA}))
    yield "mstates at the bound", every("cfg_mstates", frozenset({N_NFA}))

for name, mangle in tables():
    plan = CompiledPlan(to_mfa(QUERY))
    kernel.close(plan)
    mangle(plan.kernel)
    try:
        plan.run(0, layout=doc.layout)
        failures.append(f"{name}: no error")
    except (ValueError, IndexError, TypeError, KeyError):
        pass
    runs += 1
print(runs, "mangled plans")
if failures:
    print("\\n".join(failures))
    sys.exit(1)
"""

_CHURN = _PRELUDE + """
import tracemalloc

class Boom(Exception):
    pass

QUERIES = [
    QUERY,
    "//patient[visit/treatment/medication]/pname",
    "(patient/parent)*/patient[(parent/patient)*/visit/treatment]",
]
real = TextPred.holds
calls = [0]

def holds(self, columns, node_id):
    calls[0] += 1
    if calls[0] % 41 == 0:
        raise Boom()
    return real(self, columns, node_id)

def live_sets():
    return sum(1 for o in gc.get_objects() if type(o) in (set, frozenset))

def cold(n):
    raised = 0
    for i in range(n):
        plan = CompiledPlan(to_mfa(QUERIES[i % len(QUERIES)]))
        kernel.close(plan)
        try:
            plan.run(0, layout=doc.layout)
        except Boom:
            raised += 1
    return raised

TextPred.holds = holds
cold(200)  # warm every lazy cache
gc.collect()
gc.disable()
tracemalloc.start()
blocks, sets = sys.getallocatedblocks(), live_sets()
before = tracemalloc.get_traced_memory()[0]
raised = cold(2000)
after = tracemalloc.get_traced_memory()[0]
tracemalloc.stop()
grown = sys.getallocatedblocks() - blocks
cyclic = gc.collect()
print(f"raised {raised} grown blocks {grown} bytes {after - before} cyclic {cyclic}")
assert raised > 200, raised
assert cyclic == 0, cyclic
assert grown < 500, grown
assert after - before < 64 * 1024, after - before
assert live_sets() == sets, "a set leaked"
print("clean")
"""


def _subprocess(script: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=600,
    )


@compiled_only
class TestBoundsAndReferences:
    def test_mangled_flat_arrays_raise_and_never_crash(self):
        done = _subprocess(_MANGLED)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "22 mangled plans" in done.stdout

    def test_2000_cold_plans_leak_nothing(self):
        done = _subprocess(_CHURN)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "clean" in done.stdout
