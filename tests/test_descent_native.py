"""The compiled lean pass and phase 2 against their references, and
their safety rails.

``repro.hype.kernel`` runs one of two implementations of the same lean
pass: ``_lean.c`` when :mod:`repro.native` could build and load it
(``kernel.DESCENT == "compiled"``), else :func:`kernel._descend_lane_py`.
Phase 2 follows it: ``_lean.c``'s ``collect_answers``, else
:meth:`CompiledPlan._collect_answers_py`.  Here:

* **differential** — what answers cannot show: random documents ×
  random (and gated) queries × the three algorithms, on a cold plan
  (every table miss taken) and on the plan the other pass warmed (every
  probe a hit), give the same visit columns (the phase-1 sets by
  identity), deaths and live-deadline countdown; both phase 2s, on a
  cold and on a warm ``_alive_cache``, return the same answer ids in the
  same order and leave the same cache keys and cached set objects; an
  expired deadline stops both after the same number of steps.  Answers
  and :class:`HyPEStats` per lane and in waves are held to the oracle
  (``tests/test_lattice.py``);
* **fallback** — no compiler, a failed build, an unwritable cache and a
  free-threaded interpreter each select the Python pass with the reason
  recorded, and a cached build is loaded without invoking a compiler.
  The loader cases run for both of :mod:`repro.native`'s sources, the
  lean pass and the parser's token pass (``repro/xtree/_scan.c``);
* **bounds and references** — mangled columns of a document whose
  indexes were built and of one whose indexes were rehydrated from the
  ``--doc-dir`` record, and mangled table ids, raise ``IndexError``; a
  column that is not a list (a ``tuple``, an ``array('i')``, a
  ``memoryview``) raises ``TypeError`` naming it; a pass cut short by a
  raising predicate or miss path leaks no reference, truth set or
  buffer export.  Mangled cans columns
  (``visit_parents``, ``finals_seen``, a ``deaths`` key, a visit's node
  id) make phase 2 raise ``IndexError``, and a phase 2 cut short by a
  raising ``_alive`` leaves every cached set's refcount as it was.
  These run in a subprocess, so a crash fails the test instead of
  killing the suite.

The compiled-pass tests are skipped, not failed, where ``DESCENT`` is a
fallback (the ``CC=false`` CI job runs the suite that way).
"""

from __future__ import annotations

import importlib.util
import os
import shlex
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore import IndexedDocument
from repro.docstore.layout import covering_layout
from repro.errors import DeadlineError
from repro.guard import CHECK_INTERVAL, Deadline
from repro import native
from repro.hype import kernel
from repro.hype.api import ALGORITHMS, compile_plan
from repro.hype.core import CompiledPlan, RunCursor
from repro.workloads.hospital import HospitalConfig, generate_hospital_document
from repro.xtree import parse

from .strategies import gated_paths, paths, trees

SRC = Path(kernel.__file__).resolve().parents[2]

compiled_only = pytest.mark.skipif(
    kernel.DESCENT != "compiled", reason=f"descent is {kernel.DESCENT!r}"
)
#: The loader's two sources: the lean pass and the parser's token pass.
SOURCES = [("repro.hype", "_lean.c"), ("repro.xtree", "_scan.c")]
PASSES = {"python": kernel._descend_lane_py, "compiled": kernel._descend_lane}
PHASE2 = {"python": CompiledPlan._collect_answers_py, "compiled": kernel._collect_answers}
OTHER = {"python": "compiled", "compiled": "python"}


def _plan(query, algorithm, doc):
    index = None if algorithm == "hype" else doc.index_for(algorithm == "opthype-c")
    return compile_plan(query, algorithm=algorithm, index=index)


def _lane(lean, plan, layout, context, deadline=None, checks=CHECK_INTERVAL):
    """One lane through ``lean`` exactly as :func:`kernel.descend`
    drives it: ``(cursor, countdown left, error raised)``."""
    layout, root = covering_layout(context, layout)
    cursor = RunCursor(plan)
    cursor.layout = layout
    mask_keys = layout.mask_keys(plan)
    cfg = plan.kernel.root_cfg(plan, None if mask_keys is None else mask_keys[root])
    if cfg == kernel.DEAD:
        return cursor, checks, None
    try:
        left = lean(plan, cursor, layout, mask_keys, root, cfg, deadline, checks)
    except DeadlineError as error:
        return cursor, None, type(error)
    return cursor, left, None


def _record(cursor, left, error):
    """Everything a lane leaves behind, by value."""
    record = (
        list(cursor.visit_ids),
        list(cursor.visit_parents),
        list(cursor.visit_mstates),
        dict(cursor.deaths),
        list(cursor.finals_seen),
        left,
        error,
    )
    if error is not None:
        return record, None
    result = cursor.finish()
    return record, (result.ids, result.stats)


# ----------------------------------------------------------------------
# Differential: compiled == python
# ----------------------------------------------------------------------
def _phase2(collect, plan, cursor):
    """One phase 2 over ``cursor``'s cans: ``(answer ids, the plan's
    alive-cache keys afterwards)``."""
    columns = cursor.visit_ids, cursor.visit_parents, cursor.visit_mstates
    ids = collect(plan, *columns, cursor.deaths, cursor.finals_seen, cursor.layout.columns.label)
    return ids, list(plan._alive_cache)


@compiled_only
class TestCompiledEqualsPython:
    @given(trees(), st.one_of(paths(), gated_paths()), st.integers(0, CHECK_INTERVAL))
    @settings(max_examples=40, deadline=None)
    def test_cold_and_warm_plans_and_caches(self, tree, query, checks):
        """Per algorithm and context: a fresh plan per pass, then each
        pass on the plan the *other* one warmed, with a live deadline so
        the countdown is read and returned.  Then both phase 2s from an
        empty cache (every chain step a miss through ``plan._alive``),
        and each from the cache the other filled (every probe a hit)."""
        doc = IndexedDocument(tree)
        far = Deadline(time.perf_counter() + 3600.0)
        for algorithm in ALGORITHMS:
            plans = {name: _plan(query, algorithm, doc) for name in PASSES}
            for context in [n.node_id for n in tree.nodes if n.is_element][:2]:
                cold = {
                    name: _lane(lean, plans[name], doc.layout, context, far, checks)
                    for name, lean in PASSES.items()
                }
                assert _record(*cold["python"]) == _record(*cold["compiled"])
                for name, lean in PASSES.items():
                    warm = _lane(lean, plans[OTHER[name]], doc.layout, context, far, checks)
                    assert _record(*warm) == _record(*cold[OTHER[name]])
                    sets = zip(warm[0].visit_mstates, cold[OTHER[name]][0].visit_mstates)
                    assert all(mine is theirs for mine, theirs in sets)
                plan, cursor = plans["python"], cold["python"][0]
                cache, filled = plan._alive_cache, {}
                for name, collect in PHASE2.items():
                    cache.clear()
                    filled[name] = _phase2(collect, plan, cursor), dict(cache)
                (expected, python), (got, compiled) = filled["python"], filled["compiled"]
                assert got == expected
                assert all(python[key] is compiled[key] for key in python)
                for name, collect in PHASE2.items():
                    cache.clear()
                    cache.update(filled[OTHER[name]][1])
                    assert _phase2(collect, plan, cursor) == expected

    @given(trees(max_depth=5), gated_paths(), st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_expired_deadline_cuts_both_at_the_same_step(self, tree, query, checks):
        """An expired deadline raises at the first clock read, ``checks``
        steps into the pass — in both — leaving the same partial visit
        columns (or both finish first and agree)."""
        doc = IndexedDocument(tree)
        expired = Deadline(time.perf_counter() - 1.0)
        for algorithm in ALGORITHMS:
            plan = _plan(query, algorithm, doc)
            got = [
                _record(*_lane(lean, plan, doc.layout, 0, expired, checks))
                for lean in PASSES.values()
            ]
            assert got[0] == got[1]


# ----------------------------------------------------------------------
# Loading and the fallback
# ----------------------------------------------------------------------
class TestFallback:
    def test_missing_compiler_runs_the_python_pass(self, monkeypatch, tmp_path):
        monkeypatch.setattr(native, "compiler", lambda: ["/nonexistent/cc"])
        lean, collect, close, descent = kernel._select_pass(tmp_path)
        assert lean is kernel._descend_lane_py
        assert collect is None  # phase 2: the plan's own reference
        assert close is None  # the dense closure: kernel._close_py
        assert descent == "python: no compiler (/nonexistent/cc)"
        assert list(tmp_path.iterdir()) == []
        ran = []

        def spy(*args):
            ran.append(args[0])
            return lean(*args)

        tree = generate_hospital_document(HospitalConfig(num_patients=2, seed=1))
        doc = IndexedDocument(tree)
        plan = _plan("//patient/pname", "opthype", doc)
        expected = plan.run(0, layout=doc.layout)
        monkeypatch.setattr(kernel, "_descend_lane", spy)
        monkeypatch.setattr(kernel, "DESCENT", descent)
        result = plan.run(0, layout=doc.layout)
        assert ran == [plan]
        assert result.ids == expected.ids and result.stats == expected.stats

    @pytest.mark.parametrize("package, source", SOURCES)
    def test_failed_build_leaves_no_file(self, monkeypatch, tmp_path, package, source):
        monkeypatch.setenv("CC", "false")
        module, reason = native.load(package, source, tmp_path)
        assert module is None
        assert reason.startswith("build failed (false exited 1")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("package, source", SOURCES)
    def test_unwritable_cache(self, tmp_path, package, source):
        blocker = tmp_path / "file"
        blocker.write_text("")
        module, reason = native.load(package, source, blocker / "cache")
        assert module is None
        assert reason.startswith(("cannot write the build cache", "no compiler", "no Python.h"))

    @pytest.mark.parametrize("package, source", SOURCES)
    def test_free_threaded_interpreter_falls_back(self, monkeypatch, package, source):
        real = native.sysconfig.get_config_var
        monkeypatch.setattr(
            native.sysconfig,
            "get_config_var",
            lambda name: 1 if name == "Py_GIL_DISABLED" else real(name),
        )
        assert native.load(package, source) == (None, "free-threaded build")

    @pytest.mark.skipif(
        (kernel.DESCENT, parse.SCAN) != ("compiled", "compiled"),
        reason=f"descent is {kernel.DESCENT!r}, scan is {parse.SCAN!r}",
    )
    @pytest.mark.parametrize("package, source", SOURCES)
    def test_a_cached_build_invokes_no_compiler(self, monkeypatch, package, source):
        def forbidden(*args):
            raise AssertionError("compiler invoked for a cached build")

        monkeypatch.setattr(native, "_build", forbidden)
        module, reason = native.load(package, source)
        assert reason is None
        assert module.__name__ == f"{package}.{source[:-2]}"
        # A second process with the same CC but no compiler on its PATH
        # loads the cached build.
        env = dict(os.environ, PATH="/nonexistent", PYTHONPATH=str(SRC))
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.hype import kernel; from repro.xtree import parse;"
                " print(kernel.DESCENT, parse.SCAN)",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.stdout.split() == ["compiled", "compiled"], done.stderr


    @pytest.mark.skipif(
        (kernel.DESCENT, parse.SCAN) != ("compiled", "compiled"),
        reason=f"descent is {kernel.DESCENT!r}, scan is {parse.SCAN!r}",
    )
    @pytest.mark.parametrize("package, source", SOURCES)
    def test_another_cc_builds_its_own_file(self, monkeypatch, tmp_path, package, source):
        """The cache key covers the compiler command line: a build under
        other flags (say ``-fsanitize=address``, whose object aborts a
        plain process) lands in a file of its own, and the first build
        stays where a process with the first ``CC`` loads it."""
        cc = native.compiler()
        first, reason = native.load(package, source, tmp_path)
        assert reason is None
        (plain,) = tmp_path.iterdir()
        monkeypatch.setenv("CC", shlex.join([*cc, "-DREPRO_CACHE_KEY_PROBE"]))
        second, reason = native.load(package, source, tmp_path)
        assert reason is None
        (other,) = set(tmp_path.iterdir()) - {plain}
        assert other.name.split(".")[0] == plain.name.split(".")[0]
        monkeypatch.setenv("CC", shlex.join(cc))

        def forbidden(*args):
            raise AssertionError("the first build was not found")

        monkeypatch.setattr(native, "_build", forbidden)
        again, reason = native.load(package, source, tmp_path)
        assert reason is None and again.__name__ == first.__name__
        assert sorted(tmp_path.iterdir()) == sorted([plain, other])

    @pytest.mark.skipif(
        (kernel.DESCENT, parse.SCAN) != ("compiled", "compiled"),
        reason=f"descent is {kernel.DESCENT!r}, scan is {parse.SCAN!r}",
    )
    @pytest.mark.parametrize("package, source", SOURCES)
    def test_a_pycache_prefix_holds_the_build(self, monkeypatch, tmp_path, package, source):
        """Under ``PYTHONPYCACHEPREFIX`` the build lives where the
        interpreter keeps bytecode — what ``make sanitize`` uses for a
        build cache of its own — and the package's ``__pycache__`` gets
        nothing new (a checkout only ever run under a prefix has none)."""
        home = Path(importlib.util.find_spec(package).origin).parent
        before = set((home / "__pycache__").glob("*"))
        monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path))
        module, reason = native.load(package, source)
        assert reason is None and module.__name__ == f"{package}.{source[:-2]}"
        (built,) = (tmp_path / home.relative_to(home.anchor)).glob(f"{source[:-2]}.*")
        assert built.is_file()
        assert set((home / "__pycache__").glob("*")) == before


# ----------------------------------------------------------------------
# Bounds and references, each in a subprocess
# ----------------------------------------------------------------------
_PRELUDE = """
import gc, sys, tempfile
from array import array
from repro.docstore import DocumentStore, IndexedDocument
from repro.hype import kernel
from repro.hype.api import ALGORITHMS, compile_plan
from repro.hype.kernel import DenseKernel
from repro.workloads.hospital import HospitalConfig, generate_hospital_document
from repro.xtree.serialize import serialize

assert kernel.DESCENT == "compiled", kernel.DESCENT
tree = generate_hospital_document(HospitalConfig(num_patients=6, seed=4))
if sys.argv[1] == "built":
    doc = IndexedDocument(tree)
else:
    work = tempfile.mkdtemp()
    DocumentStore(index_dir=work).get(serialize(tree)).index_for(False)
    warm = DocumentStore(index_dir=work)
    doc = warm.get(serialize(tree))
    doc.index_for(False)
    doc.index_for(True)
    assert (warm.stats.index_loads, warm.stats.index_builds) == (2, 0)
layout = doc.layout


def plan_for(query, algorithm):
    index = None if algorithm == "hype" else doc.index_for(algorithm == "opthype-c")
    plan = compile_plan(query, algorithm=algorithm, index=index)
    plan.run(0, layout=layout)  # warm: rows and pops exist
    return plan
"""

_BOUNDS = _PRELUDE + """
def mangles(values):
    values = list(values)
    yield "negative", [-1 - v if i == 0 else v for i, v in enumerate(values)]
    yield "huge", [v + 10**6 if i == 0 else v for i, v in enumerate(values)]
    yield "truncated", values[: len(values) // 2]


failures = []
runs = 0
for algorithm in ALGORITHMS:
    plan = plan_for("//*", algorithm)
    kern = plan.kernel
    for name in ("kid_start", "kid_ids", "kid_labels"):
        original = getattr(layout, name)
        for how, values in mangles(original):
            setattr(layout, name, values)
            try:
                plan.run(0, layout=layout)
                failures.append(f"{algorithm} {name} {how}: no error")
            except IndexError:
                pass
            finally:
                setattr(layout, name, original)
            runs += 1
    if algorithm != "hype":
        index = layout.indexes[plan.compressed]
        original = index.mask_keys
        index.mask_keys = original[: len(original) // 2]
        try:
            plan.run(0, layout=layout)
            failures.append(f"{algorithm} mask_keys truncated: no error")
        except IndexError:
            pass
        finally:
            index.mask_keys = original
        runs += 1
    # Table ids: a transition word naming no cfg (no edge), a cfg with
    # no pop entry.
    rows = layout.table.rows_for(plan)
    row = rows[kern.roots[next(iter(kern.roots))]]
    saved = row[:]
    bogus = (10**6 << 1) | 1 if plan.bit_of is not None else 10**6 << kernel.CFG_SHIFT
    for lid in range(len(row)):
        if row[lid] not in (kernel.UNFILLED, kernel.DEAD):
            row[lid] = bogus
    try:
        plan.run(0, layout=layout)
        failures.append(f"{algorithm} bogus table id: no error")
    except IndexError:
        pass
    finally:
        row[:] = saved
    gated = plan_for("//patient[.//diagnosis]/pname", algorithm)
    pops = gated.kernel.pops[:]
    del gated.kernel.pops[1:]
    try:
        gated.run(0, layout=layout)
        failures.append(f"{algorithm} truncated pops: no error")
    except IndexError:
        pass
    finally:
        gated.kernel.pops[:] = pops
    runs += 2
    assert plan.run(0, layout=layout).ids, "restored plan answers"
print(runs, "mangled runs")
if failures:
    print("\\n".join(failures))
    sys.exit(1)
"""

_REFCOUNTS = _PRELUDE + """
from repro.automata.afa import TextPred


class Boom(Exception):
    pass


def live_sets():
    gc.collect()
    return sum(1 for o in gc.get_objects() if type(o) is set)


def snapshot(plan):
    kern = plan.kernel
    rows = layout.table.rows_for(plan)
    return (
        [sys.getrefcount(s) for s in kern.cfg_mstates],
        {cfg: sys.getrefcount(row) for cfg, row in rows.items()},
    )


query = "//patient[.//diagnosis/text() = 'flu' or .//test/text() = 'x-ray']/pname"
for algorithm in ALGORITHMS:
    plan = plan_for(query, algorithm)
    kern = plan.kernel
    before, sets = snapshot(plan), live_sets()
    calls = [0]

    def bomb(real, fuse):
        def holds(columns, node_id):
            calls[0] += 1
            if calls[0] >= fuse:
                raise Boom()
            return real(columns, node_id)
        return holds

    real_pops = kern.pops[:]
    raised = 0
    for run in range(200):
        calls[0] = 0
        fuse = 1 + run % 23
        for cfg, (preds, outcomes) in enumerate(real_pops):
            if preds:
                kern.pops[cfg] = (
                    tuple((bit, bomb(holds, fuse)) for bit, holds in preds),
                    outcomes,
                )
        try:
            plan.run(0, layout=layout)
        except Boom:
            raised += 1
        kern.pops[:] = real_pops
    assert raised > 100, raised
    # A miss path raising mid-pass: every pop and transition misses (the
    # transition table is emptied too, so a row miss cannot be a hit),
    # and the compiled pass's own pop fills call the raising predicates.
    real_fill, real_lookup = DenseKernel.fill_pop, DenseKernel.lookup_trans
    real_holds = TextPred.holds
    def failing(real, fuse):
        def method(self, *args):
            calls[0] += 1
            if calls[0] >= fuse:
                raise Boom()
            return real(self, *args)
        return method
    rows = layout.table.rows_for(plan)
    for run in range(200):
        calls[0] = 0
        DenseKernel.fill_pop = failing(real_fill, 1 + run % 7)
        DenseKernel.lookup_trans = failing(real_lookup, 1 + run % 11)
        TextPred.holds = failing(real_holds, 1 + run % 13)
        known = dict(kern.trans)
        kern.trans.clear()
        saved = {cfg: row[:] for cfg, row in rows.items()}
        for row in rows.values():
            row[:] = array("i", [kernel.UNFILLED]) * len(row)
        outcomes = [entry[1] for entry in kern.pops if entry[0] or entry[1]]
        cleared = [dict(o) for o in outcomes]
        for o in outcomes:
            o.clear()
        try:
            plan.run(0, layout=layout)
        except Boom:
            raised += 1
        finally:
            DenseKernel.fill_pop, DenseKernel.lookup_trans = real_fill, real_lookup
            TextPred.holds = real_holds
            kern.trans.clear()
            kern.trans.update(known)
            for cfg, row in saved.items():
                rows[cfg][:] = row
            for o, kept in zip(outcomes, cleared):
                o.clear()
                o.update(kept)
    assert raised > 300, raised
    after = snapshot(plan)
    assert after == before, (algorithm, before, after)
    assert live_sets() == sets, "a pending truth set leaked"
    # No buffer export survives a pass: rows can be resized again.
    for row in rows.values():
        row.append(0)
        row.pop()
print("clean")
"""


_COLUMN_TYPES = _PRELUDE + """
NOT_LISTS = {
    "tuple": tuple,
    "array": lambda values: array("i", [v & 0x7FFFFFFF for v in values]),
    "memoryview": lambda values: memoryview(array("i", [v & 0x7FFFFFFF for v in values])),
}
failures = []
runs = 0
for algorithm in ALGORITHMS:
    plan = plan_for("//*", algorithm)
    owners = dict.fromkeys(("kid_ids", "kid_start", "kid_labels"), layout)
    if algorithm != "hype":
        owners["mask_keys"] = layout.indexes[plan.compressed]
    for name, owner in owners.items():
        original = getattr(owner, name)
        for kind, make in NOT_LISTS.items():
            column = make(original)
            setattr(owner, name, column)
            before = sys.getrefcount(column), sys.getrefcount(original)
            try:
                plan.run(0, layout=layout)
                failures.append(f"{algorithm} {name} as {kind}: no error")
            except TypeError as error:
                if f"column {name} must be a list" not in str(error):
                    failures.append(f"{algorithm} {name} as {kind}: {error}")
            after = sys.getrefcount(column), sys.getrefcount(original)
            if after != before:
                failures.append(f"{algorithm} {name} as {kind}: {before} -> {after}")
            setattr(owner, name, original)
            runs += 1
    assert plan.run(0, layout=layout).ids, "restored plan answers"
print(runs, "refused columns")
if failures:
    print("\\n".join(failures))
    sys.exit(1)
"""


_CANS = _PRELUDE + """
from repro.hype.core import RunCursor

collect = kernel._collect_answers
GATED = "//patient[.//diagnosis/text() = 'flu' or .//test/text() = 'x-ray']/pname"


def cans(query, algorithm):
    plan = plan_for(query, algorithm)
    cursor = RunCursor(plan)
    kernel.descend([(plan, cursor)], 0, layout)
    assert cursor.deaths and cursor.finals_seen, algorithm
    columns = [
        cursor.visit_ids,
        cursor.visit_parents,
        cursor.visit_mstates,
        cursor.deaths,
        cursor.finals_seen,
        layout.columns.label,
    ]
    return plan, cursor, columns
"""

_PHASE2_BOUNDS = _CANS + """
VISIT_IDS, PARENTS, MSTATES, DEATHS, FINALS = range(5)
failures = []
runs = 0
for algorithm in ALGORITHMS:
    plan, cursor, columns = cans(GATED, algorithm)
    n = len(cursor.visit_ids)
    ids, parents, deaths = cursor.visit_ids, cursor.visit_parents, cursor.deaths
    dead = next(iter(deaths.values()))
    mangles = [
        (PARENTS, "huge", [p if p < 0 else p + 10**6 for p in parents]),
        (PARENTS, "negative", [p if p < 0 else -2 - p for p in parents]),
        (PARENTS, "self", [p if p < 0 else i for i, p in enumerate(parents)]),
        (PARENTS, "forward", [p if p < 0 else n - 1 for p in parents]),
        (PARENTS, "truncated", parents[:1]),
        (FINALS, "past the end", [n]),
        (FINALS, "huge", [n + 10**6]),
        (FINALS, "negative", [-2]),
        (FINALS, "above the root", [-1]),
        (DEATHS, "past the end", {**deaths, n: dead}),
        (DEATHS, "negative", {**deaths, -1: dead}),
        (VISIT_IDS, "huge", [v + 10**6 for v in ids]),
        (VISIT_IDS, "negative", [-1 - v for v in ids]),
        (MSTATES, "truncated", cursor.visit_mstates[:1]),
    ]
    # With no death recorded the candidates are read off directly.
    undead = columns[:DEATHS] + [{}] + columns[DEATHS + 1:]
    for column, how, values in mangles + [(FINALS, "no deaths", [n])]:
        args = list(undead if how == "no deaths" else columns)
        args[column] = values
        try:
            collect(plan, *args)
            failures.append(f"{algorithm} column {column} {how}: no error")
        except IndexError:
            pass
        runs += 1
    assert collect(plan, *columns) == plan.run(0, layout=layout).ids
print(runs, "mangled runs")
if failures:
    print("\\n".join(failures))
    sys.exit(1)
"""

_PHASE2_REFCOUNTS = _CANS + """
class Boom(Exception):
    pass


for algorithm in ALGORITHMS:
    plan, cursor, columns = cans(GATED, algorithm)
    cache = plan._alive_cache
    real = plan._alive
    calls = [0]

    def failing(fuse):
        def alive(*key):
            calls[0] += 1
            if calls[0] >= fuse:
                raise Boom()
            return real(*key)
        return alive

    cache.clear()
    plan._alive = failing(float("inf"))
    expected = collect(plan, *columns)
    del plan._alive
    misses = calls[0]
    assert misses > 2, (algorithm, misses)
    warm = list(cache.items())
    tracked = [s for s, _id in plan._set_ids.values()]
    tracked += [value for _key, value in warm] + list(cursor.deaths.values())
    tracked += sorted(set(layout.columns.label))
    gc.collect()
    before = [sys.getrefcount(o) for o in tracked]
    raised = 0
    for run in range(200):
        cache.clear()
        if run % 2:
            cache.update(warm[: len(warm) // 2])  # hits, then misses
        calls[0] = 0
        plan._alive = failing(1 + run % misses)
        try:
            collect(plan, *columns)
        except Boom:
            raised += 1
        finally:
            del plan._alive
    assert raised > 100, raised
    cache.clear()
    cache.update(warm)
    gc.collect()
    after = [sys.getrefcount(o) for o in tracked]
    assert after == before, (algorithm, before, after)
    assert collect(plan, *columns) == expected
print("clean")
"""


def _subprocess(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@compiled_only
class TestBoundsAndReferences:
    @pytest.mark.parametrize("kind", ["built", "tier-loaded"])
    def test_mangled_columns_raise_and_never_crash(self, kind):
        done = _subprocess(_BOUNDS, kind)
        assert done.returncode == 0, (done.returncode, done.stdout, done.stderr)
        assert "mangled runs" in done.stdout

    def test_a_column_that_is_not_a_list_is_refused_by_name(self):
        done = _subprocess(_COLUMN_TYPES, "built")
        assert done.returncode == 0, (done.returncode, done.stdout, done.stderr)
        assert "33 refused columns" in done.stdout

    @pytest.mark.parametrize("kind", ["built", "tier-loaded"])
    def test_a_pass_cut_short_leaks_nothing(self, kind):
        done = _subprocess(_REFCOUNTS, kind)
        assert done.returncode == 0, (done.returncode, done.stdout, done.stderr)
        assert done.stdout.strip() == "clean"

    def test_mangled_cans_raise_and_never_crash(self):
        done = _subprocess(_PHASE2_BOUNDS, "built")
        assert done.returncode == 0, (done.returncode, done.stdout, done.stderr)
        assert "45 mangled runs" in done.stdout

    def test_a_phase_2_cut_short_leaks_nothing(self):
        done = _subprocess(_PHASE2_REFCOUNTS, "built")
        assert done.returncode == 0, (done.returncode, done.stdout, done.stderr)
        assert done.stdout.strip() == "clean"
