"""Collector hygiene of the plan-miss path (tier-1).

A missed plan is built once and owned one way — cached plan → artifact
→ index-free executable → dense kernel, no back-pointers — so LRU
eviction frees it by reference count.  The checks themselves live in
``benchmarks/churn_hygiene.py`` (``make churn-smoke`` runs them outside
pytest); here they are assertions.
"""

from __future__ import annotations

import gc
import importlib.util
import weakref
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "churn_hygiene.py"


def load_hygiene():
    """``benchmarks/churn_hygiene.py`` as a module (it is a script, not
    part of a package)."""
    spec = importlib.util.spec_from_file_location("churn_hygiene", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
