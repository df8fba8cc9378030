"""Composed-table persistence: a warm restart performs ZERO recompositions.

The composed tier's acceptance property, mirroring the plan-store
warm-restart smoke: the first boot composes a same-view wave into one
:class:`repro.hype.compose.ComposedKernel`, persists its transition
tables into the plan store, and a **brand-new service over the same
``--plan-dir``** (nothing carried in memory) serves the identical wave
by *rehydrating* those tables — the kernel shell is rebuilt, but every
composed cfg and transition comes off disk, the idempotent persist
writes nothing back, and answers are byte-identical.

Run: ``make compose-smoke``.
"""

from __future__ import annotations

import pytest

from repro.compile import PlanStore
from repro.serve.service import QueryRequest, QueryService
from repro.views.samples import sigma0
from repro.workloads import (
    HospitalConfig,
    VIEW_QUERIES,
    generate_hospital_document,
)

#: One same-view wave of distinct queries — the service groups all of
#: them into a single composed family (same view fingerprint, same
#: algorithm, same document).
WAVE = sorted(VIEW_QUERIES.values())[:5]


@pytest.fixture(scope="module")
def compose_doc():
    return generate_hospital_document(HospitalConfig(num_patients=40, seed=17))


def _boot(document, plan_dir) -> QueryService:
    service = QueryService(document, plan_store=PlanStore(plan_dir))
    # Composed whatever the lean pass: QueryService(compose=True) steps
    # per lane in a process where the pass is compiled.
    service.compose = True
    service.register_view("research", sigma0())
    service.register_tenant("institute", "research")
    return service


def _drive(service: QueryService) -> list:
    """Two identical same-view waves: compose, then hit the L1 tier."""
    wave = [QueryRequest("institute", query) for query in WAVE]
    answers = []
    for _ in range(2):
        batch, _stats = service.submit_many(wave)
        answers.extend(answer.ids() for answer in batch)
    return answers


def test_warm_restart_rehydrates_instead_of_recomposing(
    compose_doc, tmp_path
):
    plan_dir = tmp_path / "plans"

    # Cold boot: the wave composes once (second wave is an L1 hit) and
    # the composed tables are persisted alongside the member plans.
    with _boot(compose_doc, plan_dir) as cold:
        cold_answers = _drive(cold)
        cold_snap = cold.metrics_snapshot().as_dict()
    assert cold_snap["composed_groups"] == 2
    assert cold_snap["composed_lanes"] == 2 * len(WAVE)
    assert cold_snap["composed_fallbacks"] == 0
    assert cold_snap["composed_builds"] == 1
    assert cold_snap["composed_hits"] == 1
    assert cold_snap["composed_rehydrated"] == 0
    assert cold_snap["composed"]["persisted"] == 1
    assert cold_snap["plan_store"]["composed_stores"] == 1

    # Warm "restart": a brand-new cache + service over the populated
    # directory.  The kernel shell is rebuilt (builds == 1) but its
    # tables are preloaded from the store — zero recompositions: the
    # descent interns nothing new, so the idempotent persist writes
    # nothing (composed_stores == 0) and the store sees a composed hit.
    with _boot(compose_doc, plan_dir) as warm:
        warm_answers = _drive(warm)
        warm_snap = warm.metrics_snapshot().as_dict()
        preloaded = warm.cache.composed.gauges()["preloaded_trans"]
    assert warm_answers == cold_answers
    assert warm_snap["composed_groups"] == 2
    assert warm_snap["composed_builds"] == 1
    assert warm_snap["composed_rehydrated"] == 1
    assert warm_snap["composed"]["persisted"] == 0
    assert warm_snap["plan_store"]["composed_stores"] == 0
    assert warm_snap["plan_store"]["composed_hits"] == 1
    assert preloaded > 0
    # The composed id space the warm descent runs in is exactly the
    # persisted one — no growth beyond what rehydration installed.
    assert warm_snap["interned_ccfgs"] == cold_snap["interned_ccfgs"]
