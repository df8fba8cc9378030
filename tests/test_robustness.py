"""Robustness guarantees: deadlines never yield partial answers, rewrite
bombs die in the compile budget, and the adversarial workload is
deterministic and isolation-safe.  (The fleet's circuit breakers are
tested with the rest of its supervisor in ``tests/test_supervisor.py``.)"""

from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.compile.pipeline import QueryCompiler
from repro.errors import DeadlineError, QueryTooComplexError
from repro.faults import FaultPlan, FaultRule
from repro.guard import CompileBudget, Deadline
from repro.hype.api import ALGORITHMS
from repro.serve.service import QueryRequest, QueryService, rejection_kind
from repro.views.samples import sigma0
from repro.workloads import VIEW_QUERIES
from repro.workloads.adversarial import (
    AdversarialConfig,
    bomb_family,
    build_adversarial_service,
    generate_adversarial_traffic,
    is_bomb,
    poison_attempt,
    sigma0_variant,
)
from repro.workloads.hospital import HospitalConfig, generate_hospital_document

QUERIES = sorted(VIEW_QUERIES.values())

_services: list[QueryService] = []
_reference: dict[tuple[str, str], list[int]] = {}


def shared_service() -> QueryService:
    """One shared small service (built lazily so hypothesis examples
    reuse it; answers are read-only)."""
    if not _services:
        doc = generate_hospital_document(
            HospitalConfig(num_patients=6, seed=3)
        )
        svc = QueryService(doc)
        svc.register_view("research", sigma0())
        svc.register_tenant("institute", "research")
        _services.append(svc)
    return _services[0]


def reference_ids(algorithm: str, query: str) -> list[int]:
    key = (algorithm, query)
    if key not in _reference:
        answer = shared_service().submit("institute", query, algorithm=algorithm)
        _reference[key] = answer.ids()
    return _reference[key]


class TestNoPartialAnswers:
    """A deadline-expired request is rejected whole — its slot holds a
    DeadlineError, never an answer missing nodes — across all three
    algorithms; wavemates without deadlines stay complete."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @given(
        picks=st.lists(
            st.tuples(
                st.sampled_from(QUERIES),
                st.sampled_from(["none", "expired", "tiny"]),
            ),
            min_size=1,
            max_size=4,
        ),
        tiny_ms=st.floats(min_value=0.001, max_value=2.0),
    )
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_expired_requests_reject_whole(self, algorithm, picks, tiny_ms):
        svc = shared_service()
        requests = []
        for query, kind in picks:
            deadline = None
            if kind == "expired":
                deadline = Deadline(time.perf_counter() - 0.001)
            elif kind == "tiny":
                deadline = Deadline.after_ms(tiny_ms)
            requests.append(
                QueryRequest(
                    "institute",
                    query,
                    algorithm=algorithm,
                    deadline=deadline,
                )
            )
        result = svc.submit_wave(requests)
        for (query, kind), outcome in zip(picks, result.outcomes):
            if isinstance(outcome, DeadlineError):
                assert kind != "none", "undeadlined request was rejected"
                continue
            assert not isinstance(outcome, Exception), outcome
            # Any answer that does come back is the COMPLETE answer.
            assert outcome.ids() == reference_ids(algorithm, query)

    def test_expired_wavemate_does_not_sink_the_wave(self):
        svc = shared_service()
        result = svc.submit_wave(
            [
                QueryRequest(
                    "institute",
                    "patient",
                    deadline=Deadline(time.perf_counter() - 1.0),
                ),
                QueryRequest("institute", "patient"),
            ]
        )
        expired, live = result.outcomes
        assert isinstance(expired, DeadlineError)
        assert rejection_kind(expired) == "deadline"
        assert live.ids() == reference_ids("hype", "patient")

    def test_deadline_rejections_are_counted(self):
        doc = generate_hospital_document(HospitalConfig(num_patients=3, seed=5))
        svc = QueryService(doc)
        svc.register_tenant("admin", None)
        with pytest.raises(DeadlineError):
            svc.submit("admin", "hospital", deadline_ms=0.0)
        assert svc.metrics_snapshot().rejected_kinds.get("deadline") == 1


class TestDeadlineUnderSlowDescent:
    """A ``descend`` fault delay past a wave's earliest deadline: the
    wave's pass is abandoned whole at its checkpoint, the expired
    request is rejected once, and its undeadlined wavemate is retried
    alone to the complete answer."""

    @pytest.fixture(autouse=True)
    def fault_free(self):
        yield
        faults.install(None)

    def test_wave_pass_expires_under_injected_delay(self, big_hospital_doc):
        svc = QueryService(big_hospital_doc)
        svc.register_view("research", sigma0())
        svc.register_tenant("institute", "research")
        tight, free = QUERIES[0], QUERIES[1]
        with svc:
            reference = svc.submit_wave(
                [QueryRequest("institute", tight), QueryRequest("institute", free)]
            )
            schedule = faults.install(
                FaultPlan([FaultRule("descend", "delay", hits=(1,), seconds=0.1)])
            )
            result = svc.submit_wave(
                [
                    QueryRequest(
                        "institute", tight, deadline=Deadline.after_ms(30.0)
                    ),
                    QueryRequest("institute", free),
                ]
            )
            expired, live = result.outcomes
            assert isinstance(expired, DeadlineError)
            assert live.ids() == reference.outcomes[1].ids()
            # Hit 1 was the wave's entry (delayed, then abandoned);
            # hit 2 the survivor's retry.
            assert schedule.hits("descend") == 2
            snap = svc.metrics_snapshot()
            assert snap.rejected_kinds == {"deadline": 1}
            assert snap.requests == 3  # two reference answers + the survivor


class TestRewriteBombRegression:
    """A budget-busting nested-star query must be rejected structurally,
    after only the linear parse+normalize — bounded wall time."""

    def test_bomb_rejected_quickly_with_structured_kind(self):
        svc, _hashes = build_adversarial_service(
            AdversarialConfig(patients=4)
        )
        bomb = bomb_family(12)[-1]
        started = time.perf_counter()
        with pytest.raises(QueryTooComplexError, match="compile budget"):
            svc.submit("mallory", bomb)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0  # linear parse only, no exponential rewrite
        snapshot = svc.metrics_snapshot()
        assert snapshot.rejected_kinds.get("query-too-complex") == 1

    def test_shallow_family_members_compile_fine(self):
        # The paper's point (Theorem 5.1): rewriting is linear, so the
        # depth-3 family of the blowup benchmark stays well inside the
        # default budget — only the query's own doubling trips it.
        compiler = QueryCompiler()
        for member in bomb_family(3):
            compiler.compile(sigma0(), member)

    def test_budget_is_tunable(self):
        tight = QueryCompiler(budget=CompileBudget(max_ast_nodes=10))
        with pytest.raises(QueryTooComplexError):
            tight.compile(None, "a/b/c/d/e/f/g/h/i/j/k")
        roomy = QueryCompiler(budget=CompileBudget(max_ast_nodes=1_000_000))
        roomy.compile(None, bomb_family(8)[-1])


class TestAdversarialWorkload:
    def test_traffic_is_deterministic_and_salted(self):
        cfg = AdversarialConfig(num_requests=40)
        first = generate_adversarial_traffic(cfg)
        second = generate_adversarial_traffic(cfg)
        assert first == second
        bombs = [r for r in first if is_bomb(r)]
        assert 0 < len(bombs) < len(first)
        assert all(r.tenant == "mallory" for r in bombs)

    def test_variant_fingerprint_differs(self):
        assert sigma0_variant().fingerprint() != sigma0().fingerprint()

    def test_poison_attempt_is_isolated(self):
        svc, _hashes = build_adversarial_service(
            AdversarialConfig(patients=6)
        )
        outcome = poison_attempt(svc)
        assert outcome["isolated"]
        assert outcome["before"] > 0
        assert outcome["poisoned"] != outcome["before"]
