"""QueryService tests: tenants, authorisation, sessions, metrics, batching."""

import pytest

from repro.dtd import hospital_dtd, hospital_view_dtd
from repro.errors import (
    AuthorizationError,
    QueryParseError,
    ReproError,
    ServiceError,
    ViewError,
)
from repro.serve.cache import PlanCache
from repro.hype.api import ALGORITHMS
from repro.serve.service import QueryRequest, QueryService, rejection_kind
from repro.views.samples import SIGMA0_ANNOTATIONS
from repro.views.spec import view_spec
from repro.workloads import (
    FIG8A,
    VIEW_QUERIES,
    TrafficConfig,
    generate_traffic,
    register_tenants,
    waves,
)

from .conftest import ids


@pytest.fixture()
def service(hospital_doc, sigma0_spec):
    svc = QueryService(hospital_doc)
    svc.register_view("research", sigma0_spec)
    svc.register_tenant("institute", "research")
    svc.register_tenant("admin", None)
    return svc


class TestAdministration:
    def test_tenant_needs_known_view(self, service):
        with pytest.raises(ViewError, match="unknown view"):
            service.register_tenant("ghost", "no-such-view")

    def test_registries(self, service):
        assert service.tenants() == ["admin", "institute"]
        assert service.views() == ["research"]

    def test_reregistering_view_invalidates_plans(self, service, sigma0_spec):
        from repro.dtd import hospital_dtd, hospital_view_dtd
        from repro.serve.cache import plan_key
        from repro.views.samples import SIGMA0_ANNOTATIONS
        from repro.views.spec import view_spec

        service.submit("institute", "patient")
        key = plan_key(sigma0_spec, "patient")
        assert key in service.cache
        # Re-registering the same content keeps the warm plans (keys carry
        # the spec fingerprint, and it has not changed).
        service.register_view("research", sigma0_spec)
        assert key in service.cache
        # Re-registering *different* content drops the old spec's plans.
        restricted = view_spec(
            hospital_dtd(),
            hospital_view_dtd(),
            {**SIGMA0_ANNOTATIONS, ("patient", "parent"): "parent[not(.)]"},
        )
        service.register_view("research", restricted)
        assert key not in service.cache


class TestAuthorization:
    def test_unknown_tenant_rejected(self, service):
        with pytest.raises(AuthorizationError, match="unknown tenant"):
            service.submit("stranger", "patient")
        assert service.metrics_snapshot().rejected == 1

    def test_algorithm_restriction(self, service, sigma0_spec):
        service.register_tenant("limited", "research", algorithms=("hype",))
        service.submit("limited", "patient", algorithm="hype")
        with pytest.raises(AuthorizationError, match="may not use"):
            service.submit("limited", "patient", algorithm="opthype")

    def test_empty_algorithm_allowlist_denies_all(self, service):
        service.register_tenant("denied", "research", algorithms=())
        with pytest.raises(AuthorizationError, match="may not use"):
            service.submit("denied", "patient")

    def test_unknown_algorithm(self, service):
        with pytest.raises(ServiceError, match="unknown algorithm"):
            service.submit("institute", "patient", algorithm="magic")

    def test_session_tenant_mismatch(self, service):
        session = service.open_session("institute")
        with pytest.raises(AuthorizationError, match="does not belong"):
            service.submit("admin", FIG8A, session_id=session.session_id)

    def test_view_confinement_matches_engine(self, service, engine):
        """A view tenant's answers equal the engine's view answering."""
        served = service.submit("institute", VIEW_QUERIES["example-1.1"])
        direct = engine.answer("research", VIEW_QUERIES["example-1.1"])
        assert served.ids() == direct.ids()
        assert served.view == "research"

    def test_admin_gets_source_access(self, service, engine):
        served = service.submit("admin", FIG8A)
        direct = engine.evaluate(FIG8A)
        assert served.ids() == direct.ids()
        assert served.view is None


class TestSessions:
    def test_session_lifecycle(self, service):
        session = service.open_session("institute")
        assert len(service.sessions) == 1
        service.submit("institute", "patient", session_id=session.session_id)
        assert session.requests == 1
        assert session.last_query == "patient"
        closed = service.sessions.close(session.session_id)
        assert closed is session
        with pytest.raises(ServiceError, match="unknown session"):
            service.sessions.get(session.session_id)

    def test_open_session_requires_tenant(self, service):
        with pytest.raises(AuthorizationError):
            service.open_session("stranger")

    def test_per_tenant_counts(self, service):
        service.open_session("institute")
        service.open_session("institute")
        service.open_session("admin")
        assert service.sessions.per_tenant() == {"institute": 2, "admin": 1}


class TestMetrics:
    def test_submit_records_latency_and_cache(self, service):
        service.submit("institute", "patient")
        service.submit("institute", "patient")
        snap = service.metrics_snapshot()
        assert snap.requests == 2
        assert snap.latency.count == 2
        assert snap.latency.min <= snap.latency.mean <= snap.latency.max
        assert snap.cache.hits == 1 and snap.cache.misses == 1
        assert snap.tenants["institute"].requests == 2

    def test_parse_failure_counts_as_rejection(self, service):
        """Regression: malformed queries escaped the rejection counter
        (only ``ServiceError`` was caught, not parse failures)."""
        with pytest.raises(QueryParseError):
            service.submit("institute", "]][[")
        snap = service.metrics_snapshot()
        assert snap.rejected == 1
        assert snap.rejected_kinds == {"invalid-query": 1}

    def test_parse_failure_counts_in_submit_many(self, service):
        with pytest.raises(QueryParseError):
            service.submit_many(
                [
                    QueryRequest("institute", "patient"),
                    QueryRequest("institute", "]][["),
                ]
            )
        assert service.metrics_snapshot().rejected == 1

    def test_rejection_kinds_split_by_cause(self, service):
        with pytest.raises(AuthorizationError):
            service.submit("stranger", "patient")
        with pytest.raises(ServiceError):
            service.submit("institute", "patient", algorithm="magic")
        with pytest.raises(QueryParseError):
            service.submit("institute", "]][[")
        snap = service.metrics_snapshot()
        assert snap.rejected == 3
        assert snap.rejected_kinds == {
            "authorization": 1,
            "service": 1,
            "invalid-query": 1,
        }

    def test_rejection_kind_classifier(self):
        assert rejection_kind(AuthorizationError("x")) == "authorization"
        assert rejection_kind(ServiceError("x")) == "service"
        assert rejection_kind(QueryParseError("x")) == "invalid-query"
        assert rejection_kind(ReproError("x")) == "invalid-query"

    def test_describe_mentions_batching_only_after_batches(self, service):
        service.submit("institute", "patient")
        assert "batching" not in service.metrics_snapshot().describe()
        service.submit_many([QueryRequest("institute", "patient")] * 2)
        assert "batching" in service.metrics_snapshot().describe()


class TestSubmitMany:
    def test_matches_sequential_submits(self, service):
        requests = [
            QueryRequest("institute", q) for q in sorted(VIEW_QUERIES.values())
        ] + [QueryRequest("admin", FIG8A)]
        sequential = [service.submit(r.tenant, r.query) for r in requests]
        answers, stats = service.submit_many(requests)
        assert [a.ids() for a in answers] == [a.ids() for a in sequential]
        assert stats.lanes == len(requests)
        # A lane per request: nothing shared, nothing saved.
        assert stats.visited_elements == stats.sequential_visited

    def test_duplicate_requests_share_one_lane(self, service):
        requests = [QueryRequest("institute", "patient")] * 3 + [
            QueryRequest("admin", FIG8A)
        ]
        answers, stats = service.submit_many(requests)
        assert stats.lanes == 2  # two distinct (plan, algorithm) pairs
        assert answers[0].ids() == answers[1].ids() == answers[2].ids()
        # Sequential cost counts each request, duplicates included.
        per_request = [a.stats.visited_elements for a in answers]
        assert stats.sequential_visited == sum(per_request)
        assert stats.visited_elements < stats.sequential_visited

    def test_empty_batch(self, service):
        answers, stats = service.submit_many([])
        assert answers == [] and stats.lanes == 0

    def test_all_or_nothing_authorisation(self, service):
        requests = [
            QueryRequest("institute", "patient"),
            QueryRequest("stranger", "patient"),
        ]
        with pytest.raises(AuthorizationError):
            service.submit_many(requests)
        # Nothing was evaluated or recorded as served.
        assert service.metrics_snapshot().requests == 0

    def test_batch_answers_order_and_views(self, service):
        requests = [
            QueryRequest("admin", FIG8A),
            QueryRequest("institute", "patient"),
        ]
        answers, _stats = service.submit_many(requests)
        assert answers[0].view is None
        assert answers[1].view == "research"


class TestWavesMixingViews:
    """A wave whose lanes run under different views answers every lane
    exactly as that lane's own ``submit`` does: lanes never share a
    rewrite across the view boundary."""

    @pytest.fixture()
    def two_view_service(self, hospital_doc, sigma0_spec):
        restricted = view_spec(
            hospital_dtd(),
            hospital_view_dtd(),
            {**SIGMA0_ANNOTATIONS, ("patient", "parent"): "parent[not(.)]"},
        )
        service = QueryService(hospital_doc)
        service.register_view("research", sigma0_spec)
        service.register_view("restricted", restricted)
        service.register_tenant("inst", "research")
        service.register_tenant("audit", "restricted")
        return service

    @staticmethod
    def _assert_lanes_as_submitted(service, wave):
        answers, stats = service.submit_many(wave)
        assert stats.lanes == len(wave)
        for request, answer in zip(wave, answers):
            expected = service.submit(
                request.tenant, request.query, algorithm=request.algorithm
            )
            assert answer.view == expected.view
            assert answer.ids() == expected.ids()
            assert answer.stats == expected.stats
        return answers

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_one_lane_per_view(self, two_view_service, algorithm):
        wave = [
            QueryRequest("inst", "patient", algorithm),
            QueryRequest("audit", "patient", algorithm),
        ]
        research, restricted = self._assert_lanes_as_submitted(
            two_view_service, wave
        )
        assert (research.view, restricted.view) == ("research", "restricted")

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_two_lanes_per_view(self, two_view_service, algorithm):
        wave = [
            QueryRequest(tenant, query, algorithm)
            for tenant in ("inst", "audit")
            for query in ("patient", "patient/record")
        ]
        self._assert_lanes_as_submitted(two_view_service, wave)


class TestSubmitWave:
    def test_wave_matches_submit_many_when_all_admitted(self, service):
        requests = [
            QueryRequest("institute", q) for q in sorted(VIEW_QUERIES.values())
        ]
        expected, _stats = service.submit_many(requests)
        result = service.submit_wave(requests)
        assert result.admitted == len(requests)
        assert result.rejected == 0
        assert [o.ids() for o in result.outcomes] == [
            a.ids() for a in expected
        ]
        assert result.stats.visited_elements == result.stats.sequential_visited

    def test_wave_isolates_per_request_failures(self, service):
        """Unlike submit_many, one bad request doesn't sink the wave."""
        requests = [
            QueryRequest("institute", "patient"),
            QueryRequest("stranger", "patient"),  # unknown tenant
            QueryRequest("institute", "]][["),  # parse failure
            QueryRequest("admin", FIG8A),
        ]
        result = service.submit_wave(requests)
        assert result.admitted == 2 and result.rejected == 2
        good = result.outcomes[0]
        assert good.ids() == service.submit("institute", "patient").ids()
        assert isinstance(result.outcomes[1], AuthorizationError)
        assert isinstance(result.outcomes[2], QueryParseError)
        assert result.outcomes[3].view is None

    def test_wave_counts_rejections_and_waves(self, service):
        service.submit_wave(
            [
                QueryRequest("institute", "patient"),
                QueryRequest("stranger", "patient"),
            ]
        )
        snap = service.metrics_snapshot()
        assert snap.waves == 1
        assert snap.wave_requests == 2
        assert snap.wave_admitted == 1
        assert snap.rejected == 1
        assert snap.rejected_kinds == {"authorization": 1}

    def test_session_closed_mid_flight_does_not_poison_the_wave(self, service):
        """Regression: accounting re-looked the session up by id after
        evaluation, so a close() racing the shared pass raised
        ServiceError and discarded every answer in the wave."""
        session = service.open_session("institute")
        requests = [
            QueryRequest(
                "institute", "patient", session_id=session.session_id
            ),
            QueryRequest("admin", FIG8A),
        ]
        grants = [service._admit(r) for r in requests]
        # The session vanishes between admission and evaluation.
        service.sessions.close(session.session_id)
        answers, stats = service._evaluate_grants(grants)
        assert len(answers) == 2
        assert answers[0].ids() == service.submit("institute", "patient").ids()
        # Accounting landed on the session object captured at admission.
        assert session.requests == 1
        snap = service.metrics_snapshot()
        assert snap.requests == 3 and snap.rejected == 0

    def test_all_rejected_wave_still_returns(self, service):
        result = service.submit_wave([QueryRequest("stranger", "patient")])
        assert result.admitted == 0
        assert isinstance(result.outcomes[0], AuthorizationError)
        assert result.stats.lanes == 0

    def test_empty_wave(self, service):
        result = service.submit_wave([])
        assert result.outcomes == []
        assert service.metrics_snapshot().waves == 0


class TestTrafficWorkload:
    def test_generated_traffic_is_deterministic(self):
        cfg = TrafficConfig(num_tenants=3, num_requests=20, seed=9)
        first = generate_traffic(cfg)
        second = generate_traffic(cfg)
        assert [(r.tenant, r.query) for r in first] == [
            (r.tenant, r.query) for r in second
        ]
        assert len(first) == 20

    def test_waves_chunking(self):
        cfg = TrafficConfig(num_requests=10, seed=1)
        chunks = waves(generate_traffic(cfg), 4)
        assert [len(c) for c in chunks] == [4, 4, 2]
        with pytest.raises(ValueError, match="wave size"):
            waves([], 0)

    def test_traffic_runs_through_service(self, hospital_doc):
        cfg = TrafficConfig(num_tenants=2, num_requests=12, seed=3)
        svc = QueryService(hospital_doc)
        register_tenants(svc, cfg)
        traffic = generate_traffic(cfg)
        sequential = [svc.submit(r.tenant, r.query) for r in traffic]
        answers, stats = svc.submit_many(
            [QueryRequest(r.tenant, r.query) for r in traffic]
        )
        assert [a.ids() for a in answers] == [a.ids() for a in sequential]
        assert stats.visited_elements <= stats.sequential_visited
        snap = svc.metrics_snapshot()
        assert snap.batched_queries == 12
        assert snap.cache.hit_rate > 0


class TestUnregisteredTenantsMintNoMetricRows:
    """Regression: a rejection's *claimed* tenant used to get a metrics
    row (two histograms, ~35 exposition lines) whether or not the service
    had ever registered it — unbounded growth from unauthenticated input."""

    def test_unknown_names_count_globally_only(self, service):
        from repro.obs.export import render_prometheus
        from repro.serve.frontend import QueryFrontend

        service.submit("institute", "patient")
        before = service.metrics_snapshot()
        lines_before = render_prometheus(before).count("\n")
        frontend = QueryFrontend(service)
        strangers = 50
        for index in range(strangers):
            with pytest.raises(AuthorizationError):
                service.submit(f"stranger-{index}", "*")
            frontend.refused(
                "overloaded", {"op": "query", "tenant": f"flood-{index}"}
            )
        after = service.metrics_snapshot()
        assert after.rejected_kinds == {
            "authorization": strangers,
            "overloaded": strangers,
        }
        assert after.rejected == 2 * strangers
        assert set(after.tenants) == set(before.tenants) == {"institute"}
        # Two new rejected_total{kind=...} samples, and nothing else.
        assert render_prometheus(after).count("\n") == lines_before + 2

    def test_registered_tenant_rejection_lands_on_its_row(self, service):
        from repro.serve.frontend import QueryFrontend

        with pytest.raises(ReproError):
            service.submit("admin", "]][[")
        QueryFrontend(service).refused(
            "overloaded", {"op": "query", "tenant": "admin"}
        )
        snap = service.metrics_snapshot()
        assert snap.tenants["admin"].rejections == 2
        assert snap.tenants["admin"].requests == 0
