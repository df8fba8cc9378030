"""Admission-control tests: wave formation, caps, timeouts, failures."""

import asyncio

import pytest

from repro.errors import AuthorizationError, QueryParseError
from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmittedAnswer,
)
from repro.serve.service import QueryRequest, QueryService
from repro.workloads import (
    VIEW_QUERIES,
    ArrivalConfig,
    TrafficConfig,
    arrival_gaps,
    generate_traffic,
    register_tenants,
    replay_async,
)


@pytest.fixture()
def service(hospital_doc, sigma0_spec):
    svc = QueryService(hospital_doc)
    svc.register_view("research", sigma0_spec)
    svc.register_tenant("institute", "research")
    svc.register_tenant("admin", None)
    return svc


QUERIES = sorted(VIEW_QUERIES.values())[:4]


class TestWaveFormation:
    def test_concurrent_arrivals_coalesce_into_one_wave(self, service):
        async def scenario():
            controller = AdmissionController(
                service, AdmissionConfig(max_wave=4, max_wait=0.5)
            )
            requests = [QueryRequest("institute", q) for q in QUERIES]
            results = await asyncio.gather(
                *(controller.submit(r) for r in requests)
            )
            return controller, results

        controller, results = asyncio.run(scenario())
        snap = service.metrics_snapshot()
        assert snap.waves == 1
        assert snap.wave_requests == 4
        assert snap.largest_wave == 4
        assert all(isinstance(r, AdmittedAnswer) for r in results)
        assert all(r.wave_size == 4 for r in results)
        # Shared pass beats four per-request passes.
        stats = results[0].wave_stats
        assert stats.visited_elements < stats.sequential_visited

    def test_wave_answers_match_sequential_submits(self, service):
        async def scenario():
            controller = AdmissionController(
                service, AdmissionConfig(max_wave=8, max_wait=0.2)
            )
            requests = [QueryRequest("institute", q) for q in QUERIES]
            return await asyncio.gather(
                *(controller.submit(r) for r in requests)
            )

        results = asyncio.run(scenario())
        for query, result in zip(QUERIES, results):
            assert result.answer.ids() == service.submit("institute", query).ids()

    def test_max_wait_dispatches_partial_wave(self, service):
        async def scenario():
            controller = AdmissionController(
                service, AdmissionConfig(max_wave=100, max_wait=0.02)
            )
            results = await asyncio.gather(
                *(
                    controller.submit(QueryRequest("institute", q))
                    for q in QUERIES[:2]
                )
            )
            return controller, results

        controller, results = asyncio.run(scenario())
        # Far below max_wave: the window timer alone closed the wave.
        assert service.metrics_snapshot().waves == 1
        assert results[0].wave_size == 2

    def test_max_wave_is_a_hard_cap_under_bursts(self, service):
        async def scenario():
            controller = AdmissionController(
                service, AdmissionConfig(max_wave=2, max_wait=0.05)
            )
            requests = [
                QueryRequest("institute", QUERIES[i % len(QUERIES)])
                for i in range(5)
            ]
            results = await asyncio.gather(
                *(controller.submit(r) for r in requests)
            )
            return controller, results

        controller, results = asyncio.run(scenario())
        assert all(r.wave_size <= 2 for r in results)
        snap = service.metrics_snapshot()
        assert snap.wave_requests == 5
        assert snap.largest_wave <= 2

    def test_sequential_arrivals_do_not_wait_forever(self, service):
        """A lone request is served after max_wait, not held open."""

        async def scenario():
            controller = AdmissionController(
                service, AdmissionConfig(max_wave=8, max_wait=0.01)
            )
            return await controller.submit(QueryRequest("institute", "patient"))

        result = asyncio.run(scenario())
        assert result.wave_size == 1

    def test_flush_dispatches_without_window(self, service):
        async def scenario():
            controller = AdmissionController(
                service, AdmissionConfig(max_wave=8, max_wait=30.0)
            )
            task = asyncio.create_task(
                controller.submit(QueryRequest("institute", "patient"))
            )
            await asyncio.sleep(0)  # let the leader open the wave
            await controller.flush()
            return await asyncio.wait_for(task, timeout=5.0)

        result = asyncio.run(scenario())
        assert result.wave_size == 1


class TestWaveFailures:
    def test_rejections_fail_only_their_own_future(self, service):
        async def scenario():
            controller = AdmissionController(
                service, AdmissionConfig(max_wave=4, max_wait=0.2)
            )
            requests = [
                QueryRequest("institute", "patient"),
                QueryRequest("stranger", "patient"),
                QueryRequest("institute", "]][["),
                QueryRequest("admin", "//pname"),
            ]
            return await asyncio.gather(
                *(controller.submit(r) for r in requests),
                return_exceptions=True,
            )

        results = asyncio.run(scenario())
        assert isinstance(results[0], AdmittedAnswer)
        assert isinstance(results[1], AuthorizationError)
        assert isinstance(results[2], QueryParseError)
        assert isinstance(results[3], AdmittedAnswer)

    def test_cancelled_leader_during_dispatch_frees_followers(
        self, service, monkeypatch
    ):
        """Regression: the leader awaited the dispatch itself, so a caller
        timeout/cancel on the leader's submit() during evaluation left
        every other waiter in the wave hanging forever."""
        import time

        real_submit_wave = service.submit_wave

        def slow_submit_wave(requests):
            time.sleep(0.2)  # long enough for the cancel to land mid-wave
            return real_submit_wave(requests)

        monkeypatch.setattr(service, "submit_wave", slow_submit_wave)

        async def scenario():
            controller = AdmissionController(
                service, AdmissionConfig(max_wave=8, max_wait=0.03)
            )
            leader = asyncio.create_task(
                controller.submit(QueryRequest("institute", "patient"))
            )
            await asyncio.sleep(0.005)  # joins the leader's open wave
            follower = asyncio.create_task(
                controller.submit(QueryRequest("admin", "//pname"))
            )
            await asyncio.sleep(0.1)  # window closed; wave is evaluating
            leader.cancel()
            result = await asyncio.wait_for(follower, timeout=5.0)
            assert leader.cancelled() or leader.done()
            return result

        result = asyncio.run(scenario())
        assert isinstance(result, AdmittedAnswer)
        assert result.wave_size == 2

    def test_cancelled_leader_in_the_window_frees_followers(self, service):
        """The cancel lands while the partial wave is still collecting."""

        async def scenario():
            controller = AdmissionController(
                service, AdmissionConfig(max_wave=8, max_wait=0.2)
            )
            leader = asyncio.create_task(
                controller.submit(QueryRequest("institute", "patient"))
            )
            await asyncio.sleep(0.005)
            follower = asyncio.create_task(
                controller.submit(QueryRequest("admin", "//pname"))
            )
            await asyncio.sleep(0.005)
            leader.cancel()
            result = await asyncio.wait_for(follower, timeout=5.0)
            assert leader.cancelled()
            return result

        result = asyncio.run(scenario())
        assert isinstance(result, AdmittedAnswer) and result.wave_size == 2

    @pytest.mark.parametrize("max_wave", [1, 2])
    def test_cancelled_leader_of_a_full_wave_strands_nobody(
        self, service, monkeypatch, max_wave
    ):
        """A wave full on arrival leaves from a housekeeping task too:
        cancelling its leader mid-evaluation fails neither the wave nor
        the waves behind it.  (``max_wave=1``: every submitter leads a
        full wave; ``2``: the overflow of a burst is re-led full.)"""
        import time

        real_submit_wave = service.submit_wave

        def slow_submit_wave(requests):
            time.sleep(0.1)
            return real_submit_wave(requests)

        monkeypatch.setattr(service, "submit_wave", slow_submit_wave)

        async def scenario():
            controller = AdmissionController(
                service, AdmissionConfig(max_wave=max_wave, max_wait=0.5)
            )
            tasks = [
                asyncio.create_task(
                    controller.submit(QueryRequest("institute", "patient"))
                )
                for _ in range(2 * max_wave)
            ]
            await asyncio.sleep(0.05)  # both waves are evaluating
            tasks[0].cancel()
            tasks[max_wave].cancel()
            done = await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), timeout=5.0
            )
            assert not controller._pending and not controller._collecting
            return done

        done = asyncio.run(scenario())
        for slot, outcome in enumerate(done):
            if slot % max_wave == 0:
                assert isinstance(outcome, asyncio.CancelledError)
            else:
                assert isinstance(outcome, AdmittedAnswer)
                assert outcome.wave_size == max_wave
        assert service.metrics_snapshot().waves == 2


class TestFullOnArrival:
    """A wave full on the leader's arrival leaves at once; only a
    partial wave holds the window."""

    @staticmethod
    def run_spied(service, config, requests, monkeypatch):
        calls = {"wait_for": 0, "call_later": 0}
        real_wait_for = asyncio.wait_for

        async def wait_for(*args, **kwargs):
            calls["wait_for"] += 1
            return await real_wait_for(*args, **kwargs)

        async def scenario():
            loop = asyncio.get_running_loop()
            real_call_later = loop.call_later

            def call_later(*args, **kwargs):
                calls["call_later"] += 1
                return real_call_later(*args, **kwargs)

            controller = AdmissionController(service, config)
            monkeypatch.setattr(asyncio, "wait_for", wait_for)
            monkeypatch.setattr(loop, "call_later", call_later)
            try:
                return await asyncio.gather(*map(controller.submit, requests))
            finally:
                monkeypatch.undo()

        return asyncio.run(scenario()), calls

    def test_a_full_wave_sets_no_timer(self, service, monkeypatch):
        for _ in range(3):
            results, calls = self.run_spied(
                service,
                AdmissionConfig(max_wave=1, max_wait=0.5),
                [QueryRequest("institute", "patient")],
                monkeypatch,
            )
            assert results[0].wave_size == 1
            assert calls == {"wait_for": 0, "call_later": 0}

    def test_a_releadable_overflow_sets_no_second_timer(self, service, monkeypatch):
        results, calls = self.run_spied(
            service,
            AdmissionConfig(max_wave=2, max_wait=0.5),
            [QueryRequest("institute", "patient") for _ in range(4)],
            monkeypatch,
        )
        assert [r.wave_size for r in results] == [2, 2, 2, 2]
        assert calls["wait_for"] == 1

    def test_a_partial_wave_holds_exactly_one_window(self, service, monkeypatch):
        results, calls = self.run_spied(
            service,
            AdmissionConfig(max_wave=4, max_wait=0.01),
            [QueryRequest("institute", "patient") for _ in range(2)],
            monkeypatch,
        )
        assert [r.wave_size for r in results] == [2, 2]
        assert calls == {"wait_for": 1, "call_later": 1}
        assert service.metrics_snapshot().waves == 1


class TestConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_wave"):
            AdmissionConfig(max_wave=0)
        with pytest.raises(ValueError, match="max_wait"):
            AdmissionConfig(max_wait=-1.0)


class TestTrafficReplay:
    def test_arrival_gaps_are_seeded_and_bounded(self):
        cfg = ArrivalConfig(mean_gap=0.01, jitter=0.5, seed=3)
        gaps = arrival_gaps(10, cfg)
        assert gaps == arrival_gaps(10, cfg)
        assert gaps[0] == 0.0
        assert all(0.005 <= g <= 0.015 for g in gaps[1:])
        assert arrival_gaps(0, cfg) == []

    def test_arrival_config_validation(self):
        with pytest.raises(ValueError, match="mean_gap"):
            ArrivalConfig(mean_gap=-0.1)
        with pytest.raises(ValueError, match="jitter"):
            ArrivalConfig(jitter=1.5)

    def test_replay_returns_results_in_stream_order(self, service):
        traffic = generate_traffic(
            TrafficConfig(num_tenants=1, num_requests=6, seed=2)
        )
        # The fixture's tenants don't match inst-*; register them.
        register_tenants(service, TrafficConfig(num_tenants=1))

        async def scenario():
            controller = AdmissionController(
                service, AdmissionConfig(max_wave=4, max_wait=0.05)
            )
            return await replay_async(
                lambda r: controller.submit(QueryRequest(r.tenant, r.query)),
                traffic,
                ArrivalConfig(mean_gap=0.0005, seed=2),
            )

        results = asyncio.run(scenario())
        assert len(results) == len(traffic)
        for request, result in zip(traffic, results):
            assert isinstance(result, AdmittedAnswer)
            assert (
                result.answer.ids()
                == service.submit(request.tenant, request.query).ids()
            )

    def test_replay_carries_exceptions_in_their_slot(self, service):
        from repro.workloads.traffic import TrafficRequest

        stream = [
            TrafficRequest("institute", "patient", "good"),
            TrafficRequest("stranger", "patient", "bad"),
        ]

        async def scenario():
            controller = AdmissionController(
                service, AdmissionConfig(max_wave=4, max_wait=0.05)
            )
            return await replay_async(
                lambda r: controller.submit(QueryRequest(r.tenant, r.query)),
                stream,
                ArrivalConfig(mean_gap=0.0),
            )

        results = asyncio.run(scenario())
        assert isinstance(results[0], AdmittedAnswer)
        assert isinstance(results[1], AuthorizationError)
