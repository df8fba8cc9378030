"""ExecutionPool: bounding, gauges, and the queue-wait/evaluate split."""

from __future__ import annotations

import threading
import time

import pytest

from repro.serve.pool import ExecutionPool


class TestExecutionPool:
    def test_size_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            ExecutionPool(0)

    def test_execute_returns_result_and_split_timings(self):
        with ExecutionPool(2) as pool:
            outcome = pool.execute(lambda: 41 + 1)
            assert outcome.result == 42
            assert outcome.queue_wait >= 0.0
            assert outcome.eval_seconds >= 0.0
            assert pool.completed == 1
            assert pool.in_flight == 0

    def test_exceptions_propagate_and_release_the_slot(self):
        with ExecutionPool(1) as pool:
            with pytest.raises(RuntimeError, match="boom"):
                pool.execute(lambda: (_ for _ in ()).throw(RuntimeError("boom")))
            assert pool.in_flight == 0
            assert pool.completed == 1
            # The worker survives a failed job.
            assert pool.execute(lambda: "ok").result == "ok"

    def test_bounded_concurrency_and_peak_gauge(self):
        """A size-2 pool runs at most 2 jobs at once; the third queues
        (visible as queue_wait) and the peak gauge records 2."""
        release = threading.Event()
        started = threading.Barrier(3, timeout=10)

        def blocker():
            started.wait()
            release.wait(timeout=10)
            return "done"

        with ExecutionPool(2) as pool:
            first = pool.dispatch(blocker)
            second = pool.dispatch(blocker)
            third = pool.dispatch(lambda: "queued")
            # Both workers are busy; the third job cannot have started.
            started.wait()
            assert pool.in_flight == 2
            assert not third.done()
            release.set()
            assert first.result(timeout=10).result == "done"
            assert second.result(timeout=10).result == "done"
            queued = third.result(timeout=10)
            assert queued.result == "queued"
            assert queued.queue_wait > 0.0
            assert pool.peak_in_flight == 2
            assert pool.completed == 3

    def test_service_owns_and_releases_its_pool(self, tmp_path):
        """QueryService.close() shuts down the pool it created."""
        from repro.serve.service import QueryService
        from repro.workloads import HospitalConfig, generate_hospital_document

        doc = generate_hospital_document(
            HospitalConfig(num_patients=2, seed=3)
        )
        with QueryService(doc, pool_size=1) as owned:
            owned.register_tenant("t", None)
            owned.submit("t", "department")
        with pytest.raises(RuntimeError):  # executor is shut down
            owned.pool.execute(lambda: None)

    def test_queue_wait_measures_waiting_not_running(self):
        with ExecutionPool(1) as pool:
            blocking = pool.dispatch(lambda: time.sleep(0.05))
            waiting = pool.dispatch(lambda: None)
            blocking.result(timeout=10)
            outcome = waiting.result(timeout=10)
            # The second job sat behind the 50 ms sleeper.
            assert outcome.queue_wait >= 0.03
            assert outcome.eval_seconds < 0.03
