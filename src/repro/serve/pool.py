"""Bounded evaluation worker pool: independent waves overlap.

Before the plan/run-state split the service serialised every evaluation
behind one global lock — the lock *was* the thread-safety story, and its
wait time silently inflated the reported evaluation latency.  Compiled
plans are now thread-safe (:class:`repro.hype.core.CompiledPlan`), so the
lock's two jobs come apart:

* **bounding** — at most :attr:`ExecutionPool.size` evaluations run at
  once; excess work queues (that queue time is what the old lock hid,
  and it is now measured separately as ``queue_wait``);
* **overlap** — up to ``size`` independent waves/requests evaluate
  concurrently.  Under a GIL build the evaluations interleave rather
  than parallelise, but a wave no longer waits for an unrelated wave to
  *finish* before starting: its evaluation overlaps the other wave's
  admission window, I/O and tail, and on free-threaded builds it
  parallelises outright.

The pool also keeps the gauges the metrics layer reports: evaluations in
flight right now, the peak ever observed (the concurrency proof used by
``benchmarks/test_concurrent_waves.py``), and the completed count.

Re-entrancy: :meth:`execute` blocks the calling thread until a worker
finishes the job — never call it from inside a pool worker, a full pool
would deadlock waiting on itself.  The service's call paths (caller
threads and the front-end's ``run_in_executor`` threads) all sit outside
the pool, so this cannot arise there.

Why a front-end wave takes two thread hops (event loop → executor
thread → pool worker) and not one: the hop into the pool keeps every
descent on the pool's few threads, so their allocations land in few
malloc arenas.  Running the work on the calling thread under a
semaphore instead (every check kept) was measured on the end-to-end
benchmark: ``request_overhead`` throughput rose 3 575 → 3 881 ops/s
(4 of 5 pairs), but peak RSS rose +7.6 % on ``descent_hot``
(67.6 → 72.8 MB, 3/3 pairs) and +4.0 % on ``wave_skew`` (3/3), close
to the benchmark's 10 % RSS bound; a 4-thread wave executor
still read +6.7 %, ``MALLOC_ARENA_MAX=1`` shrank the ``descent_hot``
gap to +2.9 %, and an A/A control read +0.4 %.  So the extra hop buys
memory, not speed; do not remove it without a new answer to arenas.
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import DeadlineError

#: Default bound on concurrent evaluations per service.
DEFAULT_POOL_SIZE = 4


@dataclass
class PoolOutcome:
    """One executed job: its result plus the split timings.

    ``queue_wait`` is the time the job sat dispatched-but-not-started
    (all workers busy); ``eval_seconds`` is the time the job itself ran.
    The metrics layer records the two separately so pool overlap is
    measurable instead of being folded into "latency".

    ``enqueued``/``started``/``finished`` are the absolute
    ``perf_counter`` instants behind those durations, so tracing callers
    can attach queue-wait and evaluate spans at the times the phases
    actually happened rather than re-timing around the pool.
    """

    result: Any
    queue_wait: float
    eval_seconds: float
    enqueued: float = 0.0
    started: float = 0.0
    finished: float = 0.0


class ExecutionPool:
    """A bounded worker pool for (thread-safe) plan evaluations."""

    def __init__(self, size: int = DEFAULT_POOL_SIZE) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self._executor = ThreadPoolExecutor(
            max_workers=size, thread_name_prefix="repro-eval"
        )
        self._lock = threading.Lock()
        self._in_flight = 0
        self._peak_in_flight = 0
        self._completed = 0

    # ------------------------------------------------------------------
    def execute(self, work: Callable[[], Any], deadline=None) -> PoolOutcome:
        """Run ``work`` on a pool worker; block until it finishes."""
        return self.dispatch(work, deadline=deadline).result()

    def dispatch(
        self, work: Callable[[], Any], deadline=None
    ) -> "Future[PoolOutcome]":
        """Queue ``work``; the future resolves to its :class:`PoolOutcome`.

        The dispatcher's :mod:`contextvars` context is captured here and
        entered on the worker, so an active trace span (or any other
        context state) propagates across the thread hop —
        ``ThreadPoolExecutor`` alone would run the job in the worker's
        own empty context.

        ``deadline`` (a :class:`repro.guard.Deadline`) makes the pool
        drop already-doomed work: a job whose deadline passed while it
        sat in the queue raises :class:`repro.errors.DeadlineError`
        through the future *instead of evaluating* — queue pressure from
        expired requests never steals worker time from live ones.
        """
        enqueued = time.perf_counter()
        ctx = contextvars.copy_context()
        return self._executor.submit(self._run, work, enqueued, ctx, deadline)

    def _run(
        self,
        work: Callable[[], Any],
        enqueued: float,
        ctx: contextvars.Context,
        deadline=None,
    ) -> PoolOutcome:
        started = time.perf_counter()
        if deadline is not None and started >= deadline.expires_at:
            raise DeadlineError(
                "deadline expired before evaluation started "
                f"(queued {(started - enqueued) * 1000:.1f} ms)"
            )
        with self._lock:
            self._in_flight += 1
            if self._in_flight > self._peak_in_flight:
                self._peak_in_flight = self._in_flight
        try:
            result = ctx.run(work)
        finally:
            with self._lock:
                self._in_flight -= 1
                self._completed += 1
        finished = time.perf_counter()
        return PoolOutcome(
            result=result,
            queue_wait=started - enqueued,
            eval_seconds=finished - started,
            enqueued=enqueued,
            started=started,
            finished=finished,
        )

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Evaluations executing right now (the gauge metrics report)."""
        with self._lock:
            return self._in_flight

    @property
    def peak_in_flight(self) -> int:
        """Most evaluations ever observed executing at once."""
        with self._lock:
            return self._peak_in_flight

    @property
    def completed(self) -> int:
        """Jobs finished (successfully or not) since the pool started."""
        with self._lock:
            return self._completed

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers (idempotent); pending jobs still run."""
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "ExecutionPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
