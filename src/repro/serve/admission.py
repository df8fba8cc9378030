"""Per-wave admission control: coalescing concurrent arrivals into waves.

PR 1's :meth:`repro.serve.service.QueryService.submit_many` only batches
when a caller hands it a pre-assembled list — concurrent arrivals from
independent clients never coalesce on their own.  The
:class:`AdmissionController` closes that gap on an asyncio event loop:

* an arriving request joins the *open* wave;
* the first arrival of a wave becomes its leader and holds the wave open
  for at most :attr:`AdmissionConfig.max_wait` seconds or until
  :attr:`AdmissionConfig.max_wave` requests have joined, whichever is
  first — a wave already full on the leader's arrival leaves at once,
  only a partial wave holds the window;
* the leader then dispatches the whole wave through
  :meth:`QueryService.submit_wave` in a worker thread
  (``run_in_executor``), so the event loop keeps accepting arrivals —
  the *next* wave collects while the previous one evaluates, and since
  the service routes evaluation through its bounded
  :class:`repro.serve.pool.ExecutionPool` (compiled plans are
  thread-safe), independent waves also *evaluate* concurrently instead
  of queueing behind one global lock;
* every waiter gets its own answer (or its own rejection) back.

Because the service's wave path evaluates all admitted requests in one
shared :class:`repro.serve.batch.BatchEvaluator` pass, K coalesced
requests cost roughly the union of their visit sets instead of the sum —
the batching win now arises from traffic itself.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import time
from dataclasses import dataclass

from ..engine.smoqe import QueryAnswer
from ..errors import ReproError
from ..obs.trace import add_span, current_span
from .batch import BatchStats
from .service import QueryRequest, QueryService, WaveResult


@dataclass
class AdmissionConfig:
    """Knobs for wave formation.

    Attributes:
        max_wave: Dispatch as soon as this many requests have joined the
            open wave.
        max_wait: Hold the wave open at most this many seconds after its
            first arrival (the latency price of coalescing).
    """

    max_wave: int = 8
    max_wait: float = 0.02

    def __post_init__(self) -> None:
        if self.max_wave < 1:
            raise ValueError(f"max_wave must be >= 1, got {self.max_wave}")
        if self.max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {self.max_wait}")


@dataclass
class AdmittedAnswer:
    """One request's answer plus the wave it was served in."""

    answer: QueryAnswer
    wave_size: int
    wave_stats: BatchStats


class AdmissionController:
    """Coalesce concurrent async arrivals into ``submit_wave`` batches.

    All state is touched only from the owning event loop (asyncio is
    cooperatively scheduled, so no locks are needed); the blocking
    evaluation runs in the loop's default executor (``run_in_executor``),
    and from there on the service's evaluation pool.  Wave
    accounting (waves, sizes, mean) lives in the service's metrics —
    ``service.metrics_snapshot()`` reports it.
    """

    def __init__(
        self,
        service: QueryService,
        config: AdmissionConfig | None = None,
    ) -> None:
        self.service = service
        self.config = config or AdmissionConfig()
        # Each pending entry: (request, future, captured contextvars
        # context or None, arrival perf_counter).  The context is taken
        # where the request's trace is active, so spans recorded during
        # the off-loop wave evaluation attach to the right trace.
        self._pending: list[
            tuple[
                QueryRequest,
                asyncio.Future,
                contextvars.Context | None,
                float,
            ]
        ] = []
        self._collecting = False
        self._wave_full: asyncio.Event | None = None
        # Strong refs to fire-and-forget tasks (overflow re-leads,
        # cancelled-leader handoffs) — the loop only keeps weak ones.
        self._housekeeping: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    async def submit(self, request: QueryRequest) -> AdmittedAnswer:
        """Join the open wave and await this request's answer.

        Raises the request's own :class:`repro.errors.ReproError` if it
        was rejected (other requests in the wave are unaffected).
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        # Arm the request's deadline at ARRIVAL (unless the caller armed
        # it even earlier, e.g. the front-end at protocol parse): the
        # coalescing hold below spends from the request's own budget.
        if request.deadline is None and request.deadline_ms is not None:
            request.deadline = request.arm()
        # Capture the trace context only when a trace is actually active:
        # with tracing off this is one contextvar read per request.
        ctx = (
            contextvars.copy_context() if current_span() is not None else None
        )
        self._pending.append((request, future, ctx, time.perf_counter()))
        if self._collecting:
            if (
                len(self._pending) >= self.config.max_wave
                and self._wave_full is not None
            ):
                self._wave_full.set()
        else:
            await self._lead_wave()
        return await future

    async def flush(self) -> None:
        """Trigger dispatch of whatever is pending without waiting out
        the window (waiters' futures resolve as their waves complete)."""
        if self._wave_full is not None:
            self._wave_full.set()
        elif self._pending:
            # Same invariant as _lead_wave: dispatch only from a
            # housekeeping task, so cancelling flush() strands no waiter.
            wave = self._take_wave()
            if wave:
                self._spawn(self._dispatch(wave))

    # ------------------------------------------------------------------
    async def _lead_wave(self) -> None:
        """First arrival's duty: hold the wave open, then dispatch it.

        A wave that is full on the leader's arrival (``max_wave == 1``,
        or a re-led overflow of a whole wave) has nothing to wait for
        and leaves at once — no event, no timer, no loop turn; only a
        partial wave holds the window.  Either way the dispatch runs in
        a housekeeping task, never in the leader itself: cancelling the
        leader (a caller timeout on submit, a dropped connection) must
        not strand the other waiters — whether the cancel lands in the
        window or during the evaluation that follows.
        """
        if len(self._pending) >= self.config.max_wave:
            self._spawn(self._dispatch(self._take_wave()))
            return
        self._collecting = True
        self._wave_full = asyncio.Event()
        try:
            await asyncio.wait_for(
                self._wave_full.wait(), timeout=self.config.max_wait
            )
        except asyncio.TimeoutError:
            pass
        finally:
            wave = self._take_wave()
            if wave:
                self._spawn(self._dispatch(wave))

    def _spawn(self, coro) -> None:
        """create_task with a strong reference held until completion."""
        task = asyncio.get_running_loop().create_task(coro)
        self._housekeeping.add(task)
        task.add_done_callback(self._housekeeping.discard)

    def _take_wave(self) -> list[tuple]:
        """Close the open wave, capped at ``max_wave`` requests.

        A burst can append past the cap between the full-event firing and
        the leader resuming, so the overflow stays pending and is re-led
        as the next wave by a synthetic leader task.
        """
        wave = self._pending[: self.config.max_wave]
        del self._pending[: self.config.max_wave]
        self._collecting = False
        self._wave_full = None
        if self._pending:
            self._spawn(self._relead())
        return wave

    async def _relead(self) -> None:
        """Lead the overflow of a capped wave (unless a new arrival already
        took over leadership)."""
        if self._pending and not self._collecting:
            await self._lead_wave()

    async def _dispatch(self, wave: list[tuple]) -> None:
        """Evaluate one wave off-loop and fan results out to the waiters."""
        if not wave:
            return
        loop = asyncio.get_running_loop()
        requests = [request for request, _future, _ctx, _arrival in wave]
        contexts = [ctx for _request, _future, ctx, _arrival in wave]
        # The coalescing window each request sat in, recorded into its
        # own trace before the wave leaves the loop.  These ctx.run calls
        # and submit_wave's re-entries of the same contexts are strictly
        # sequential (loop thread now, one executor thread after).
        dispatched = time.perf_counter()
        for _request, _future, ctx, arrival in wave:
            if ctx is not None:
                ctx.run(
                    add_span,
                    "admission.hold",
                    arrival,
                    dispatched,
                    wave=len(wave),
                )
        # Only thread the contexts through when at least one request is
        # traced — with tracing off the call stays the plain legacy shape.
        if any(ctx is not None for ctx in contexts):
            call = functools.partial(
                self.service.submit_wave, requests, contexts=contexts
            )
        else:
            call = functools.partial(self.service.submit_wave, requests)
        try:
            result: WaveResult = await loop.run_in_executor(None, call)
        except Exception as error:  # defensive: keep waiters unblocked
            for _request, future, _ctx, _arrival in wave:
                if not future.done():
                    future.set_exception(error)
            return
        for (_request, future, _ctx, _arrival), outcome in zip(
            wave, result.outcomes
        ):
            if future.done():  # waiter was cancelled mid-wave
                continue
            if isinstance(outcome, ReproError):
                future.set_exception(outcome)
            else:
                future.set_result(
                    AdmittedAnswer(
                        answer=outcome,
                        wave_size=len(wave),
                        wave_stats=result.stats,
                    )
                )
