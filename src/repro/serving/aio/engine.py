"""The async serving engine: single-flight coalescing + micro-batching.

``AsyncServingEngine`` keeps every layer of the threaded
:class:`~repro.serving.engine.ServingEngine` — admission, bulkheads,
cache tiers, deadlines, hedging, journal, traces, metrics — and its
request lifecycle: the same ``_admit`` and ``_probe`` open a request and
the same ``_settle`` records every outcome.  It rebuilds the hot path
around them on asyncio:

1. **Registration phase** (event-loop thread, workload order): every
   request runs its synchronous prologue — bulkhead acquire, admission,
   journal ``accept``, result-cache probe, single-flight ``begin`` —
   before any pipeline work completes.  This makes leader/follower
   assignment a pure function of the workload: on a cold run exactly one
   leader per distinct key, every repeat a follower.  Deterministic
   coalescing is what lets CI diff two runs byte-for-byte.
2. **Leaders** run the pipeline on a thread pool (the event loop stays
   free); their LLM calls park at the :class:`MicroBatcher`, which
   batches same-stage calls across all concurrent leaders into single
   backend invocations.  Extraction/retrieval compute of one request
   overlaps the (virtual) decode waits of the others at those
   rendezvous points.
3. **Followers** await the leader's future (shielded, so one follower's
   cancellation cannot poison the flight), then commit ``"coalesced"``
   to the journal — zero payload, zero cost — which ``recover_run``
   replays exactly like a result-tier hit.

Replay semantics: a follower's seq is always greater than its leader's
(registration order), so serial recovery commits the leader's ``"ok"``
— warming the recovery cache — before any of its followers replay.
Edge rules mirror the cache tiers: a **deadline-truncated** leader
answer is never shared (followers each run the pipeline themselves and
commit their own outcome); a **failed** leader fails its followers with
the same error string, which a fresh recovery re-derives identically.

Virtual accounting: the async makespan is the backend-busy clock — the
sum of charged seconds over all batched invocations — because one
continuously-batching backend serves every concurrent request.  The
threaded engine's makespan is its busiest worker's virtual clock; the
two are directly comparable and ``bench_async`` certifies the ratio.
"""

from __future__ import annotations

import asyncio
import dataclasses
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

from repro.core.pipeline import PipelineResult
from repro.datasets.types import Example
from repro.reliability.faults import BudgetExceededError, CircuitOpenError
from repro.serving.admission import AdmissionError
from repro.serving.engine import ServingEngine, _Ctx
from repro.serving.stats import ServingStats
from repro.serving.aio.batcher import BatchingLLM, MicroBatcher
from repro.serving.aio.singleflight import RUN_SELF, SingleFlight
from repro.serving.aio.stats import AsyncServingStats

__all__ = ["AsyncServingEngine"]


class AsyncServingEngine(ServingEngine):
    """Coalescing, micro-batching asyncio front end for a pipeline.

    Accepts every :class:`ServingEngine` parameter plus the batching
    knobs.  The wrapped pipeline's LLM transports are rerouted through
    the micro-batcher at construction (before the cache tiers wrap the
    stage objects), so a pipeline handed to this engine must not be
    served by another engine concurrently — same contract as the
    threaded engine's cache wiring.
    """

    def __init__(
        self,
        pipeline,
        *args,
        max_batch: int = 32,
        batch_safety_window: float = 5.0,
        run_slots: Optional[int] = None,
        **kwargs,
    ):
        self.batcher = MicroBatcher(
            max_batch=max_batch, safety_timeout=batch_safety_window
        )
        # Install the batching shim while pipeline.extractor/generator/
        # refiner are still the raw stage objects — the cache wrappers
        # super() installs would otherwise shadow the rebind.
        pipeline.wrap_llms(lambda llm: BatchingLLM(llm, self.batcher))
        super().__init__(pipeline, *args, **kwargs)
        self.singleflight = SingleFlight()
        # Pipeline runs need one thread each for the batcher's barrier to
        # see the whole cohort; admission's queue_capacity bounds how many
        # can be in flight, so size the pool to it.
        slots = run_slots if run_slots is not None else max(
            self.workers, self.admission.capacity
        )
        self._run_pool = ThreadPoolExecutor(
            max_workers=slots, thread_name_prefix="aio-run"
        )

    # -------------------------------------------------------- serving API

    def run(
        self, examples: Sequence[Example], block: bool = True
    ) -> list[Optional[PipelineResult]]:
        """Serve a whole workload on a fresh event loop.

        Same contract as the threaded engine: results align with
        ``examples``; rejected and failed requests yield ``None``.
        ``block`` is accepted for signature compatibility — admission is
        always non-blocking here (a blocking admit would stall the loop),
        so the queue must be sized for the workload.
        """
        return asyncio.run(self.serve(examples))

    async def serve(
        self, examples: Sequence[Example]
    ) -> list[Optional[PipelineResult]]:
        """Serve a workload on the current event loop."""
        ctxs: list[Optional[_Ctx]] = []
        for example in examples:
            try:
                ctxs.append(self._register(example))
            except (AdmissionError, BudgetExceededError, CircuitOpenError):
                ctxs.append(None)
        self.batcher.expect(sum(1 for c in ctxs if c is not None and c.role == "lead"))
        tasks = [
            asyncio.create_task(self._finish(ctx)) if ctx is not None else None
            for ctx in ctxs
        ]
        results: list[Optional[PipelineResult]] = []
        for task in tasks:
            if task is None:
                results.append(None)
                continue
            try:
                results.append(await task)
            except Exception:
                results.append(None)
        return results

    async def submit_async(
        self, example: Example, deadline_seconds: Optional[float] = None
    ) -> PipelineResult:
        """Register and serve one request on the current event loop.

        Raises the same typed rejection errors as the threaded
        ``submit``.  Concurrent ``submit_async`` tasks coalesce exactly
        like a ``serve`` workload — registration runs in task order.
        """
        ctx = self._register(example, deadline_seconds)
        if ctx.role == "lead":
            self.batcher.expect(1)
        return await self._finish(ctx)

    # ------------------------------------------------------- registration

    def _register(
        self, example: Example, deadline_seconds: Optional[float] = None
    ) -> _Ctx:
        """The synchronous prologue: admission, result probe, dedup role."""
        ctx = self._admit(example, block=False, deadline_seconds=deadline_seconds)
        cached = self._probe(ctx)
        if cached is not None:
            ctx.role = "cached"
            ctx.result = self._settle(ctx, "cached", cached)
            self._release(ctx)
            return ctx
        ctx.flight, leader = self.singleflight.begin(ctx.key)
        ctx.role = "lead" if leader else "follow"
        return ctx

    # ---------------------------------------------------------- execution

    async def _finish(self, ctx: _Ctx) -> PipelineResult:
        if ctx.role == "cached":
            return ctx.result
        if ctx.role == "lead":
            return await self._lead(ctx)
        return await self._follow(ctx)

    async def _lead(self, ctx: _Ctx) -> PipelineResult:
        flight = ctx.flight
        try:
            result = await self._serve_fresh(ctx)
        except Exception as exc:
            self.singleflight.finish(flight)
            flight.future.set_exception(exc)
            # mark retrieved so a follower-less flight does not warn
            _ = flight.future.exception()
            raise
        finally:
            self._release(ctx)
        self.singleflight.finish(flight)
        # A deadline-truncated answer is a degraded stand-in — never
        # shared, mirroring the result-cache rule.  A doomed flight
        # (invalidate_db landed mid-flight) must not share either: the
        # answer was computed against pre-invalidation content.  In both
        # cases followers run fresh.
        flight.future.set_result(
            RUN_SELF if result.deadline_exceeded or flight.doomed else result
        )
        return result

    async def _follow(self, ctx: _Ctx) -> PipelineResult:
        try:
            try:
                # A cancelled follower (or leader) commits nothing: the
                # seq stays pending and recovery completes it.
                outcome = await asyncio.shield(ctx.flight.future)
            except Exception as exc:
                # The leader failed; this request fails identically, and
                # a fresh recovery re-runs it to the same typed error.
                self._settle(ctx, "failed", exc)
                raise
            if outcome is RUN_SELF:
                # Fail-open: the leader's answer may not be shared.
                self.batcher.expect(1)
                return await self._serve_fresh(ctx)
            return self._settle(ctx, "coalesced", outcome)
        finally:
            self._release(ctx)

    async def _serve_fresh(self, ctx: _Ctx) -> PipelineResult:
        """Run the pipeline on the run pool as a batcher runner, then settle."""

        def runner() -> PipelineResult:
            self.batcher.runner_begun()
            try:
                return self._run_pipeline(ctx)
            finally:
                self.batcher.runner_finished()

        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(self._run_pool, runner)
        except Exception as exc:
            self._settle(ctx, "failed", exc)
            raise
        return self._settle(ctx, "ok", result)

    # ----------------------------------------------------------- plumbing

    def invalidate_db(self, db_id: str) -> dict[str, int]:
        """Cache-tier invalidation plus in-flight single-flight dooming."""
        dropped = super().invalidate_db(db_id)
        dropped["singleflight"] = self.singleflight.invalidate(
            lambda key: bool(key) and key[0] == db_id
        )
        return dropped

    def reset_stats(self) -> None:
        super().reset_stats()
        self.batcher.reset_stats()

    def stats(self) -> AsyncServingStats:
        base = super().stats()
        batcher = self.batcher.stats()
        data = {
            f.name: getattr(base, f.name) for f in dataclasses.fields(ServingStats)
        }
        data["makespan_seconds"] = batcher["backend_busy_seconds"]
        return AsyncServingStats(
            coalesced=self._m_requests.counts().get("coalesced", 0),
            llm_calls=batcher["calls"],
            flushes=batcher["flushes"],
            batched_calls=batcher["batched_calls"],
            max_batch=batcher["max_batch"],
            mean_batch=batcher["mean_batch"],
            backend_busy_seconds=batcher["backend_busy_seconds"],
            safety_timeouts=batcher["safety_timeouts"],
            **data,
        )

    def shutdown(self, wait: bool = True, drain: bool = False) -> None:
        super().shutdown(wait=wait, drain=drain)
        self._run_pool.shutdown(wait=wait or drain)
