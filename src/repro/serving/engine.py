"""The concurrent serving engine.

``ServingEngine`` turns a preprocessed :class:`~repro.core.pipeline.
OpenSearchSQL` into a service: requests are admitted through a bounded
queue (:class:`~repro.serving.admission.AdmissionController`, wired to the
reliability layer's circuit breaker and a request budget), executed on a
thread pool, and answered through three cache tiers:

1. **result** — exact-match on normalized ``(db_id, question)`` (plus the
   routed tier when the pipeline is a
   :class:`~repro.routing.TieredPipeline`); a hit skips the pipeline
   entirely;
2. **extraction** — the Extraction stage's output per question, shared by
   repeat requests that miss the result tier (e.g. after invalidation);
3. **fewshot** — Masked-Question retrieval results from the few-shot
   library, the hot inner loop of Generation.

Every tier keeps hit/miss/eviction stats.  The result and extraction
tiers derive from a database's catalog and support per-database
invalidation (``invalidate_db``) for when its content changes; the
few-shot tier derives from the train split alone.

Per-request latency is the **service time**: real wall seconds around the
request plus the simulated model decode seconds its LLM calls reported.
Each worker thread accumulates the service time of the requests it ran —
a per-worker virtual clock — and :meth:`stats` aggregates those into the
p50/p95/p99 + throughput view of :class:`~repro.serving.stats.ServingStats`.

Every count the engine observes has one home, its ``metrics`` registry
(the one passed in, or a private one): requests by terminal status,
deadline truncations, model seconds and the live-data events.
:meth:`stats` and :attr:`livedata_stats` read those instruments back, so
an engine handed a shared registry shares its counts too.  Counts a
component keeps (admission, bulkheads, caches, hedging, backends,
routing, the journal) stay in the component; :meth:`stats` and the
registry's collectors read them there.

Thread-safety contract: the wrapped pipeline must be *reentrant* —
``SimulatedLLM`` draws from per-call hash-derived seeds (order-independent
by construction), ``SQLExecutor`` serializes per-connection access, and
the engine never mutates pipeline state after construction.  Do not
``rebind_llm`` a pipeline while an engine is serving it.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Optional, Sequence

from repro.core.pipeline import OpenSearchSQL, PipelineResult
from repro.datasets.types import Example
from repro.observability.context import add_event
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import Trace
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.deadline import Deadline
from repro.reliability.faults import BudgetExceededError, CircuitOpenError
from repro.serving.admission import AdmissionController, AdmissionError
from repro.caching import LRUCache, normalize_question, result_cache_key
from repro.serving.backends import BackendPool
from repro.serving.bulkhead import BulkheadRegistry
from repro.livedata.epoch import EpochRegistry
from repro.livedata.errors import StaleCatalogError
from repro.livedata.guard import EpochGuardExecutor, EpochPins
from repro.serving.health import HealthMonitor
from repro.serving.hedging import HedgeStats, hedge_executors
from repro.serving.journal import ServingJournal
from repro.serving.latency import LatencySummary
from repro.serving.stats import ServingStats

__all__ = ["ServingEngine", "CachingExtractor", "CachingFewShotLibrary"]


class _Ctx:
    """One request's record, from ``_admit`` to ``_settle``."""

    __slots__ = (
        "example", "seq", "start", "budget", "key", "qkey", "trace",
        "deadline", "role", "flight", "result",
    )

    def __init__(self, example):
        self.example = example
        self.seq = None
        self.start = 0.0
        self.budget = None
        self.key = None  # result-cache key (may carry a tier and an epoch)
        # quarantine key: (db_id, normalized question) on every engine
        self.qkey = (example.db_id, normalize_question(example.question))
        self.trace = None
        self.deadline = None
        self.role = None  # async only: "lead" | "follow" | "cached"
        self.flight = None
        self.result = None


class CachingExtractor:
    """Extraction-tier cache: wraps an Extractor, memoizing ``run``.

    Keyed on ``(db_id, question_id)`` — extraction is deterministic per
    example, so repeats reuse the stage output without paying its LLM
    calls.  When an :class:`~repro.livedata.epoch.EpochRegistry` is
    attached (``epochs``), the database's current ``schema_epoch`` joins
    the key, so a mutation self-invalidates every cached extraction
    derived from the old catalog.  Attribute access falls through to the
    wrapped extractor so the pipeline's other touch points (``config``,
    ``vectorizer``) keep working.
    """

    def __init__(self, inner, cache: LRUCache):
        self.inner = inner
        self.cache = cache
        self.epochs: Optional[EpochRegistry] = None

    def run(self, example, pre, cost=None, span=None):
        key: tuple = (example.db_id, example.question_id)
        if self.epochs is not None:
            key = key + (self.epochs.epoch(example.db_id),)
        hit = self.cache.get(key)
        if hit is not None:
            if span is not None:
                span.cache = "hit"
                span.event("extraction_cache", outcome="hit")
            return hit
        if span is not None:
            span.cache = "miss"
            span.event("extraction_cache", outcome="miss")
            result = self.inner.run(example, pre, cost, span=span)
        else:
            result = self.inner.run(example, pre, cost)
        self.cache.put(key, result)
        return result

    def __getattr__(self, name):
        return getattr(self.inner, name)


class CachingFewShotLibrary:
    """Few-shot-tier cache: wraps a FewShotLibrary, memoizing ``search``.

    MQs retrieval re-embeds and re-searches the masked question on every
    generation call; the key ``(normalized question, surfaces, k, db_id)``
    captures every argument that shapes the result.  The question is
    normalized like the result tier's key — retrieval embeds case-folded
    masked text, so variants differing only in trailing ``?`` spacing or
    case retrieve identically and must share one entry.  The library is a
    function of the train split alone, so no catalog mutation touches
    this tier; only ``add`` clears it (new entries can change any
    ranking).
    """

    def __init__(self, inner, cache: LRUCache):
        self.inner = inner
        self.cache = cache

    def search(self, question, surfaces=(), k=5, db_id=None):
        key = (normalize_question(question), tuple(surfaces), k, db_id)
        hit = self.cache.get(key)
        if hit is not None:
            # Generation's stage span is ambient here; the event lands on it.
            add_event("fewshot_cache", outcome="hit")
            return hit
        add_event("fewshot_cache", outcome="miss")
        result = self.inner.search(question, surfaces=surfaces, k=k, db_id=db_id)
        self.cache.put(key, result)
        return result

    def add(self, entry):
        self.inner.add(entry)
        self.cache.clear()

    def __len__(self):
        return len(self.inner)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class ServingEngine:
    """Concurrent, cached, admission-controlled front end for a pipeline."""

    def __init__(
        self,
        pipeline: OpenSearchSQL,
        workers: int = 4,
        queue_capacity: int = 32,
        result_cache_size: int = 512,
        result_cache_ttl: Optional[float] = None,
        extraction_cache_size: int = 1024,
        fewshot_cache_size: int = 1024,
        breaker: Optional[CircuitBreaker] = None,
        max_requests: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        hedge_threshold: Optional[float] = None,
        tracing: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        db_max_inflight: Optional[int] = None,
        quarantine_threshold: int = 3,
        journal: Optional[ServingJournal] = None,
        backends: Optional[BackendPool] = None,
        health_shed: Optional[dict] = None,
        clock=time.perf_counter,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be > 0")
        self.pipeline = pipeline
        self.workers = workers
        self.deadline_seconds = deadline_seconds
        self.tracing = tracing
        self.metrics = metrics or MetricsRegistry()
        self._clock = clock
        # The health monitor exists before admission so the controller can
        # poll the pipeline component's grade on every admit.  Shedding is
        # keyed to the *pipeline* grade specifically: deadline pressure is
        # an intentional degradation (truncated answers still serve), but
        # pipeline failures predict breaker trips — shed before the cliff.
        self.health = HealthMonitor()
        self.journal = journal
        self.backends = backends
        self.bulkheads = BulkheadRegistry(
            max_inflight=db_max_inflight,
            quarantine_threshold=quarantine_threshold,
        )
        self.admission = AdmissionController(
            capacity=queue_capacity,
            breaker=breaker or CircuitBreaker(failure_threshold=5, cooldown_calls=8),
            max_requests=max_requests,
            health_grade=lambda: self.health.component_grade("pipeline"),
            health_shed_probability=health_shed,
        )
        self.result_cache = LRUCache(result_cache_size, ttl=result_cache_ttl)
        self.extraction_cache = LRUCache(extraction_cache_size)
        self.fewshot_cache = LRUCache(fewshot_cache_size)
        # Wire the inner tiers into the pipeline's stage objects.  The
        # wrappers are transparent when their tier is disabled (size 0:
        # every get misses and puts drop), so one code path serves both.
        if extraction_cache_size > 0:
            pipeline.extractor = CachingExtractor(
                pipeline.extractor, self.extraction_cache
            )
        if fewshot_cache_size > 0 and pipeline.library is not None:
            pipeline.library = CachingFewShotLibrary(
                pipeline.library, self.fewshot_cache
            )
        self.hedge_stats: Optional[HedgeStats] = None
        if hedge_threshold is not None:
            self.hedge_stats = hedge_executors(pipeline, hedge_threshold)
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="serving"
        )
        # Guards what a counter cannot hold (each settled request's service
        # seconds, for exact percentiles; the per-worker busy clock, for
        # the makespan) together with the request counters, so one stats()
        # read sees them agree.
        self._stats_lock = threading.Lock()
        self._service_seconds: list[float] = []
        self._worker_busy: dict[int, float] = {}
        self._started_at: Optional[float] = None
        self._finished_at: Optional[float] = None
        self._closed = False
        # Per-request traces (question_id → Trace) in completion order.
        self._traces: dict[str, Trace] = {}
        self._traces_lock = threading.Lock()
        self._latest_trace: Optional[Trace] = None
        # Live-data wiring (attach_livedata): epoch registry and per-thread
        # pins for the pre-execute staleness check.
        self.epochs: Optional[EpochRegistry] = None
        self._epoch_pins: Optional[EpochPins] = None
        self._m_requests = self.metrics.counter(
            "repro_serving_requests_total",
            "requests by terminal status",
            labelnames=("status",),
        )
        self._m_deadline = self.metrics.counter(
            "repro_serving_deadline_exceeded_total",
            "completed requests whose deadline truncated pipeline work",
        )
        self._m_model_seconds = self.metrics.counter(
            "repro_serving_model_seconds_total",
            "simulated model decode seconds across all requests",
        )
        self._m_stale = self.metrics.counter(
            "repro_livedata_stale_total",
            "stale-catalog events on the serving path",
            labelnames=("event",),
        )
        self._m_invalidations = self.metrics.counter(
            "repro_livedata_invalidations_total",
            "invalidate_db calls (catalog-derived tiers dropped for one database)",
        )
        if hasattr(pipeline, "routing_stats"):
            self.metrics.register_collector("routing", pipeline.routing_stats)
        self.metrics.register_collector("serving", lambda: self.stats().to_dict())
        if self.journal is not None:
            self.metrics.register_collector("journal", self.journal.stats_dict)
            self._m_storage_disabled = self.metrics.counter(
                "repro_storage_journal_disabled_total",
                "journal write-path brownouts (serve continued un-journaled)",
            )
            # Brownout wiring: an ENOSPC/EIO on the append path degrades
            # health and fires counters/trace events instead of killing
            # the worker.
            self.journal.add_storage_listener(self._on_journal_disabled)

    # ------------------------------------------------------------ live data

    def attach_livedata(self, registry: EpochRegistry) -> None:
        """Wire an epoch-versioned catalog into the serving path.

        After this call:

        * the result and extraction tiers' keys carry the database's
          current ``schema_epoch`` (mutations self-invalidate stale
          entries);
        * journal commit records are stamped with the epoch the answer
          was produced under, so ``recover`` can refuse cross-epoch
          replay;
        * SQL execution runs behind the pre-execute epoch check
          (:class:`~repro.livedata.guard.EpochGuardExecutor`): a catalog
          that moved mid-request raises a typed
          :class:`~repro.livedata.errors.StaleCatalogError`, and the
          handler re-extracts and retries exactly once against the new
          epoch before failing the request.

        Stale events are counted in ``repro_livedata_stale_total``
        (labeled ``detected`` / ``retried`` / ``served``), which
        :attr:`livedata_stats` reads back; ``served`` counts a completed
        answer whose catalog moved after its last SQL execution — the
        certifier's zero-stale-serve gate reads that slot.
        """
        self.epochs = registry
        # result_cache_key duck-types on pipeline.epochs for the result
        # tier's epoch suffix.
        self.pipeline.epochs = registry
        extractor = self.pipeline.extractor
        if isinstance(extractor, CachingExtractor):
            extractor.epochs = registry
        if self.journal is not None:
            self.journal.epoch_provider = registry.epoch
        self._epoch_pins = pins = EpochPins()
        # TieredPipeline delegates set_executor_wrapper to its base but
        # does not re-export the attribute; read it off the base.
        previous = getattr(self.pipeline, "base", self.pipeline).executor_wrapper

        def _guarded(executor, db_id):
            inner = previous(executor, db_id) if previous else executor
            return EpochGuardExecutor(inner, db_id, registry, pins)

        self.pipeline.set_executor_wrapper(_guarded)

    @property
    def livedata_stats(self) -> dict[str, int]:
        """Stale-catalog events and invalidations, read from the registry."""
        stale = self._m_stale.counts()
        return {
            "stale_detected": stale.get("detected", 0),
            "stale_retried": stale.get("retried", 0),
            "stale_served": stale.get("served", 0),
            "invalidations": int(self._m_invalidations.value()),
        }

    # ------------------------------------------------------------ requests

    def submit(
        self,
        example: Example,
        block: bool = False,
        seq: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
    ) -> "Future[PipelineResult]":
        """Admit and enqueue one request; returns a Future.

        Raises :class:`~repro.serving.admission.QueueFullError` (shed),
        :class:`~repro.serving.admission.HealthShedError` (degraded
        health grade), a bulkhead rejection
        (:class:`~repro.serving.bulkhead.BulkheadFullError` /
        :class:`~repro.serving.bulkhead.DbCircuitOpenError` /
        :class:`~repro.serving.bulkhead.QuarantinedError`),
        :class:`~repro.reliability.faults.CircuitOpenError` or
        :class:`~repro.reliability.faults.BudgetExceededError` when the
        request is not admitted.  ``block=True`` waits for a queue slot
        instead of shedding (closed-loop clients).

        ``seq`` journals the request under an externally assigned
        sequence number (a shard coordinator assigns global positions so
        per-shard journal segments stay mergeable); ``deadline_seconds``
        overrides the engine-wide deadline for this request (how a
        coordinator forwards the *remaining* end-to-end budget after
        queue time).
        """
        ctx = self._admit(example, block, seq, deadline_seconds)
        try:
            return self._pool.submit(self._handle, example, ctx)
        except BaseException:
            self._release(ctx)
            raise

    def answer(self, example: Example) -> PipelineResult:
        """Synchronous convenience: admit (blocking) and wait."""
        return self.submit(example, block=True).result()

    def run(
        self, examples: Sequence[Example], block: bool = True
    ) -> list[Optional[PipelineResult]]:
        """Serve a whole workload; results align with ``examples``.

        Rejected (shed / circuit-open / budget) and failed requests yield
        ``None`` at their position — the stats report carries the counts.
        """
        futures: list[Optional[Future]] = []
        for example in examples:
            try:
                futures.append(self.submit(example, block=block))
            except (AdmissionError, BudgetExceededError, CircuitOpenError):
                futures.append(None)
        results: list[Optional[PipelineResult]] = []
        for future in futures:
            if future is None:
                results.append(None)
                continue
            try:
                results.append(future.result())
            except Exception:
                results.append(None)
        return results

    # ----------------------------------------------------------- lifecycle
    #
    # Every request on either engine runs _admit -> _probe -> the pipeline
    # (or, on the async engine, a single-flight leader's answer) ->
    # _settle -> _release.  Only the middle step differs between engines.

    def _admit(
        self,
        example: Example,
        block: bool,
        seq: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
    ) -> _Ctx:
        """Gate one request in and journal its acceptance.

        The bulkhead gate runs first: a quarantined key or a saturated
        database must not consume a shared queue slot (or count as
        admitted) before being turned away.  An admitted request holds a
        bulkhead slot and an admission slot until :meth:`_release`.
        """
        if self._closed:
            raise RuntimeError("engine is shut down")
        ctx = _Ctx(example)
        self.bulkheads.acquire(example.db_id, ctx.qkey, block=block)
        try:
            self.admission.admit(block=block)
        except BaseException:
            self.bulkheads.release(example.db_id)
            raise
        with self._stats_lock:
            if self._started_at is None:
                self._started_at = self._clock()
        if self.journal is not None:
            ctx.seq = self.journal.accept(example, seq=seq)
        ctx.budget = (
            deadline_seconds if deadline_seconds is not None else self.deadline_seconds
        )
        return ctx

    def _probe(self, ctx: _Ctx) -> Optional[PipelineResult]:
        """Start the request's clock and trace, then look up the result tier."""
        example = ctx.example
        ctx.start = self._clock()
        ctx.key = result_cache_key(example, self.pipeline)
        if self.tracing:
            ctx.trace = Trace(question_id=example.question_id, db_id=example.db_id)
        cached = self.result_cache.get(ctx.key)
        if ctx.trace is not None:
            outcome = "miss" if cached is None else "hit"
            ctx.trace.root.cache = outcome
            ctx.trace.root.event("result_cache", outcome=outcome)
        return cached

    def _handle(self, example: Example, ctx: _Ctx) -> PipelineResult:
        """Serve one admitted request on a pool thread.

        ``example`` is ``ctx.example``, passed first so that whatever wraps
        this entry point can tie the pool thread's work to the request.
        """
        try:
            cached = self._probe(ctx)
            if cached is not None:
                return self._settle(ctx, "cached", cached)
            try:
                result = self._run_pipeline(ctx)
            except Exception as exc:
                self._settle(ctx, "failed", exc)
                raise
            return self._settle(ctx, "ok", result)
        finally:
            self._release(ctx)

    def _run_pipeline(self, ctx: _Ctx) -> PipelineResult:
        """Answer a result-tier miss under the request's deadline."""
        if ctx.budget is not None:
            ctx.deadline = Deadline(ctx.budget, clock=self._clock)
        return self._answer_guarded(ctx.example, ctx.deadline, ctx.trace)

    def _settle(self, ctx: _Ctx, status: str, outcome):
        """Record one request's terminal outcome; returns ``outcome``.

        ``status`` is ``"cached"``, ``"coalesced"`` or ``"ok"`` with the
        answer as ``outcome``, or ``"failed"`` with the exception.  This is
        the only place that feeds the engine breaker and health, the
        bulkhead's breaker and quarantine strikes (always under
        ``ctx.qkey``, whatever the result-cache key carries), the result
        tier, the journal commit, the trace and the request counts.
        """
        example, trace = ctx.example, ctx.trace
        result = error = journal_error = None
        model_seconds, exceeded = 0.0, False
        if status == "failed":
            error = str(outcome)
            journal_error = f"{type(outcome).__name__}: {outcome}"
            self.admission.record_failure()
            self.health.record("pipeline", False, detail=error)
            if self.bulkheads.record_crash(example.db_id, ctx.qkey):
                add_event(
                    "quarantine", db_id=example.db_id, question_id=example.question_id
                )
            if trace is not None:
                trace.root.status = "failed"
                trace.root.event("request_failed", error=error)
        else:
            result = outcome
            self.bulkheads.record_success(example.db_id, ctx.qkey)
        if status == "ok":
            model_seconds = result.cost.total_model_seconds
            exceeded = result.deadline_exceeded
            self.admission.record_success()
            self.health.record("pipeline", True)
            self.health.record("deadline", not exceeded)
            if not exceeded:
                # a deadline-truncated answer is a degraded stand-in;
                # caching it would keep serving the degradation after
                # load subsides
                if self.epochs is not None:
                    # a stale retry (or a doomed flight's re-run) may have
                    # moved the epoch mid-request; re-derive the key so the
                    # entry lands under the catalog that produced it
                    ctx.key = result_cache_key(example, self.pipeline)
                self.result_cache.put(ctx.key, result)
        elif status == "coalesced" and trace is not None:
            trace.root.cache = "coalesced"
            trace.root.event("single_flight", outcome="coalesced", key=str(ctx.key))
        if self.journal is not None and ctx.seq is not None:
            self.journal.commit(ctx.seq, status, result=result, error=journal_error)
        if trace is not None:
            if status != "ok":
                # an answered request's root was finished by pipeline.answer
                trace.finish(deadline=ctx.deadline)
            self._store_trace(trace)
        self._count(ctx, status, model_seconds, exceeded)
        return outcome

    def _release(self, ctx: _Ctx) -> None:
        """Return the bulkhead and admission slots ``_admit`` claimed."""
        self.bulkheads.release(ctx.example.db_id)
        self.admission.release()

    def _answer_guarded(
        self,
        example: Example,
        deadline: Optional[Deadline],
        trace: Optional[Trace],
    ) -> PipelineResult:
        """Run the pipeline under the stale-catalog guard.

        With no live-data registry attached this is a plain
        ``pipeline.answer``.  Otherwise the request pins the database's
        current epoch for the worker thread; a mutation landing before
        any of the request's SQL executions raises
        :class:`StaleCatalogError` from the executor guard, and the
        request re-extracts and retries exactly once against the new
        epoch (the epoch-suffixed cache keys make the retry recompute
        instead of rehitting stale entries).  A second staleness hit
        propagates into the normal failure path.
        """
        kwargs = {"trace": trace} if trace is not None else {}
        pins = self._epoch_pins
        if pins is None:
            return self.pipeline.answer(example, deadline=deadline, **kwargs)
        db_id = example.db_id
        for attempt in (0, 1):
            pinned = self.epochs.epoch(db_id)
            pins.pin(db_id, pinned)
            try:
                result = self.pipeline.answer(example, deadline=deadline, **kwargs)
            except StaleCatalogError as exc:
                self._m_stale.labels(event="detected").inc()
                if trace is not None:
                    trace.root.event(
                        "stale_catalog",
                        db_id=db_id,
                        pinned_epoch=exc.pinned_epoch,
                        current_epoch=exc.current_epoch,
                        retrying=attempt == 0,
                    )
                if attempt == 0:
                    self._m_stale.labels(event="retried").inc()
                    continue
                raise
            finally:
                pins.clear()
            if self.epochs.epoch(db_id) != pinned:
                # The catalog moved after this request's last execution:
                # the answer it computed is already stale on arrival.
                # This is the slot the certifier requires to stay zero.
                self._m_stale.labels(event="served").inc()
                if trace is not None:
                    trace.root.event("stale_serve", db_id=db_id, pinned_epoch=pinned)
            return result
        raise AssertionError("unreachable")  # pragma: no cover

    def _count(
        self, ctx: _Ctx, status: str, model_seconds: float, deadline_exceeded: bool
    ) -> None:
        """Count one settled request and charge its service seconds (wall
        + model) to this worker's virtual clock."""
        service = self._clock() - ctx.start + model_seconds
        ident = threading.get_ident()
        with self._stats_lock:
            if status != "failed":
                self._service_seconds.append(service)
            self._worker_busy[ident] = self._worker_busy.get(ident, 0.0) + service
            self._finished_at = self._clock()
            self._m_requests.labels(status=status).inc()
            if deadline_exceeded:
                self._m_deadline.inc()
            self._m_model_seconds.inc(model_seconds)

    # -------------------------------------------------------------- tracing

    def _store_trace(self, trace: Trace) -> None:
        with self._traces_lock:
            self._traces[trace.question_id] = trace
            self._latest_trace = trace

    def last_trace(self) -> Optional[Trace]:
        """The most recently completed request's trace (requires
        ``tracing=True``)."""
        with self._traces_lock:
            return self._latest_trace

    def trace_for(self, question_id: str) -> Optional[Trace]:
        """The trace of one served request, by question id."""
        with self._traces_lock:
            return self._traces.get(question_id)

    def traces(self) -> list[Trace]:
        """Every stored trace, in completion order."""
        with self._traces_lock:
            return list(self._traces.values())

    # ------------------------------------------------------------ lifecycle

    def warm_result_cache(
        self, records: Sequence[tuple[Example, PipelineResult]]
    ) -> int:
        """Re-seed the result tier from previously committed outcomes.

        A restarted (or rebalance-adopting) cluster worker replays its
        journal segment's committed results through this so repeat
        questions keep hitting the result tier exactly as they would have
        in an undisturbed run — the property that keeps a recovered
        cluster report byte-identical to a single-process one.  Deadline-
        truncated results are skipped, mirroring the live-path rule that
        degraded answers are never cached.  Returns the number warmed.
        """
        warmed = 0
        for example, result in records:
            if result is None or result.deadline_exceeded:
                continue
            self.result_cache.put(result_cache_key(example, self.pipeline), result)
            warmed += 1
        return warmed

    def invalidate_db(self, db_id: str) -> dict[str, int]:
        """Drop every cached entry derived from ``db_id``'s catalog.

        The result and extraction tiers key on ``(db_id, …)`` and
        invalidate positionally.  The few-shot tier is left alone: the
        library is built from the train split, which no mutation touches.
        """
        dropped = {
            "result": self.result_cache.invalidate_db(db_id),
            "extraction": self.extraction_cache.invalidate_db(db_id),
        }
        self._m_invalidations.inc()
        return dropped

    def reset_stats(self) -> None:
        """Zero every count :meth:`stats` reports (post-warm-up), except
        the backend pool's.

        That is the engine's registry, the admission, bulkhead and hedge
        counts and the cache counters.  The backend pool belongs to the
        stack that built it, so its counts stay.  Cache contents, in-flight
        slots, breakers, the quarantine roster and health windows are
        state, not counts, and survive.
        """
        with self._stats_lock:
            self._service_seconds = []
            self._worker_busy = {}
            self._started_at = None
            self._finished_at = None
            self.metrics.reset()
        self.admission.reset_counts()
        self.bulkheads.reset_counts()
        if self.hedge_stats is not None:
            self.hedge_stats.reset()
        for cache in (self.result_cache, self.extraction_cache, self.fewshot_cache):
            cache.reset_stats()

    def stats(self) -> ServingStats:
        """A snapshot of the run's complete serving accounting."""
        with self._stats_lock:
            requests = self._m_requests.counts()
            deadline_exceeded = int(self._m_deadline.value())
            service = list(self._service_seconds)
            busy = dict(self._worker_busy)
            started = self._started_at
            finished = self._finished_at
        failed = requests.get("failed", 0)
        admission = self.admission.to_dict()
        bulkheads = self.bulkheads.to_dict()
        bulkhead_rejected = (
            bulkheads["rejected_full"]
            + bulkheads["rejected_open"]
            + bulkheads["rejected_quarantined"]
        )
        return ServingStats(
            workers=self.workers,
            # bulkhead rejections happen before the admission gate, so the
            # client-visible submitted total is the sum of both layers
            submitted=admission["submitted"] + bulkhead_rejected,
            admitted=admission["admitted"],
            # every status but "failed": ok, cached and coalesced
            completed=sum(requests.values()) - failed,
            failed=failed,
            shed=admission["shed"],
            shed_health=admission["shed_health"],
            rejected_open=admission["rejected_open"],
            rejected_budget=admission["rejected_budget"],
            rejected_draining=admission["rejected_draining"],
            rejected_bulkhead=bulkhead_rejected,
            result_hits=requests.get("cached", 0),
            deadline_exceeded=deadline_exceeded,
            breaker_state=admission["breaker_state"],
            cache_tiers={
                "result": self.result_cache.stats.to_dict(),
                "extraction": self.extraction_cache.stats.to_dict(),
                "fewshot": self.fewshot_cache.stats.to_dict(),
            },
            hedge=self.hedge_stats.to_dict() if self.hedge_stats else {},
            health=self.health.snapshot(),
            bulkheads=bulkheads,
            backends=self.backends.snapshot() if self.backends else {},
            latency=LatencySummary.from_values(service),
            makespan_seconds=max(busy.values()) if busy else 0.0,
            wall_seconds=(finished - started)
            if started is not None and finished is not None
            else 0.0,
        )

    def shutdown(self, wait: bool = True, drain: bool = False) -> None:
        """Stop accepting requests and (optionally) drain the pool.

        ``drain=True`` is the graceful path: the admission gate closes
        first — new submissions (and callers blocked waiting for a queue
        slot) are rejected with a typed
        :class:`~repro.serving.admission.DrainingError` — then every
        already-admitted request runs to completion before the pool stops.
        Plain ``shutdown()`` keeps the historical contract: later
        ``submit`` calls raise ``RuntimeError``.
        """
        if drain:
            # _closed stays False: post-drain submissions route through the
            # closed admission gate and get the typed DrainingError.
            self.admission.close()
            self._pool.shutdown(wait=True)
            if self.journal is not None:
                self.journal.seal()
            return
        self._closed = True
        self._pool.shutdown(wait=wait)
        if wait and self.journal is not None:
            # Clean shutdown: epoch-stamped seal + fsync, so the next
            # load can tell a finished run from an interrupted one.
            self.journal.seal()

    def _on_journal_disabled(self, exc: OSError) -> None:
        """Journal brownout listener: degrade, count, trace — keep serving."""
        self.health.record("storage", False, detail=f"journal disabled: {exc}")
        add_event("journal_disabled", error=str(exc))
        self._m_storage_disabled.inc()

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()
