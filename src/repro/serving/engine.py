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

Every tier keeps hit/miss/eviction stats and supports per-database
invalidation (``invalidate_db``) for when a database's content changes.

Per-request latency is the **service time**: real wall seconds around the
request plus the simulated model decode seconds its LLM calls reported.
Each worker thread accumulates the service time of the requests it ran —
a per-worker virtual clock — and :meth:`stats` aggregates those into the
p50/p95/p99 + throughput view of :class:`~repro.serving.stats.ServingStats`.

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
from repro.serving.bulkhead import (
    BulkheadFullError,
    BulkheadRegistry,
    DbCircuitOpenError,
    QuarantinedError,
)
from repro.livedata.epoch import EpochRegistry
from repro.livedata.errors import StaleCatalogError
from repro.livedata.guard import EpochGuardExecutor, EpochPins
from repro.serving.health import HealthMonitor
from repro.serving.hedging import HedgedExecutor, HedgeStats
from repro.serving.journal import ServingJournal
from repro.serving.latency import LatencySummary
from repro.serving.stats import RequestRecord, ServingStats

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
    case retrieve identically and must share one entry.  ``add``
    invalidates the whole tier (new entries can change any ranking).

    The keys carry the *requesting* database, not the databases the
    retrieved shots came from, so per-database invalidation keeps a
    **db→keys side index**: every cached result is indexed under the
    db of each shot it contains (plus the requester), and
    :meth:`invalidate_db` drops exactly those keys — a mutated database
    cannot keep serving as a stale neighbor while unrelated entries
    survive.  When an :class:`~repro.livedata.epoch.EpochRegistry` is
    attached, the requesting db's ``schema_epoch`` joins the key too.
    """

    def __init__(self, inner, cache: LRUCache):
        self.inner = inner
        self.cache = cache
        self.epochs: Optional[EpochRegistry] = None
        self._db_keys: dict[str, set] = {}
        self._keys_lock = threading.Lock()

    def search(self, question, surfaces=(), k=5, db_id=None):
        key: tuple = (normalize_question(question), tuple(surfaces), k, db_id)
        if self.epochs is not None and db_id is not None:
            key = key + (self.epochs.epoch(db_id),)
        hit = self.cache.get(key)
        if hit is not None:
            # Generation's stage span is ambient here; the event lands on it.
            add_event("fewshot_cache", outcome="hit")
            return hit
        add_event("fewshot_cache", outcome="miss")
        result = self.inner.search(question, surfaces=surfaces, k=k, db_id=db_id)
        self.cache.put(key, result)
        self._index_key(key, result, db_id)
        return result

    def _index_key(self, key, result, db_id) -> None:
        """Record ``key`` under every database its result touches."""
        dbs = set()
        for entry in result:
            example = getattr(entry, "example", None)
            if example is not None and getattr(example, "db_id", None):
                dbs.add(example.db_id)
        if db_id is not None:
            dbs.add(db_id)
        with self._keys_lock:
            for db in dbs:
                self._db_keys.setdefault(db, set()).add(key)

    def invalidate_db(self, db_id: str) -> int:
        """Drop every cached result containing (or requested by) ``db_id``."""
        with self._keys_lock:
            victims = self._db_keys.pop(db_id, set())
            for keys in self._db_keys.values():
                keys -= victims
        if not victims:
            return 0
        return self.cache.invalidate(lambda key: key in victims)

    def add(self, entry):
        self.inner.add(entry)
        self.cache.clear()
        with self._keys_lock:
            self._db_keys.clear()

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
        self.metrics = metrics
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
        # Hedged SQL execution composes with any wrapper already installed
        # (e.g. a chaos bench's fault injector): the hedge wraps outermost
        # so it sees — and can recover — injected faults.
        self.hedge_stats: Optional[HedgeStats] = None
        if hedge_threshold is not None:
            self.hedge_stats = HedgeStats()
            previous = pipeline.executor_wrapper

            def _hedged(executor, db_id):
                inner = previous(executor, db_id) if previous else executor
                return HedgedExecutor(
                    inner,
                    threshold_seconds=hedge_threshold,
                    stats=self.hedge_stats,
                )

            pipeline.set_executor_wrapper(_hedged)
        self.health.register_probe(
            "breaker", lambda: {"state": self.admission.breaker.state.value}
        )
        self.health.register_probe(
            "caches",
            lambda: {
                "result_hit_rate": self.result_cache.stats.to_dict()["hit_rate"],
                "extraction_hit_rate": self.extraction_cache.stats.to_dict()[
                    "hit_rate"
                ],
            },
        )
        if self.hedge_stats is not None:
            self.health.register_probe("hedging", self.hedge_stats.to_dict)
        if self.backends is not None:
            self.health.register_probe("backends", self.backends.snapshot)
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="serving"
        )
        self._stats_lock = threading.Lock()
        self._records: list[RequestRecord] = []
        self._worker_busy: dict[int, float] = {}
        self._started_at: Optional[float] = None
        self._finished_at: Optional[float] = None
        self._closed = False
        # Per-request traces (question_id → Trace) in completion order.
        self._traces: dict[str, Trace] = {}
        self._traces_lock = threading.Lock()
        self._latest_trace: Optional[Trace] = None
        # Live-data wiring (attach_livedata): epoch registry, per-thread
        # pins for the pre-execute staleness check, and the stale counters.
        self.epochs: Optional[EpochRegistry] = None
        self._epoch_pins: Optional[EpochPins] = None
        self._m_stale = None
        self.livedata_stats = {
            "stale_detected": 0,
            "stale_retried": 0,
            "stale_served": 0,
            "invalidations": 0,
        }
        if metrics is not None:
            self._m_requests = metrics.counter(
                "repro_serving_requests_total",
                "requests by terminal status",
                labelnames=("status",),
            )
            self._m_service = metrics.histogram(
                "repro_serving_service_seconds",
                "per-request service time (wall + virtual model seconds)",
            )
            self._m_model_seconds = metrics.counter(
                "repro_serving_model_seconds_total",
                "simulated model decode seconds across all requests",
            )
            self._m_quarantine = metrics.counter(
                "repro_serving_quarantine_total",
                "(db_id, question) keys quarantined after consecutive crashes",
            )
            self._m_bulkhead_rejections = metrics.counter(
                "repro_serving_bulkhead_rejections_total",
                "requests rejected at the per-database bulkhead",
                labelnames=("channel",),
            )
            # The free-floating stats objects surface in the unified export
            # via collectors — their accounting is untouched.
            self._m_tier = metrics.counter(
                "repro_routing_tier_total",
                "freshly answered requests by final routing tier",
                labelnames=("tier",),
            )
            self._m_escalations = metrics.counter(
                "repro_routing_escalations_total",
                "tier promotions by escalation reason",
                labelnames=("reason",),
            )
            self._m_tier_tokens = metrics.counter(
                "repro_routing_tokens_total",
                "tokens spent per routing tier (escalated attempts included)",
                labelnames=("tier",),
            )
            if hasattr(pipeline, "routing_stats"):
                metrics.register_collector("routing", pipeline.routing_stats)
            metrics.register_collector("serving", lambda: self.stats().to_dict())
            metrics.register_collector("health", self.health.snapshot)
            metrics.register_collector("bulkheads", self.bulkheads.to_dict)
            if self.hedge_stats is not None:
                metrics.register_collector("hedging", self.hedge_stats.to_dict)
            if self.backends is not None:
                metrics.register_collector("backends", self.backends.snapshot)
            if self.journal is not None:
                metrics.register_collector("journal", self.journal.stats_dict)
                self._m_storage_disabled = metrics.counter(
                    "repro_storage_journal_disabled_total",
                    "journal write-path brownouts (serve continued un-journaled)",
                )
                self._m_storage_errors = metrics.counter(
                    "repro_storage_write_errors_total",
                    "storage write errors on the journal append path",
                    labelnames=("kind",),
                )
        if self.journal is not None:
            # Brownout wiring: an ENOSPC/EIO on the append path degrades
            # health and fires counters/trace events instead of killing
            # the worker.
            self.journal.add_storage_listener(self._on_journal_disabled)

    # ------------------------------------------------------------ live data

    def attach_livedata(self, registry: EpochRegistry) -> None:
        """Wire an epoch-versioned catalog into the serving path.

        After this call:

        * every cache tier's key carries the database's current
          ``schema_epoch`` (mutations self-invalidate stale entries);
        * journal commit records are stamped with the epoch the answer
          was produced under, so ``recover`` can refuse cross-epoch
          replay;
        * SQL execution runs behind the pre-execute epoch check
          (:class:`~repro.livedata.guard.EpochGuardExecutor`): a catalog
          that moved mid-request raises a typed
          :class:`~repro.livedata.errors.StaleCatalogError`, and the
          handler re-extracts and retries exactly once against the new
          epoch before failing the request.

        Stale events surface in ``repro_livedata_stale_total`` (labeled
        ``detected`` / ``retried`` / ``served``) and in
        ``livedata_stats``; ``served`` counting a completed answer whose
        catalog moved after its last SQL execution — the certifier's
        zero-stale-serve gate reads that slot.
        """
        self.epochs = registry
        # result_cache_key duck-types on pipeline.epochs for the result
        # tier's epoch suffix.
        self.pipeline.epochs = registry
        extractor = self.pipeline.extractor
        if isinstance(extractor, CachingExtractor):
            extractor.epochs = registry
        library = self.pipeline.library
        if isinstance(library, CachingFewShotLibrary):
            library.epochs = registry
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
        if self.metrics is not None:
            self._m_stale = self.metrics.counter(
                "repro_livedata_stale_total",
                "stale-catalog events on the serving path",
                labelnames=("event",),
            )
            self.metrics.register_collector(
                "livedata", lambda: dict(self.livedata_stats)
            )

    def _count_stale(self, event: str) -> None:
        with self._stats_lock:
            self.livedata_stats[f"stale_{event}"] += 1
        if self._m_stale is not None:
            self._m_stale.labels(event=event).inc()

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
        try:
            self.bulkheads.acquire(example.db_id, ctx.qkey, block=block)
        except (BulkheadFullError, DbCircuitOpenError, QuarantinedError) as exc:
            if self.metrics is not None:
                channel = {
                    BulkheadFullError: "full",
                    DbCircuitOpenError: "open",
                    QuarantinedError: "quarantined",
                }[type(exc)]
                self._m_bulkhead_rejections.labels(channel=channel).inc()
            raise
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
        tier, the journal commit, the trace, the routing metrics and the
        request record.
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
                if self.metrics is not None:
                    self._m_quarantine.inc()
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
            routing = getattr(result, "routing", None)
            if self.metrics is not None and routing is not None:
                self._m_tier.labels(tier=routing.final_tier).inc()
                for event in routing.escalations:
                    self._m_escalations.labels(reason=event.reason).inc()
                for attempt in routing.attempts:
                    self._m_tier_tokens.labels(tier=attempt.tier).inc(attempt.tokens)
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
        self._record(ctx, status, model_seconds, error, exceeded)
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
                self._count_stale("detected")
                if trace is not None:
                    trace.root.event(
                        "stale_catalog",
                        db_id=db_id,
                        pinned_epoch=exc.pinned_epoch,
                        current_epoch=exc.current_epoch,
                        retrying=attempt == 0,
                    )
                if attempt == 0:
                    self._count_stale("retried")
                    continue
                raise
            finally:
                pins.clear()
            if self.epochs.epoch(db_id) != pinned:
                # The catalog moved after this request's last execution:
                # the answer it computed is already stale on arrival.
                # This is the slot the certifier requires to stay zero.
                self._count_stale("served")
                if trace is not None:
                    trace.root.event("stale_serve", db_id=db_id, pinned_epoch=pinned)
            return result
        raise AssertionError("unreachable")  # pragma: no cover

    def _record(
        self,
        ctx: _Ctx,
        status: str,
        model_seconds: float,
        error: Optional[str],
        deadline_exceeded: bool,
    ) -> None:
        record = RequestRecord(
            question_id=ctx.example.question_id,
            db_id=ctx.example.db_id,
            status=status,
            wall_seconds=self._clock() - ctx.start,
            model_seconds=model_seconds,
            error=error,
            deadline_exceeded=deadline_exceeded,
        )
        ident = threading.get_ident()
        with self._stats_lock:
            self._records.append(record)
            self._worker_busy[ident] = (
                self._worker_busy.get(ident, 0.0) + record.service_seconds
            )
            self._finished_at = self._clock()
        if self.metrics is not None:
            self._m_requests.labels(status=status).inc()
            self._m_service.observe(record.service_seconds)
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
        """Drop every cached entry derived from ``db_id`` in all tiers.

        The result and extraction tiers key on ``(db_id, …)`` and
        invalidate positionally.  The few-shot tier's keys carry the
        question rather than the source databases, so the caching wrapper
        maintains a db→keys side index and drops exactly the cached
        retrievals that contain (or were requested by) the mutated
        database — stale neighbors go, unrelated entries survive.  When
        the pipeline's library is not the caching wrapper (side index
        unavailable) the tier falls back to a wholesale clear.
        """
        dropped = {
            "result": self.result_cache.invalidate_db(db_id),
            "extraction": self.extraction_cache.invalidate_db(db_id),
        }
        library = self.pipeline.library
        if isinstance(library, CachingFewShotLibrary):
            dropped["fewshot"] = library.invalidate_db(db_id)
        else:
            dropped["fewshot"] = self.fewshot_cache.invalidate(lambda _key: True)
        with self._stats_lock:
            self.livedata_stats["invalidations"] += 1
        return dropped

    def reset_stats(self) -> None:
        """Zero request records and cache counters (post-warm-up)."""
        with self._stats_lock:
            self._records = []
            self._worker_busy = {}
            self._started_at = None
            self._finished_at = None
        for cache in (self.result_cache, self.extraction_cache, self.fewshot_cache):
            cache.reset_stats()

    def stats(self) -> ServingStats:
        """A snapshot of the run's complete serving accounting."""
        with self._stats_lock:
            records = list(self._records)
            busy = dict(self._worker_busy)
            started = self._started_at
            finished = self._finished_at
        admission = self.admission.to_dict()
        bulkheads = self.bulkheads.to_dict()
        bulkhead_rejected = (
            bulkheads["rejected_full"]
            + bulkheads["rejected_open"]
            + bulkheads["rejected_quarantined"]
        )
        finished_records = [r for r in records if r.status != "failed"]
        return ServingStats(
            workers=self.workers,
            # bulkhead rejections happen before the admission gate, so the
            # client-visible submitted total is the sum of both layers
            submitted=admission["submitted"] + bulkhead_rejected,
            admitted=admission["admitted"],
            completed=len(finished_records),
            failed=sum(1 for r in records if r.status == "failed"),
            shed=admission["shed"],
            shed_health=admission["shed_health"],
            rejected_open=admission["rejected_open"],
            rejected_budget=admission["rejected_budget"],
            rejected_draining=admission["rejected_draining"],
            rejected_bulkhead=bulkhead_rejected,
            result_hits=sum(1 for r in records if r.cache_hit),
            deadline_exceeded=sum(1 for r in records if r.deadline_exceeded),
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
            latency=LatencySummary.from_values(
                [r.service_seconds for r in finished_records]
            ),
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
        if self.metrics is not None:
            self._m_storage_disabled.inc()
            for kind, count in self.journal.write_errors.items():
                self._m_storage_errors.labels(kind=kind).inc(count)

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()
