"""Serving layer: concurrent request execution with multi-tier caching,
admission control and latency accounting.

The ROADMAP's north star is a system that serves heavy traffic; this
package is the subsystem where requests share state.  It provides

* :class:`ServingEngine` — bounded thread-pool execution of
  ``OpenSearchSQL.answer`` behind an :class:`AdmissionController`
  (shed / circuit-open / budget rejections) and three cache tiers
  (exact-match result, extraction, few-shot retrieval);
* :class:`AsyncServingEngine` — the asyncio hot path over the same
  layers: single-flight dedup of identical in-flight requests (followers
  are journaled ``"coalesced"`` and charged zero LLM cost) and a
  :class:`MicroBatcher` merging same-stage LLM calls across concurrent
  requests into one batched backend invocation;
* :class:`LRUCache` — the thread-safe LRU + TTL primitive every bounded
  map in the codebase shares, with hit/miss/eviction stats and
  per-database invalidation;
* :class:`GoldResultCache` — the lock-protected gold-execution cache both
  evaluation runners and the serving bench reuse;
* :class:`ServingStats` / :class:`LatencySummary` — per-request latency
  (real wall + simulated model seconds) aggregated into p50/p95/p99 and
  virtual-clock throughput;
* :class:`HedgedExecutor` — one-backup hedging over SQL execution that
  recovers transient database faults and slow-query tails;
* :class:`HealthMonitor` — windowed per-component health plus probes,
  rolled into the snapshot a readiness endpoint would serve;
* :class:`BackendPool` — N replicated LLM backends behind one client,
  health-score routed with sticky-with-decay primary selection, automatic
  failover and optional shadow comparison calls;
* :class:`BulkheadRegistry` — per-database bounded sub-pools, independent
  breaker state per ``db_id`` and a poison-pill quarantine for
  (db_id, question) keys that crash repeatedly;
* :class:`ServingJournal` — durable write-ahead JSONL of accepted /
  committed requests with torn-line tolerance; :func:`recover_run`
  replays a killed run to completion exactly once per request;
* :class:`ShardCoordinator` — N supervised worker *processes* behind a
  consistent-hash :class:`HashRing` over ``db_id``s, each with its own
  engine, bulkheads, backends and journal segment; heartbeat death
  detection, budgeted restarts with exponential backoff, ring rebalance
  on permanent death (typed :class:`ShardUnavailableError` sheds), and
  :class:`ShardedJournalView` replaying a whole segment directory as one
  run.

Per-request deadlines (``ServingEngine(deadline_seconds=...)``) bound each
request in virtual time; exhaustion degrades the answer with a typed
``DEADLINE_EXCEEDED`` event instead of failing it, and graceful drain
(``shutdown(drain=True)``) finishes in-flight work while rejecting new
submissions with :class:`DrainingError`.
"""

from repro.caching import (
    CacheStats,
    GoldResultCache,
    LRUCache,
    normalize_question,
)
from repro.serving.aio import (
    AsyncServingEngine,
    AsyncServingStats,
    BatchingLLM,
    MicroBatcher,
    SingleFlight,
)
from repro.serving.admission import (
    DEFAULT_HEALTH_SHED,
    AdmissionController,
    AdmissionError,
    DrainingError,
    HealthShedError,
    QueueFullError,
)
from repro.serving.backends import (
    AllBackendsFailedError,
    BackendPool,
    BackendPoolStats,
)
from repro.serving.bulkhead import (
    BulkheadFullError,
    BulkheadRegistry,
    DbCircuitOpenError,
    QuarantinedError,
)
from repro.serving.cluster import (
    ClusterConfig,
    ClusterStats,
    DoubleServeError,
    HashRing,
    ShardCoordinator,
    ShardUnavailableError,
    ShardedJournalView,
    discover_segments,
)
from repro.serving.engine import (
    CachingExtractor,
    CachingFewShotLibrary,
    ServingEngine,
)
from repro.serving.journal import (
    JournalCorruptionError,
    JournalVersionError,
    ServingJournal,
    recover_run,
)
from repro.serving.health import HealthMonitor
from repro.serving.hedging import HedgedExecutor, HedgeStats
from repro.serving.latency import LatencySummary, percentile
from repro.serving.stats import ServingStats
from repro.serving.workload import zipf_weights, zipf_workload

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "AllBackendsFailedError",
    "AsyncServingEngine",
    "AsyncServingStats",
    "BackendPool",
    "BackendPoolStats",
    "BatchingLLM",
    "MicroBatcher",
    "SingleFlight",
    "BulkheadFullError",
    "BulkheadRegistry",
    "CacheStats",
    "CachingExtractor",
    "CachingFewShotLibrary",
    "ClusterConfig",
    "ClusterStats",
    "DoubleServeError",
    "JournalCorruptionError",
    "JournalVersionError",
    "HashRing",
    "DEFAULT_HEALTH_SHED",
    "DbCircuitOpenError",
    "DrainingError",
    "GoldResultCache",
    "HealthMonitor",
    "HealthShedError",
    "HedgeStats",
    "HedgedExecutor",
    "LRUCache",
    "LatencySummary",
    "QuarantinedError",
    "QueueFullError",
    "ServingEngine",
    "ServingJournal",
    "ServingStats",
    "ShardCoordinator",
    "ShardUnavailableError",
    "ShardedJournalView",
    "discover_segments",
    "normalize_question",
    "percentile",
    "recover_run",
    "zipf_weights",
    "zipf_workload",
]
