"""The ServingStats report: one serving run's accounting, read back.

The report is a view, not a store.  The engine reads its request counts
(by terminal status, deadline truncations) back from its
``MetricsRegistry``, the component sections (admission, bulkheads,
caches, hedging, health, backends) from the components that keep them,
and the latency summary and makespan from the two things a counter
cannot hold: each settled request's service seconds and each worker's
busy clock.

Throughput in a simulation needs care: the simulator reports model latency
instead of sleeping it, so wall-clock throughput would be meaninglessly
high.  The engine therefore tracks a **virtual clock** per worker thread —
each worker serializes the *service time* (real wall + simulated model
seconds) of the requests it handled — and the run's makespan is the
busiest worker's accumulated virtual time.  Serial execution makes the
makespan the sum of all service times; four workers split it roughly four
ways, which is exactly the concurrency win a real deployment would see
when model latency dominates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serving.latency import LatencySummary

__all__ = ["ServingStats"]


@dataclass
class ServingStats:
    """One serving run's complete accounting (a point-in-time snapshot)."""

    workers: int = 1
    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    #: probabilistic sheds from a degraded/unhealthy pipeline health grade
    shed_health: int = 0
    rejected_open: int = 0
    rejected_budget: int = 0
    rejected_draining: int = 0
    #: per-database bulkhead rejections (full + db-circuit-open + quarantined)
    rejected_bulkhead: int = 0
    result_hits: int = 0
    #: completed requests whose deadline truncated pipeline work
    deadline_exceeded: int = 0
    breaker_state: str = "closed"
    #: tier name → CacheStats.to_dict() payload
    cache_tiers: dict = field(default_factory=dict)
    #: HedgeStats.to_dict() payload (empty when hedging is off)
    hedge: dict = field(default_factory=dict)
    #: HealthMonitor.snapshot() payload (empty when not wired)
    health: dict = field(default_factory=dict)
    #: BulkheadRegistry.to_dict() payload (per-db accounting + quarantine)
    bulkheads: dict = field(default_factory=dict)
    #: BackendPool.snapshot() payload (empty when serving a single backend)
    backends: dict = field(default_factory=dict)
    latency: LatencySummary = field(default_factory=LatencySummary)
    #: busiest worker's accumulated virtual service seconds
    makespan_seconds: float = 0.0
    #: real elapsed seconds between first admit and last completion
    wall_seconds: float = 0.0

    @property
    def throughput_rps(self) -> float:
        """Completed requests per virtual second (the headline number)."""
        if self.makespan_seconds <= 0:
            return 0.0
        return self.completed / self.makespan_seconds

    @property
    def wall_throughput_rps(self) -> float:
        """Completed requests per real wall second (simulation-fast)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.completed / self.wall_seconds

    @property
    def result_hit_rate(self) -> float:
        """Result-tier hits / completed requests."""
        return self.result_hits / self.completed if self.completed else 0.0

    def to_dict(self) -> dict:
        """JSON-ready report (what ``serve-bench`` and the bench print)."""
        return {
            "workers": self.workers,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "shed_health": self.shed_health,
            "rejected_open": self.rejected_open,
            "rejected_budget": self.rejected_budget,
            "rejected_draining": self.rejected_draining,
            "rejected_bulkhead": self.rejected_bulkhead,
            "result_hits": self.result_hits,
            "result_hit_rate": round(self.result_hit_rate, 4),
            "deadline_exceeded": self.deadline_exceeded,
            "breaker_state": self.breaker_state,
            "cache_tiers": dict(self.cache_tiers),
            "hedge": dict(self.hedge),
            "health": dict(self.health),
            "bulkheads": dict(self.bulkheads),
            "backends": dict(self.backends),
            "latency": self.latency.to_dict(),
            "makespan_seconds": round(self.makespan_seconds, 3),
            "throughput_rps": round(self.throughput_rps, 4),
            "wall_seconds": round(self.wall_seconds, 3),
            "wall_throughput_rps": round(self.wall_throughput_rps, 2),
        }

    def format(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"workers     : {self.workers}",
            f"requests    : {self.submitted} submitted / {self.admitted} admitted"
            f" / {self.completed} completed / {self.failed} failed",
            f"rejections  : {self.shed} shed, {self.shed_health} health-shed,"
            f" {self.rejected_open} circuit-open,"
            f" {self.rejected_budget} budget, {self.rejected_draining} draining,"
            f" {self.rejected_bulkhead} bulkhead",
            f"deadlines   : {self.deadline_exceeded} exceeded (degraded, not failed)",
            f"breaker     : {self.breaker_state}",
            f"throughput  : {self.throughput_rps:.3f} req/s (virtual),"
            f" makespan {self.makespan_seconds:.1f}s",
            f"latency     : p50 {self.latency.p50:.2f}s  p95 {self.latency.p95:.2f}s"
            f"  p99 {self.latency.p99:.2f}s  mean {self.latency.mean:.2f}s",
        ]
        for tier, stats in self.cache_tiers.items():
            lines.append(
                f"cache[{tier:10s}]: {stats['hits']} hits / {stats['misses']} misses"
                f" / {stats['evictions']} evictions"
                f" (hit rate {stats['hit_rate']:.1%})"
            )
        if self.hedge:
            lines.append(
                f"hedging     : {self.hedge.get('launched', 0)} launched /"
                f" {self.hedge.get('wins', 0)} wins"
                f" ({self.hedge.get('recovered_error', 0)} errors,"
                f" {self.hedge.get('recovered_slow', 0)} slow recovered)"
            )
        if self.health:
            lines.append(f"health      : {self.health.get('status', 'unknown')}")
        if self.bulkheads and self.bulkheads.get("quarantined"):
            roster = ", ".join(sorted(self.bulkheads["quarantined"]))
            lines.append(f"quarantine  : {roster}")
        if self.backends:
            served = self.backends.get("served", {})
            lines.append(
                f"backends    : primary {self.backends.get('primary', 0)},"
                f" served {sum(served.values())} across {len(served)} replicas,"
                f" {self.backends.get('failovers', 0)} failovers,"
                f" {self.backends.get('exhausted', 0)} exhausted"
            )
        return "\n".join(lines)
