"""Hedged SQL execution for the serving path.

Tail latency and transient database faults share one cure: run the
statement again.  :class:`HedgedExecutor` wraps any executor and launches a
single backup execution when the primary attempt either

* failed with a **transient** status (``LOCKED`` / ``DISK_ERROR`` /
  ``CONNECTION_ERROR`` / ``TIMEOUT`` — infrastructure faults a fresh
  attempt may clear), or
* succeeded but took at least ``threshold_seconds`` of virtual time — the
  classic hedged-request policy: past the threshold a duplicate is cheaper
  than waiting out the tail.

The recorded latency of a slow-primary hedge is the *race* outcome:
``min(primary_elapsed, threshold + hedge_elapsed)`` — in a real deployment
the backup launches at the threshold and whichever answer lands first
wins.  (Virtual-time convention: executions here run sequentially and
report what the race would have cost; nothing sleeps.)

When the wrapped executor understands an ``attempt`` argument (the
fault-injecting executor does), the hedge passes ``attempt=1`` so its
fault draw is independent of the primary's — re-running the same statement
against the same chaos seed would otherwise hit the same injected fault
forever, which is exactly the correlation hedging exists to break.
"""

from __future__ import annotations

import inspect
import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from repro.execution.executor import ExecutionError, ExecutionOutcome
from repro.observability.context import add_event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.reliability.deadline import Deadline

__all__ = ["HedgeStats", "HedgedExecutor", "hedge_executors"]


@dataclass
class HedgeStats:
    """What hedging did over one executor's lifetime."""

    #: primary executions seen
    calls: int = 0
    #: backup executions launched
    launched: int = 0
    #: hedges whose outcome was adopted over the primary's
    wins: int = 0
    #: transient-error primaries cleared by the hedge
    recovered_error: int = 0
    #: slow-but-OK primaries where the hedge won the latency race
    recovered_slow: int = 0
    #: primaries at/over the latency threshold (hedge-eligible slow calls)
    primary_slow: int = 0
    #: hedges skipped because the request deadline was already spent
    suppressed_deadline: int = 0

    def to_dict(self) -> dict:
        """JSON-ready counters for stats reports."""
        return {
            "calls": self.calls,
            "launched": self.launched,
            "wins": self.wins,
            "recovered_error": self.recovered_error,
            "recovered_slow": self.recovered_slow,
            "primary_slow": self.primary_slow,
            "suppressed_deadline": self.suppressed_deadline,
        }


class HedgedExecutor:
    """Wraps an executor with a one-backup hedging policy.

    Implements the executor protocol (``execute`` / ``execute_or_raise``);
    other attributes fall through to the wrapped executor.  Thread-safe:
    serving workers share one instance per database, and only the shared
    stats are guarded (execution itself is reentrant in the wrapped
    executor).
    """

    def __init__(
        self,
        inner,
        threshold_seconds: float = 2.0,
        stats: Optional[HedgeStats] = None,
    ):
        if threshold_seconds <= 0:
            raise ValueError("threshold_seconds must be > 0")
        self.inner = inner
        self.threshold_seconds = threshold_seconds
        self.stats = stats if stats is not None else HedgeStats()
        self._stats_lock = threading.Lock()
        # Detect the attempt-salt protocol once: FaultInjectingExecutor
        # accepts it (decorrelated draws), plain SQLExecutor does not.
        try:
            parameters = inspect.signature(inner.execute).parameters
            self._attempt_aware = "attempt" in parameters
        except (TypeError, ValueError):  # pragma: no cover - exotic callables
            self._attempt_aware = False

    # ------------------------------------------------------------- helpers

    def _run(
        self, sql: str, deadline: Optional["Deadline"], attempt: int
    ) -> ExecutionOutcome:
        if self._attempt_aware:
            return self.inner.execute(sql, deadline, attempt=attempt)
        return self.inner.execute(sql, deadline)

    def _bump(self, **deltas: int) -> None:
        with self._stats_lock:
            for name, delta in deltas.items():
                setattr(self.stats, name, getattr(self.stats, name) + delta)

    # ----------------------------------------------------------------- API

    def execute(
        self, sql: str, deadline: Optional["Deadline"] = None
    ) -> ExecutionOutcome:
        """Execute ``sql``, hedging transient failures and slow successes."""
        primary = self._run(sql, deadline, attempt=0)
        self._bump(calls=1)

        transient = primary.status.is_transient
        slow = (
            not primary.status.is_error
            and primary.elapsed_seconds >= self.threshold_seconds
        )
        if slow:
            self._bump(primary_slow=1)
        if not transient and not slow:
            return primary
        if deadline is not None and deadline.expired:
            self._bump(suppressed_deadline=1)
            add_event("hedge_suppressed", reason="deadline")
            return primary

        self._bump(launched=1)
        add_event(
            "hedge_launched",
            reason="transient" if transient else "slow",
            primary_status=primary.status.value,
        )
        hedge = self._run(sql, deadline, attempt=1)

        if transient:
            if not hedge.status.is_transient:
                self._bump(wins=1, recovered_error=1)
                add_event("hedge_won", recovered="error")
                return hedge
            return primary

        # Slow-primary race: the hedge launches at the threshold, so its
        # answer lands at threshold + hedge_elapsed virtual seconds.
        if hedge.status.is_error:
            return primary
        hedge_finish = self.threshold_seconds + hedge.elapsed_seconds
        if hedge_finish < primary.elapsed_seconds:
            self._bump(wins=1, recovered_slow=1)
            add_event("hedge_won", recovered="slow")
            return replace(hedge, elapsed_seconds=hedge_finish)
        return primary

    def execute_or_raise(
        self, sql: str, deadline: Optional["Deadline"] = None
    ) -> ExecutionOutcome:
        """Execute ``sql``; raise :class:`ExecutionError` on failure."""
        outcome = self.execute(sql, deadline)
        if outcome.status.is_error:
            raise ExecutionError(outcome)
        return outcome

    def __getattr__(self, name):
        return getattr(self.inner, name)


def hedge_executors(pipeline, threshold_seconds: float) -> HedgeStats:
    """Hedge every executor ``pipeline`` hands out; return their shared stats.

    The hedge composes with any wrapper already installed (e.g. a chaos
    fault injector): it wraps outermost so it sees — and can recover —
    injected faults.
    """
    stats = HedgeStats()
    previous = pipeline.executor_wrapper

    def hedged(executor, db_id):
        inner = previous(executor, db_id) if previous else executor
        return HedgedExecutor(inner, threshold_seconds=threshold_seconds, stats=stats)

    pipeline.set_executor_wrapper(hedged)
    return stats
