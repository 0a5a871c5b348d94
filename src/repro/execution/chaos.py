"""Deterministic database-layer fault injection.

:class:`FaultInjectingExecutor` is the execution-side twin of
:class:`~repro.reliability.injection.FaultInjectingLLM`: it wraps any
executor and injects the failure modes a hot SQLite dependency shows in
production — a locked database, disk I/O errors, dropped connections, slow
queries, and silently damaged result rows — at configured, seeded rates.

Two families, mirroring the LLM fault taxonomy:

* **error faults** surface as error-status
  :class:`~repro.execution.executor.ExecutionOutcome`\\ s classified into
  the :class:`~repro.execution.executor.ExecutionStatus` taxonomy
  (``LOCKED``, ``DISK_ERROR``, ``CONNECTION_ERROR``) — the Refinement
  stage's correction loop and the serving layer's hedging see exactly what
  a real failure would give them;
* **content faults** succeed with damaged data: ``slow_query`` adds
  recorded virtual seconds (charged to the request's
  :class:`~repro.reliability.deadline.Deadline`), ``truncate_rows`` /
  ``corrupt_rows`` return a wrong result with an OK status — damage only a
  vote across candidates can absorb.

Determinism under concurrency: every draw derives from an FNV-hash of
``(seed, sql, attempt, occurrence)`` — not from a shared RNG sequence —
where ``occurrence`` counts prior executions of that ``(sql, attempt)``
pair.  Repeated executions of one statement therefore face independent
draws (transient faults are conditions of the *moment*, not of the
statement text), a hedged re-execution passes a different ``attempt`` and
is decorrelated from its primary, and the *multiset* of draws each
statement faces is schedule-independent: thread interleaving can only
permute which caller gets which outcome, never how many faults of each
kind a run injects.  Serial runs (the chaos benches) replay
byte-for-byte.

``connection_drop`` is injected *physically*: the wrapped executor's
SQLite connection is closed, so the statement (and every later one on that
connection) genuinely fails until the executor's ``reconnect`` recycling
recovers it.
"""

from __future__ import annotations

import sqlite3
import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from repro.execution.executor import (
    ExecutionError,
    ExecutionOutcome,
    ExecutionStatus,
    _connection_lock,
)
from repro.hashing import MASK, stable_hash
from repro.observability.context import add_event, current_span

if TYPE_CHECKING:  # avoid a circular import (reliability → core → execution)
    from repro.reliability.deadline import Deadline
    from repro.reliability.stats import ReliabilityStats

__all__ = ["DbFaultKind", "DbFaultPlan", "FaultInjectingExecutor"]

class DbFaultKind:
    """Stat-record labels for injected database faults."""

    LOCKED = "db_locked"
    DISK_ERROR = "db_disk_error"
    CONNECTION_DROP = "db_connection_drop"
    SLOW_QUERY = "db_slow_query"
    TRUNCATED_ROWS = "db_truncated_rows"
    CORRUPT_ROWS = "db_corrupt_rows"

    ALL = (LOCKED, DISK_ERROR, CONNECTION_DROP, SLOW_QUERY, TRUNCATED_ROWS,
           CORRUPT_ROWS)


@dataclass(frozen=True)
class DbFaultPlan:
    """Per-kind injection rates (independent bands of one uniform draw).

    At most one fault fires per execution.  ``slow_seconds`` is the
    recorded virtual latency an injected slow query adds (charged to the
    request's deadline, consistent with the simulator's reported-not-slept
    convention).
    """

    locked: float = 0.0
    disk_error: float = 0.0
    connection_drop: float = 0.0
    slow_query: float = 0.0
    truncate_rows: float = 0.0
    corrupt_rows: float = 0.0
    slow_seconds: float = 4.0

    @classmethod
    def transient(cls, rate: float) -> "DbFaultPlan":
        """Only faults a retry/hedge can recover, at ``rate`` total."""
        return cls(
            locked=rate / 2.0, connection_drop=rate / 4.0, slow_query=rate / 4.0
        )

    @classmethod
    def chaos(cls, rate: float) -> "DbFaultPlan":
        """Everything at once at ``rate`` total, weighted toward the
        transient kinds hedging and recycling are built to absorb."""
        return cls(
            locked=rate / 4.0,
            disk_error=rate / 8.0,
            connection_drop=rate / 8.0,
            slow_query=rate / 4.0,
            truncate_rows=rate / 8.0,
            corrupt_rows=rate / 8.0,
        )

    def total_rate(self) -> float:
        """Probability any fault fires on one execution."""
        return min(
            1.0,
            self.locked + self.disk_error + self.connection_drop
            + self.slow_query + self.truncate_rows + self.corrupt_rows,
        )


class FaultInjectingExecutor:
    """Wraps an executor and injects database faults per a
    :class:`DbFaultPlan`.

    Implements the executor protocol (``execute`` / ``execute_or_raise``)
    plus an ``attempt`` salt that decorrelates hedged re-executions; other
    attributes fall through to the wrapped executor.
    """

    def __init__(
        self,
        inner,
        plan: DbFaultPlan,
        seed: int = 0,
        stats: Optional["ReliabilityStats"] = None,
    ):
        from repro.reliability.stats import ReliabilityStats

        self.inner = inner
        self.plan = plan
        self.seed = seed
        self.stats = stats if stats is not None else ReliabilityStats()
        # Serving workers share one injector per database; the lock guards
        # the stats counters and the per-statement occurrence counters.
        self._stats_lock = threading.Lock()
        self._occurrences: dict[tuple[str, int], int] = {}

    # ------------------------------------------------------------- helpers

    def _draw(self, sql: str, attempt: int, occurrence: int) -> float:
        return stable_hash(self.seed, sql, attempt, occurrence) / float(MASK)

    def _record(self, kind: str, detail: str = "") -> None:
        with self._stats_lock:
            self.stats.record_fault(
                kind, self.stats.calls, model="sqlite", detail=detail
            )
        add_event("db_fault", kind=kind, detail=detail)

    def _content_rng_index(self, sql: str, attempt: int, n: int) -> int:
        return stable_hash("victim", self.seed, sql, attempt) % max(1, n)

    # ----------------------------------------------------------------- API

    def execute(
        self,
        sql: str,
        deadline: Optional[Deadline] = None,
        attempt: int = 0,
    ) -> ExecutionOutcome:
        """Execute via the wrapped executor, possibly injecting one fault."""
        with self._stats_lock:
            self.stats.calls += 1
            key = (sql, attempt)
            occurrence = self._occurrences.get(key, 0)
            self._occurrences[key] = occurrence + 1
        plan = self.plan
        draw = self._draw(sql, attempt, occurrence)

        if draw < plan.locked:
            self._record(DbFaultKind.LOCKED, detail=sql[:60])
            return ExecutionOutcome(
                status=ExecutionStatus.LOCKED, error="database is locked"
            )
        draw -= plan.locked

        if draw < plan.disk_error:
            self._record(DbFaultKind.DISK_ERROR, detail=sql[:60])
            return ExecutionOutcome(
                status=ExecutionStatus.DISK_ERROR, error="disk I/O error"
            )
        draw -= plan.disk_error

        if draw < plan.connection_drop:
            self._record(DbFaultKind.CONNECTION_DROP, detail=sql[:60])
            self._drop_connection()
            # The statement now runs against a dead connection: the inner
            # executor either reports CONNECTION_ERROR or — with reconnect
            # wired — recycles and absorbs the fault entirely.
            return self.inner.execute(sql, deadline)
        draw -= plan.connection_drop

        if draw < plan.slow_query:
            outcome = self.inner.execute(sql, deadline)
            self._record(DbFaultKind.SLOW_QUERY, detail=sql[:60])
            if deadline is not None:
                deadline.charge(plan.slow_seconds)
            span = current_span()
            if span is not None:
                # Injected latency is virtual (recorded, not slept) — charge
                # it to the span like any other non-LLM virtual second.
                span.charge(plan.slow_seconds)
            return replace(
                outcome, elapsed_seconds=outcome.elapsed_seconds + plan.slow_seconds
            )
        draw -= plan.slow_query

        outcome = self.inner.execute(sql, deadline)
        if outcome.status is not ExecutionStatus.OK or not outcome.rows:
            return outcome

        if draw < plan.truncate_rows:
            self._record(DbFaultKind.TRUNCATED_ROWS, detail=sql[:60])
            keep = max(1, len(outcome.rows) // 2)
            if keep < len(outcome.rows):
                return replace(outcome, rows=outcome.rows[:keep])
            return outcome
        draw -= plan.truncate_rows

        if draw < plan.corrupt_rows:
            self._record(DbFaultKind.CORRUPT_ROWS, detail=sql[:60])
            victim = self._content_rng_index(sql, attempt, len(outcome.rows))
            rows = list(outcome.rows)
            rows[victim] = tuple(_corrupt_cell(cell) for cell in rows[victim])
            return replace(outcome, rows=tuple(rows))

        return outcome

    def execute_or_raise(
        self, sql: str, deadline: Optional[Deadline] = None
    ) -> ExecutionOutcome:
        """Execute ``sql``; raise :class:`ExecutionError` on failure."""
        outcome = self.execute(sql, deadline)
        if outcome.status.is_error:
            raise ExecutionError(outcome)
        return outcome

    def _drop_connection(self) -> None:
        """Physically close the wrapped executor's SQLite connection.

        Serialized on the executor's per-connection lock: closing a
        sqlite3 connection while another serving worker is mid-statement
        on it crashes the interpreter, not just the statement.
        """
        connection = getattr(self.inner, "_connection", None)
        if connection is not None:
            with _connection_lock(connection):
                try:
                    connection.close()
                except sqlite3.Error:  # pragma: no cover - close is best-effort
                    pass

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _corrupt_cell(cell):
    """Deterministically damage one result cell (type-preserving-ish)."""
    if isinstance(cell, bool):
        return not cell
    if isinstance(cell, int):
        return cell + 1
    if isinstance(cell, float):
        return cell + 1.0
    if isinstance(cell, str):
        return cell + "␀"  # visible NUL marker: clearly corrupt
    return cell
