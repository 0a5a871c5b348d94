"""Safe SQLite execution with timeouts, error classification and
result-set comparison.

The Refinement stage's Correction step is driven by *which kind* of error a
candidate SQL produced (paper Listing 3 keys its correction few-shots by
error type), so execution outcomes carry a coarse :class:`ExecutionStatus`
taxonomy rather than raw exceptions.
"""

from __future__ import annotations

import enum
import math
import re
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.observability.context import add_event, current_span

if TYPE_CHECKING:  # avoid a circular import: reliability imports core.cost,
    # which transitively imports this module.  Deadline is duck-typed here.
    from repro.reliability.deadline import Deadline

__all__ = [
    "ExecutionStatus",
    "ExecutionError",
    "ExecutionOutcome",
    "SQLExecutor",
    "TRANSIENT_STATUSES",
    "connect_in_memory",
    "results_match",
    "normalize_rows",
]


class ExecutionStatus(enum.Enum):
    """Coarse outcome taxonomy used to pick correction few-shots."""

    OK = "ok"
    EMPTY = "empty"  # executed fine but returned no rows / only NULLs
    SYNTAX_ERROR = "syntax_error"
    MISSING_COLUMN = "missing_column"
    MISSING_TABLE = "missing_table"
    AMBIGUOUS_COLUMN = "ambiguous_column"
    TIMEOUT = "timeout"
    #: another writer holds the database lock (SQLITE_BUSY/SQLITE_LOCKED)
    LOCKED = "locked"
    #: the storage layer failed mid-statement (disk I/O error, corrupt page)
    DISK_ERROR = "disk_error"
    #: the connection itself is gone (closed / dropped mid-request)
    CONNECTION_ERROR = "connection_error"
    OTHER_ERROR = "other_error"

    @property
    def is_error(self) -> bool:
        """True for statuses the Refinement stage must repair."""
        return self not in (ExecutionStatus.OK, ExecutionStatus.EMPTY)

    @property
    def is_transient(self) -> bool:
        """True for infrastructure faults a retry/hedge may recover —
        the SQL itself is not to blame."""
        return self in TRANSIENT_STATUSES


class ExecutionError(RuntimeError):
    """Raised by :meth:`SQLExecutor.execute_or_raise` on failed execution."""

    def __init__(self, outcome: "ExecutionOutcome"):
        super().__init__(outcome.error or outcome.status.value)
        self.outcome = outcome


@dataclass(frozen=True)
class ExecutionOutcome:
    """The result of executing one SQL statement."""

    status: ExecutionStatus
    rows: tuple[tuple, ...] = ()
    columns: tuple[str, ...] = ()
    error: Optional[str] = None
    elapsed_seconds: float = 0.0
    #: deterministic execution cost: how many times the progress handler
    #: ran during the statement, once per :data:`PROGRESS_PERIOD` SQLite VM
    #: steps.  On a :func:`connect_in_memory` connection the same statement
    #: on the same data always counts the same; ``elapsed_seconds`` is wall
    #: time and carries timer noise.
    steps: int = 0

    @property
    def ok(self) -> bool:
        """True when execution succeeded with a non-empty result."""
        return self.status is ExecutionStatus.OK

    @property
    def row_count(self) -> int:
        """Number of fetched rows (capped at ``max_rows``)."""
        return len(self.rows)


#: statuses caused by infrastructure rather than the SQL text; a retry on
#: a recycled connection or a hedged re-execution may clear them
TRANSIENT_STATUSES = frozenset(
    {
        ExecutionStatus.TIMEOUT,
        ExecutionStatus.LOCKED,
        ExecutionStatus.DISK_ERROR,
        ExecutionStatus.CONNECTION_ERROR,
    }
)

#: SQLite VM steps between two progress-handler calls: the timeout
#: guard's clock check and the unit of :attr:`ExecutionOutcome.steps`
PROGRESS_PERIOD = 1_000

_MISSING_COLUMN = re.compile(r"no such column", re.IGNORECASE)
_MISSING_TABLE = re.compile(r"no such table", re.IGNORECASE)
_AMBIGUOUS = re.compile(r"ambiguous column", re.IGNORECASE)
_SYNTAX = re.compile(r"syntax error|incomplete input|unrecognized token", re.IGNORECASE)
_LOCKED = re.compile(r"database is locked|database table is locked", re.IGNORECASE)
_DISK = re.compile(r"disk i/o error|database disk image is malformed", re.IGNORECASE)
_CONNECTION = re.compile(
    r"closed database|unable to open database|connection (?:lost|dropped|reset)",
    re.IGNORECASE,
)


def classify_sqlite_error(message: str) -> ExecutionStatus:
    """Map a sqlite3 error message to the coarse taxonomy."""
    if _MISSING_COLUMN.search(message):
        return ExecutionStatus.MISSING_COLUMN
    if _MISSING_TABLE.search(message):
        return ExecutionStatus.MISSING_TABLE
    if _AMBIGUOUS.search(message):
        return ExecutionStatus.AMBIGUOUS_COLUMN
    if _SYNTAX.search(message):
        return ExecutionStatus.SYNTAX_ERROR
    if _LOCKED.search(message):
        return ExecutionStatus.LOCKED
    if _DISK.search(message):
        return ExecutionStatus.DISK_ERROR
    if _CONNECTION.search(message):
        return ExecutionStatus.CONNECTION_ERROR
    return ExecutionStatus.OTHER_ERROR


def connect_in_memory() -> sqlite3.Connection:
    """Open an empty in-memory database for :class:`SQLExecutor` to run on.

    ``check_same_thread=False``: serving workers execute on the building
    thread's connection, and every executor over it serializes statements
    with one lock, which is the supported pattern for sqlite3.

    ``cached_statements=0``: SQLite paces progress-handler calls by a
    statement's lifetime step total, so a cached statement run again would
    count by its history.  Prepared afresh, a statement's
    :attr:`ExecutionOutcome.steps` depends only on it and the data.
    """
    return sqlite3.connect(":memory:", check_same_thread=False, cached_statements=0)


# One lock per live SQLite connection: the progress-handler + cursor pair
# is connection-global state, so concurrent serving workers must serialize
# statements per database.  Keyed by id(); entries are few (one per built
# database) and live for the process, so no eviction is needed.
_CONNECTION_LOCKS: dict[int, threading.RLock] = {}
_LOCKS_GUARD = threading.Lock()


def _connection_lock(connection: sqlite3.Connection) -> threading.RLock:
    key = id(connection)
    with _LOCKS_GUARD:
        lock = _CONNECTION_LOCKS.get(key)
        if lock is None:
            lock = _CONNECTION_LOCKS[key] = threading.RLock()
        return lock


class SQLExecutor:
    """Execute read-only SQL against a SQLite connection.

    ``timeout_seconds`` is enforced with SQLite's progress handler, so a
    runaway query (cross join explosion from a hallucinated join) cannot
    stall a benchmark run.  A per-request :class:`Deadline` further caps the
    statement budget at the request's remaining virtual time.

    ``reconnect`` (optional) makes connection-level faults recoverable: when
    a statement fails with :attr:`ExecutionStatus.CONNECTION_ERROR`, the
    executor closes the dead connection, opens a fresh one via the callable
    and retries the statement — at most ``max_reconnects`` times per call.

    Thread-safety: every executor over the same connection shares one lock,
    so statements serialize per database while different databases execute
    concurrently — the property the serving engine's thread pool relies on.
    """

    def __init__(
        self,
        connection: sqlite3.Connection,
        timeout_seconds: float = 5.0,
        max_rows: int = 10_000,
        reconnect: Optional[Callable[[], sqlite3.Connection]] = None,
        max_reconnects: int = 2,
    ):
        self._connection = connection
        self._lock = _connection_lock(connection)
        self.timeout_seconds = timeout_seconds
        self.max_rows = max_rows
        self._reconnect = reconnect
        self.max_reconnects = max_reconnects
        #: lifetime count of successful connection recycles
        self.reconnects = 0

    def execute(self, sql: str, deadline: Optional[Deadline] = None) -> ExecutionOutcome:
        """Execute ``sql`` and classify the outcome; never raises for SQL
        failures (harness errors such as a closed connection still raise
        only when no ``reconnect`` is wired).

        When a span is ambient (see :mod:`repro.observability.context`)
        each statement records an ``execute`` event and its elapsed time is
        charged to the span."""
        attempts = 0
        while True:
            lock = self._lock
            with lock:
                # _recycle swaps both the connection and its lock; a caller
                # that waited out a recycle on the old lock would otherwise
                # run on the fresh connection without holding its lock —
                # two unserialized threads on one sqlite3 connection is a
                # hard crash, not an error.
                if lock is not self._lock:
                    continue
                outcome = self._execute_locked(sql, deadline)
            if (
                outcome.status is ExecutionStatus.CONNECTION_ERROR
                and self._reconnect is not None
                and attempts < self.max_reconnects
            ):
                attempts += 1
                add_event("db_reconnect", attempt=attempts, error=outcome.error)
                self._recycle()
                continue
            span = current_span()
            if span is not None:
                span.event(
                    "execute",
                    status=outcome.status.value,
                    rows=outcome.row_count,
                    elapsed_seconds=round(outcome.elapsed_seconds, 6),
                )
                span.charge(outcome.elapsed_seconds)
            return outcome

    def _recycle(self) -> None:
        """Replace the dead connection with a fresh one (bounded callers)."""
        lock = self._lock
        with lock:
            if lock is not self._lock:
                # Another caller recycled while we waited: the connection
                # under self._lock is already fresh.  Recycling it again
                # here — holding the *old* lock — would close a connection
                # that live statements are serialized on.
                return
            try:
                self._connection.close()
            except sqlite3.Error:
                pass
            self._connection = self._reconnect()
            self.reconnects += 1
            # Future statements serialize on the fresh connection's lock;
            # the old lock object dies with the old connection.  (The
            # ``with`` holds the object it acquired, so releasing is safe.)
            self._lock = _connection_lock(self._connection)

    def _execute_locked(
        self, sql: str, deadline: Optional[Deadline] = None
    ) -> ExecutionOutcome:
        timeout = self.timeout_seconds
        if deadline is not None:
            timeout = deadline.clamp(timeout)
            if timeout <= 0:
                return ExecutionOutcome(
                    status=ExecutionStatus.TIMEOUT,
                    error="request deadline exhausted before execution",
                )
        cutoff = time.perf_counter() + timeout
        timed_out = False
        steps = 0

        def guard():
            nonlocal timed_out, steps
            steps += 1
            if time.perf_counter() > cutoff:
                timed_out = True
                return 1  # non-zero aborts the statement
            return 0

        start = time.perf_counter()
        try:
            self._connection.set_progress_handler(guard, PROGRESS_PERIOD)
        except sqlite3.ProgrammingError as exc:
            # A closed/dropped connection fails before any statement runs.
            return ExecutionOutcome(
                status=ExecutionStatus.CONNECTION_ERROR, error=str(exc)
            )
        try:
            cursor = self._connection.execute(sql)
            rows = cursor.fetchmany(self.max_rows)
            elapsed = time.perf_counter() - start
            columns = tuple(d[0] for d in cursor.description or ())
            normalized = normalize_rows(rows)
            status = ExecutionStatus.OK if _has_content(normalized) else ExecutionStatus.EMPTY
            return ExecutionOutcome(
                status=status,
                rows=normalized,
                columns=columns,
                elapsed_seconds=elapsed,
                steps=steps,
            )
        except sqlite3.OperationalError as exc:
            elapsed = time.perf_counter() - start
            message = str(exc)
            # Classify TIMEOUT from the guard's own abort flag (or an
            # external interrupt()), never from elapsed time: a genuine
            # error that happens to land past the deadline keeps its real
            # classification.
            if timed_out or "interrupted" in message.lower():
                status = ExecutionStatus.TIMEOUT
            else:
                status = classify_sqlite_error(message)
            return ExecutionOutcome(
                status=status, error=message, elapsed_seconds=elapsed, steps=steps
            )
        except sqlite3.ProgrammingError as exc:
            elapsed = time.perf_counter() - start
            message = str(exc)
            if "closed database" in message.lower():
                status = ExecutionStatus.CONNECTION_ERROR
            else:
                status = ExecutionStatus.OTHER_ERROR
            return ExecutionOutcome(
                status=status, error=message, elapsed_seconds=elapsed, steps=steps
            )
        except sqlite3.Error as exc:
            elapsed = time.perf_counter() - start
            return ExecutionOutcome(
                status=classify_sqlite_error(str(exc)),
                error=str(exc),
                elapsed_seconds=elapsed,
                steps=steps,
            )
        finally:
            try:
                self._connection.set_progress_handler(None, 0)
            except sqlite3.ProgrammingError:
                pass  # connection died mid-statement; nothing to clear

    def execute_or_raise(
        self, sql: str, deadline: Optional[Deadline] = None
    ) -> ExecutionOutcome:
        """Execute ``sql``; raise :class:`ExecutionError` on failure."""
        outcome = self.execute(sql, deadline)
        if outcome.status.is_error:
            raise ExecutionError(outcome)
        return outcome


def _has_content(rows: tuple[tuple, ...]) -> bool:
    """True when the result carries at least one non-NULL cell.

    The paper's Refinement treats "Result: None" (no rows, or all-NULL
    single cell) as an error worth correcting.
    """
    for row in rows:
        for cell in row:
            if cell is not None:
                return True
    return False


def _normalize_cell(cell):
    if isinstance(cell, float):
        if math.isnan(cell):
            return None
        # Collapse float/int representation differences (COUNT vs SUM etc).
        if cell.is_integer() and abs(cell) < 1e15:
            return int(cell)
        return round(cell, 6)
    if isinstance(cell, bytes):
        return cell.decode("utf-8", errors="replace")
    return cell


def normalize_rows(rows: Sequence[Sequence]) -> tuple[tuple, ...]:
    """Normalize cells for robust comparison (floats rounded, bytes decoded)."""
    return tuple(tuple(_normalize_cell(cell) for cell in row) for row in rows)


def results_match(
    predicted: ExecutionOutcome,
    gold: ExecutionOutcome,
    order_sensitive: bool = False,
) -> bool:
    """BIRD-style execution-result comparison.

    Row sets must match exactly (as multisets by default — BIRD's metric
    compares ``set(predicted) == set(gold)``; we keep duplicates, which is
    stricter and penalizes spurious DISTINCT drops).  Column *names* are
    ignored, column order matters, mirroring the official evaluator.
    """
    if predicted.status.is_error or gold.status.is_error:
        return False
    if order_sensitive:
        return predicted.rows == gold.rows
    return sorted(predicted.rows, key=_row_key) == sorted(gold.rows, key=_row_key)


def _row_key(row: tuple) -> tuple:
    return tuple((cell is None, str(type(cell)), str(cell)) for cell in row)
