"""Per-database bulkheads and poison-pill quarantine for the serving engine.

The engine's thread pool and admission queue are *shared*: one pathological
database — a corrupted file that crashes every request, a hot db_id whose
queries are all slow — can occupy every worker and starve the healthy
databases.  The bulkhead pattern bounds the blast radius:

* **bounded sub-pools** — each ``db_id`` may hold at most
  ``max_inflight`` of the shared workers at once; excess requests for
  that database are rejected with :class:`BulkheadFullError` while other
  databases keep flowing;
* **per-database breakers** — each ``db_id`` has its own
  :class:`~repro.reliability.breaker.CircuitBreaker` fed by that
  database's request outcomes, so a failing database stops being
  dispatched (:class:`DbCircuitOpenError`) without opening the engine-wide
  breaker for everyone;
* **poison-pill quarantine** — a ``(db_id, normalized question)`` key that
  crashes ``quarantine_threshold`` consecutive times is quarantined:
  later requests for the exact key are rejected up front
  (:class:`QuarantinedError`) and never occupy a slot again, so a
  deterministic crasher cannot keep burning its bulkhead's budget.

All three rejections subclass
:class:`~repro.serving.admission.AdmissionError`, so existing callers that
count admission rejections see them uniformly.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.reliability.breaker import CircuitBreaker
from repro.serving.admission import AdmissionError

__all__ = [
    "BulkheadFullError",
    "DbCircuitOpenError",
    "QuarantinedError",
    "BulkheadRegistry",
]

Key = tuple[str, str]


class BulkheadFullError(AdmissionError):
    """The database's bounded sub-pool is at capacity."""


class DbCircuitOpenError(AdmissionError):
    """The database's own circuit breaker is open."""


class QuarantinedError(AdmissionError):
    """The (db_id, question) key is quarantined after repeated crashes."""


class _DbState:
    """One database's bulkhead accounting (guarded by the registry lock)."""

    __slots__ = (
        "inflight", "peak_inflight", "admitted", "rejected_full",
        "rejected_open", "rejected_quarantined", "crashes", "breaker",
    )

    def __init__(self, breaker: CircuitBreaker):
        self.inflight = 0
        self.peak_inflight = 0
        self.admitted = 0
        self.rejected_full = 0
        self.rejected_open = 0
        self.rejected_quarantined = 0
        self.crashes = 0
        self.breaker = breaker


class BulkheadRegistry:
    """Bounded, breaker-guarded, quarantine-aware per-database gates.

    ``max_inflight=None`` disables the sub-pool bound (breaker and
    quarantine still apply); ``quarantine_threshold=0`` disables the
    poison-pill quarantine.  ``acquire`` must be paired with exactly one
    ``release`` per admitted request; outcomes are reported through
    ``record_success`` / ``record_crash``.
    """

    def __init__(
        self,
        max_inflight: Optional[int] = None,
        quarantine_threshold: int = 3,
        breaker_failure_threshold: int = 5,
        breaker_cooldown_calls: int = 8,
    ):
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1 (or None to disable)")
        if quarantine_threshold < 0:
            raise ValueError("quarantine_threshold must be >= 0")
        self.max_inflight = max_inflight
        self.quarantine_threshold = quarantine_threshold
        self._breaker_failure_threshold = breaker_failure_threshold
        self._breaker_cooldown_calls = breaker_cooldown_calls
        self._lock = threading.Condition()
        self._dbs: dict[str, _DbState] = {}
        #: key → consecutive crash count (pruned on success)
        self._strikes: dict[Key, int] = {}
        #: key → crash count at quarantine time (permanent until reset)
        self._quarantined: dict[Key, int] = {}

    def _state(self, db_id: str) -> _DbState:
        state = self._dbs.get(db_id)
        if state is None:
            state = self._dbs[db_id] = _DbState(
                CircuitBreaker(
                    failure_threshold=self._breaker_failure_threshold,
                    cooldown_calls=self._breaker_cooldown_calls,
                )
            )
        return state

    # ------------------------------------------------------------ the gate

    def acquire(self, db_id: str, key: Key, block: bool = False) -> None:
        """Claim one of the database's slots or raise the typed rejection.

        Quarantine and an open per-db breaker always raise — waiting in
        line cannot heal either.  A full sub-pool raises
        :class:`BulkheadFullError` for open-loop callers (``block=False``)
        and waits for a released slot for closed-loop ones.
        """
        with self._lock:
            state = self._state(db_id)
            if key in self._quarantined:
                state.rejected_quarantined += 1
                raise QuarantinedError(
                    f"key {key!r} quarantined after "
                    f"{self._quarantined[key]} consecutive crashes"
                )
            if not state.breaker.allow():
                state.rejected_open += 1
                raise DbCircuitOpenError(
                    f"circuit open for database {db_id!r} "
                    f"(state={state.breaker.state.value})"
                )
            if (
                self.max_inflight is not None
                and state.inflight >= self.max_inflight
            ):
                if not block:
                    state.rejected_full += 1
                    raise BulkheadFullError(
                        f"bulkhead for database {db_id!r} at capacity "
                        f"({self.max_inflight})"
                    )
                self._lock.wait_for(
                    lambda: state.inflight < self.max_inflight
                )
            state.inflight += 1
            state.admitted += 1
            state.peak_inflight = max(state.peak_inflight, state.inflight)

    def release(self, db_id: str) -> None:
        """Return the database slot (call exactly once per acquire)."""
        with self._lock:
            state = self._dbs.get(db_id)
            if state is None or state.inflight <= 0:
                raise RuntimeError("release() without a matching acquire()")
            state.inflight -= 1
            self._lock.notify_all()

    # ------------------------------------------------------------ outcomes

    def record_success(self, db_id: str, key: Key) -> None:
        """A request for ``key`` completed; clears its strike count."""
        with self._lock:
            self._state(db_id).breaker.record_success()
            self._strikes.pop(key, None)

    def record_crash(self, db_id: str, key: Key) -> bool:
        """A request for ``key`` crashed; returns True when the key was
        quarantined by this strike."""
        with self._lock:
            state = self._state(db_id)
            state.crashes += 1
            state.breaker.record_failure()
            strikes = self._strikes.get(key, 0) + 1
            self._strikes[key] = strikes
            if (
                self.quarantine_threshold
                and strikes >= self.quarantine_threshold
                and key not in self._quarantined
            ):
                self._quarantined[key] = strikes
                return True
            return False

    # ----------------------------------------------------------- reporting

    def quarantined(self) -> dict[Key, int]:
        """Quarantined keys → consecutive crashes that tripped them."""
        with self._lock:
            return dict(self._quarantined)

    def unquarantine(self, key: Key) -> bool:
        """Manually lift one key's quarantine (operator override)."""
        with self._lock:
            self._strikes.pop(key, None)
            return self._quarantined.pop(key, None) is not None

    def reset_counts(self) -> None:
        """Zero every database's counts; in-flight slots, breakers and
        the quarantine roster are state and stay."""
        with self._lock:
            for state in self._dbs.values():
                state.peak_inflight = state.inflight
                state.admitted = state.crashes = 0
                state.rejected_full = state.rejected_open = 0
                state.rejected_quarantined = 0

    def inflight(self, db_id: str) -> int:
        """The database's current in-flight count."""
        with self._lock:
            state = self._dbs.get(db_id)
            return state.inflight if state else 0

    def to_dict(self) -> dict:
        """JSON-ready snapshot: per-db accounting + quarantine roster."""
        with self._lock:
            databases = {
                db_id: {
                    "inflight": state.inflight,
                    "peak_inflight": state.peak_inflight,
                    "admitted": state.admitted,
                    "rejected_full": state.rejected_full,
                    "rejected_open": state.rejected_open,
                    "rejected_quarantined": state.rejected_quarantined,
                    "crashes": state.crashes,
                    "breaker_state": state.breaker.state.value,
                }
                for db_id, state in sorted(self._dbs.items())
            }
            quarantined = {
                f"{db_id}::{question}": strikes
                for (db_id, question), strikes in sorted(self._quarantined.items())
            }
        totals = {
            "rejected_full": sum(d["rejected_full"] for d in databases.values()),
            "rejected_open": sum(d["rejected_open"] for d in databases.values()),
            "rejected_quarantined": sum(
                d["rejected_quarantined"] for d in databases.values()
            ),
        }
        return {
            "max_inflight": self.max_inflight,
            "quarantine_threshold": self.quarantine_threshold,
            "databases": databases,
            "quarantined": quarantined,
            **totals,
        }
