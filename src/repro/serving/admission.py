"""Admission control for the serving engine.

A bounded request queue with three reject channels, each surfaced as a
distinct exception so load generators can tell *why* a request was turned
away:

* **shed** — the queue (queued + in-flight requests) is at capacity and the
  caller asked for non-blocking admission → :class:`QueueFullError`;
* **circuit open** — the engine's
  :class:`~repro.reliability.breaker.CircuitBreaker` has opened after
  consecutive pipeline failures →
  :class:`~repro.reliability.faults.CircuitOpenError`;
* **budget** — the engine's request budget is spent →
  :class:`~repro.reliability.faults.BudgetExceededError`;
* **draining** — the engine is shutting down gracefully and the gate has
  been closed to new work → :class:`DrainingError`;
* **health shed** — a probabilistic early-warning channel: when the wired
  :class:`~repro.serving.health.HealthMonitor` grade degrades, a fraction
  of requests is shed *before* the circuit breaker trips →
  :class:`HealthShedError`.  The breaker is a hard binary gate that only
  opens after consecutive failures; the health shed bleeds load off a
  sliding-window failure rate, so an instance under partial failure
  degrades gradually instead of cliff-dropping.

Closed-loop clients use ``admit(block=True)`` and wait for a slot;
open-loop clients use ``block=False`` and count their sheds.
"""

from __future__ import annotations

import random
import threading
from typing import Callable, Mapping, Optional

from repro.reliability.breaker import CircuitBreaker
from repro.reliability.faults import BudgetExceededError, CircuitOpenError

__all__ = [
    "AdmissionError",
    "QueueFullError",
    "DrainingError",
    "HealthShedError",
    "AdmissionController",
    "DEFAULT_HEALTH_SHED",
]

#: shed probability per health grade — the default when health-aware
#: shedding is enabled without an explicit schedule.  "healthy" requests
#: are never shed by this channel.
DEFAULT_HEALTH_SHED: dict[str, float] = {"degraded": 0.25, "unhealthy": 0.75}


class AdmissionError(RuntimeError):
    """Base class for admission-control rejections."""


class QueueFullError(AdmissionError):
    """The request was shed: the bounded queue is at capacity."""


class DrainingError(AdmissionError):
    """The gate is closed: the engine is draining toward shutdown."""


class HealthShedError(AdmissionError):
    """The request was shed because the health grade is degraded."""


class AdmissionController:
    """Bounded-queue admission gate wired to a circuit breaker and budget.

    ``capacity`` bounds queued-plus-running requests.  ``admit`` must be
    called before dispatch and ``release`` exactly once per admitted
    request (success or failure); the engine reports pipeline outcomes to
    the breaker via ``record_success`` / ``record_failure``.
    """

    def __init__(
        self,
        capacity: int = 32,
        breaker: Optional[CircuitBreaker] = None,
        max_requests: Optional[int] = None,
        health_grade: Optional[Callable[[], str]] = None,
        health_shed_probability: Optional[Mapping[str, float]] = None,
        seed: int = 0,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.breaker = breaker or CircuitBreaker()
        self.max_requests = max_requests
        #: polled on each admit; returning "degraded"/"unhealthy" activates
        #: the probabilistic shed channel (when a schedule is configured)
        self.health_grade = health_grade
        self.health_shed_probability = (
            dict(health_shed_probability) if health_shed_probability else {}
        )
        for grade, probability in self.health_shed_probability.items():
            if not 0.0 <= probability <= 1.0:
                raise ValueError(
                    f"shed probability for {grade!r} must be in [0, 1]"
                )
        self._rng = random.Random(seed)
        self._cond = threading.Condition()
        self._pending = 0
        #: admissions charged to ``max_requests`` (state: survives
        #: :meth:`reset_counts`)
        self._spent = 0
        self.closed = False
        self.submitted = 0
        self.admitted = 0
        self.shed = 0
        self.shed_health = 0
        self.rejected_open = 0
        self.rejected_budget = 0
        self.rejected_draining = 0

    @property
    def pending(self) -> int:
        """Requests currently queued or in flight."""
        with self._cond:
            return self._pending

    def admit(self, block: bool = False, timeout: Optional[float] = None) -> None:
        """Claim a queue slot or raise the applicable rejection.

        With ``block=True`` a full queue waits (closed-loop); breaker and
        budget rejections never block — an open circuit or a spent budget
        will not heal by waiting in line.
        """
        with self._cond:
            self.submitted += 1
            if self.closed:
                self.rejected_draining += 1
                raise DrainingError("engine is draining; no new requests admitted")
            if self.max_requests is not None and self._spent >= self.max_requests:
                self.rejected_budget += 1
                raise BudgetExceededError(
                    f"request budget of {self.max_requests} exhausted",
                    spent_calls=self._spent,
                )
            if not self.breaker.allow():
                self.rejected_open += 1
                raise CircuitOpenError(
                    "serving circuit open: recent pipeline failures exceeded "
                    f"threshold (state={self.breaker.state.value})"
                )
            if self.health_grade is not None and self.health_shed_probability:
                grade = self.health_grade()
                probability = self.health_shed_probability.get(grade, 0.0)
                if probability and self._rng.random() < probability:
                    self.shed_health += 1
                    raise HealthShedError(
                        f"request shed: health grade {grade!r} sheds at "
                        f"p={probability}"
                    )
            if self._pending >= self.capacity:
                if not block:
                    self.shed += 1
                    raise QueueFullError(
                        f"queue at capacity ({self.capacity}); request shed"
                    )
                if not self._cond.wait_for(
                    lambda: self._pending < self.capacity or self.closed,
                    timeout=timeout,
                ):
                    self.shed += 1
                    raise QueueFullError(
                        f"queue stayed at capacity ({self.capacity}) for "
                        f"{timeout}s; request shed"
                    )
                if self.closed:
                    # the gate closed while this caller waited in line
                    self.rejected_draining += 1
                    raise DrainingError(
                        "engine is draining; no new requests admitted"
                    )
            self._pending += 1
            self._spent += 1
            self.admitted += 1

    def release(self) -> None:
        """Return an admitted request's slot (call exactly once)."""
        with self._cond:
            if self._pending <= 0:
                raise RuntimeError("release() without a matching admit()")
            self._pending -= 1
            self._cond.notify()

    def close(self) -> None:
        """Close the gate for graceful drain: every later ``admit`` (and
        every caller currently blocked waiting for a slot) raises
        :class:`DrainingError`; in-flight requests release normally."""
        with self._cond:
            self.closed = True
            self._cond.notify_all()

    def reset_counts(self) -> None:
        """Zero the seven admission counts; slots, the gate, the breaker
        and the spent request budget are state and stay."""
        with self._cond:
            self.submitted = self.admitted = self.shed = self.shed_health = 0
            self.rejected_open = self.rejected_budget = self.rejected_draining = 0

    def record_success(self) -> None:
        """Report a completed pipeline call to the breaker."""
        self.breaker.record_success()

    def record_failure(self) -> None:
        """Report a failed pipeline call to the breaker."""
        self.breaker.record_failure()

    def to_dict(self) -> dict:
        """JSON-ready admission accounting."""
        with self._cond:
            return {
                "capacity": self.capacity,
                "closed": self.closed,
                "submitted": self.submitted,
                "admitted": self.admitted,
                "shed": self.shed,
                "shed_health": self.shed_health,
                "rejected_open": self.rejected_open,
                "rejected_budget": self.rejected_budget,
                "rejected_draining": self.rejected_draining,
                "breaker_state": self.breaker.state.value,
            }
