"""Reliability layer: fault injection, resilient transport, graceful
degradation and per-request deadlines.

The paper suppresses *model* failure modes; this package suppresses
*infrastructure* failure modes — the rate limits, timeouts and garbled
completions that a deployed Text-to-SQL service meets at scale:

* :class:`FaultInjectingLLM` + :class:`FaultPlan` — a seeded
  infrastructure-noise channel symmetric to the simulator's semantic-noise
  channels, for chaos testing and the reliability benches;
* :class:`ResilientLLM` + :class:`RetryPolicy` + :class:`CircuitBreaker`
  — retry with exponential backoff, per-model circuit breaking, budget
  guards and model fallback;
* :class:`DegradationEvent` — the typed record each pipeline containment
  point emits instead of crashing;
* :class:`Deadline` — the per-request time budget (real wall + recorded
  virtual seconds) threaded from the serving engine through every pipeline
  stage and SQL execution;
* :class:`ReliabilityStats` — the accounting all of the above report into.
"""

from repro.reliability.breaker import BreakerState, CircuitBreaker
from repro.reliability.deadline import Deadline, DeadlineExceededError
from repro.reliability.degradation import DegradationEvent, DegradationKind
from repro.reliability.faults import (
    BudgetExceededError,
    CircuitOpenError,
    FaultKind,
    RateLimitError,
    ServiceUnavailableError,
    TransientTimeoutError,
    TransportFault,
)
from repro.reliability.injection import FaultInjectingLLM, FaultPlan
from repro.reliability.stats import FaultRecord, ReliabilityStats
from repro.reliability.transport import ResilientLLM, RetryPolicy

__all__ = [
    "BreakerState",
    "BudgetExceededError",
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "DeadlineExceededError",
    "DegradationEvent",
    "DegradationKind",
    "FaultInjectingLLM",
    "FaultKind",
    "FaultPlan",
    "FaultRecord",
    "RateLimitError",
    "ReliabilityStats",
    "ResilientLLM",
    "RetryPolicy",
    "ServiceUnavailableError",
    "TransientTimeoutError",
    "TransportFault",
]
