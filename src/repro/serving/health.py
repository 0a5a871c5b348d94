"""Component health tracking for the serving engine.

A deployment needs a cheap answer to "is this instance fit to serve?".
:class:`HealthMonitor` keeps a sliding window of success/failure
observations per component (pipeline calls, SQL execution, deadline
outcomes — whatever the engine reports) plus registered *probes*: zero-
argument callables sampled at snapshot time for point-in-time state such
as the circuit breaker's position or cache hit rates.

``snapshot()`` grades each windowed component ``healthy`` / ``degraded``
/ ``unhealthy`` from its recent failure rate and rolls the worst grade up
into an overall status — the shape a readiness endpoint would serve.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Optional

__all__ = ["HealthMonitor"]

_GRADES = ("healthy", "degraded", "unhealthy")


class HealthMonitor:
    """Windowed per-component health with pluggable probes.

    ``window`` bounds how many recent observations per component count
    toward the failure rate; ``degraded_at`` / ``unhealthy_at`` are the
    failure-rate thresholds for the two bad grades.
    """

    def __init__(
        self,
        window: int = 64,
        degraded_at: float = 0.1,
        unhealthy_at: float = 0.5,
    ):
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 <= degraded_at <= unhealthy_at <= 1.0:
            raise ValueError("need 0 <= degraded_at <= unhealthy_at <= 1")
        self.window = window
        self.degraded_at = degraded_at
        self.unhealthy_at = unhealthy_at
        self._lock = threading.Lock()
        self._observations: dict[str, deque] = {}
        self._last_failure: dict[str, str] = {}
        self._probes: dict[str, Callable[[], object]] = {}

    # ------------------------------------------------------------- feeding

    def record(self, component: str, ok: bool, detail: str = "") -> None:
        """Add one success/failure observation for ``component``."""
        with self._lock:
            if component not in self._observations:
                self._observations[component] = deque(maxlen=self.window)
            self._observations[component].append(bool(ok))
            if not ok and detail:
                self._last_failure[component] = detail

    def register_probe(self, name: str, probe: Callable[[], object]) -> None:
        """Attach a point-in-time state sampler, called at snapshot time.

        A probe returning a falsy non-dict value reads as a failing
        component; dict payloads are reported verbatim (state, not grade).
        """
        with self._lock:
            self._probes[name] = probe

    # ------------------------------------------------------------ reporting

    def component_status(self, component: str) -> Optional[dict]:
        """The graded view of one windowed component (None when unseen)."""
        with self._lock:
            observations = self._observations.get(component)
            if not observations:
                return None
            failures = sum(1 for ok in observations if not ok)
            rate = failures / len(observations)
            detail = self._last_failure.get(component, "")
        if rate >= self.unhealthy_at:
            grade = "unhealthy"
        elif rate >= self.degraded_at:
            grade = "degraded"
        else:
            grade = "healthy"
        payload = {
            "status": grade,
            "failure_rate": round(rate, 4),
            "window": len(observations),
        }
        if detail:
            payload["last_failure"] = detail
        return payload

    def component_grade(self, component: str) -> str:
        """One component's grade alone — ``"healthy"`` when unobserved.

        The cheap form admission control polls on every request: no probe
        sampling, no dict building beyond :meth:`component_status`.
        """
        status = self.component_status(component)
        return status["status"] if status is not None else "healthy"

    def snapshot(self) -> dict:
        """Full health report: overall grade, components and probe state."""
        with self._lock:
            components = list(self._observations)
            probes = dict(self._probes)
        report: dict = {"components": {}, "probes": {}}
        worst = 0
        for component in components:
            status = self.component_status(component)
            if status is None:
                continue
            report["components"][component] = status
            worst = max(worst, _GRADES.index(status["status"]))
        for name, probe in probes.items():
            try:
                value = probe()
            except Exception as exc:
                report["probes"][name] = {"error": f"{type(exc).__name__}: {exc}"}
                worst = max(worst, _GRADES.index("unhealthy"))
                continue
            if isinstance(value, dict):
                report["probes"][name] = value
            else:
                report["probes"][name] = {"value": value}
                if not value:
                    worst = max(worst, _GRADES.index("degraded"))
        report["status"] = _GRADES[worst]
        return report
