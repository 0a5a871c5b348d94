"""Unified metrics registry: counters, gauges, histograms, collectors.

Every count has one home, the one place it is incremented.  What a
serving engine or the shard coordinator observes itself (requests by
status, deadline truncations, stale-catalog events, supervision events)
lives only in that owner's registry instruments, and its ``stats()``
reads them back.  What a component already counts (admission,
bulkheads, caches, the micro-batcher, hedging, the backend pool,
routing, the journal) stays in the component and reaches the export
through a collector; no instrument mirrors it.

* **instruments** — :class:`Counter` / :class:`Gauge` / :class:`Histogram`
  created through the registry, optionally labelled
  (``counter.labels(status="ok").inc()``), all guarded by one lock;
* **collectors** — a component registers a zero-argument callable
  returning its summary dict; :meth:`MetricsRegistry.snapshot` pulls and
  flattens it into the same export;
* **export** — :meth:`snapshot` (deterministically ordered nested dict),
  :meth:`to_json` / :meth:`to_jsonl` (one sample per line) and
  :meth:`render` (human-readable), consumed by ``python -m repro metrics``.

Naming scheme: ``repro_<subsystem>_<measure>[_total|_seconds]``, labels
for bounded cardinality dimensions only (status, tier, stage).  Snapshot
order is sorted by metric name then label items, so two snapshots of the
same state serialize identically — the property the CI gate and the
determinism tests rely on.

Dependency-free (stdlib only): any layer may import this module.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Callable, Iterable, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "flatten"]

#: virtual-seconds buckets covering cache hits (~0) to deadline blowouts
DEFAULT_BUCKETS = (0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0)


def _label_key(labelnames: tuple, labels: dict) -> tuple:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared {sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Instrument:
    """Shared machinery: name, help text, label handling, one lock."""

    kind = "instrument"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        lock: Optional[threading.RLock] = None,
    ):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = lock if lock is not None else threading.RLock()
        self._series: dict[tuple, Any] = {}

    def labels(self, **labels: Any) -> "_Series":
        """The series for one label combination (created on first use)."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = self._new_series()
            return series

    def _require_unlabelled(self) -> None:
        if self.labelnames:
            raise ValueError(
                f"{self.name} declares labels {self.labelnames}; use .labels()"
            )

    def _default_series(self) -> "_Series":
        self._require_unlabelled()
        return self.labels()

    def _new_series(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def samples(self) -> list[tuple[tuple, Any]]:
        """(label values, value) pairs in deterministic (sorted) order."""
        with self._lock:
            return sorted(
                (key, series.value()) for key, series in self._series.items()
            )


class _CounterSeries:
    def __init__(self, lock: threading.RLock):
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    def value(self) -> float:
        with self._lock:
            return self._value


class Counter(_Instrument):
    """Monotonically increasing count (requests, hits, faults)."""

    kind = "counter"

    def _new_series(self) -> _CounterSeries:
        return _CounterSeries(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabelled series."""
        self._default_series().inc(amount)

    def value(self) -> float:
        """Current value of the unlabelled series (0.0 before its first
        :meth:`inc`).

        Reads go through :meth:`samples`, never :meth:`labels`: a read
        creates no series, so a snapshot's shape does not depend on who
        read first.
        """
        self._require_unlabelled()
        return sum(value for _, value in self.samples())

    def counts(self) -> dict:
        """A one-label counter's series as ``int`` counts keyed by label
        value; like :meth:`value`, a read creates no series."""
        return {key[0]: int(value) for key, value in self.samples()}


class _GaugeSeries:
    def __init__(self, lock: threading.RLock):
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Instrument):
    """Point-in-time value (queue depth, breaker state, hit rate)."""

    kind = "gauge"

    def _new_series(self) -> _GaugeSeries:
        return _GaugeSeries(self._lock)

    def set(self, value: float) -> None:
        """Set the unlabelled series."""
        self._default_series().set(value)

    def value(self) -> float:
        """Current value of the unlabelled series."""
        return self._default_series().value()


class _HistogramSeries:
    def __init__(self, lock: threading.RLock, buckets: tuple[float, ...]):
        self._lock = lock
        self._buckets = buckets
        self._counts = [0] * (len(buckets) + 1)  # +inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(self._buckets):
                if value <= bound:
                    self._counts[index] += 1
                    return
            self._counts[-1] += 1

    def value(self) -> dict:
        with self._lock:
            cumulative, running = {}, 0
            for bound, count in zip(self._buckets, self._counts):
                running += count
                cumulative[str(bound)] = running
            cumulative["+Inf"] = running + self._counts[-1]
            return {
                "count": self._count,
                "sum": round(self._sum, 6),
                "buckets": cumulative,
            }


class Histogram(_Instrument):
    """Distribution with cumulative buckets (service seconds, tokens)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        lock: Optional[threading.RLock] = None,
    ):
        super().__init__(name, help, labelnames, lock=lock)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")

    def _new_series(self) -> _HistogramSeries:
        return _HistogramSeries(self._lock, self.buckets)

    def observe(self, value: float) -> None:
        """Observe into the unlabelled series."""
        self._default_series().observe(value)


def flatten(payload: Any, prefix: str = "") -> dict[str, Any]:
    """Flatten a nested stats dict into dotted scalar samples.

    Lists are skipped (unbounded cardinality); scalars (numbers, bools,
    strings) are kept so states like ``breaker_state: closed`` survive.
    Keys come out sorted, keeping the export deterministic.
    """
    flat: dict[str, Any] = {}
    if isinstance(payload, dict):
        for key in sorted(payload, key=str):
            dotted = f"{prefix}.{key}" if prefix else str(key)
            flat.update(flatten(payload[key], dotted))
    elif isinstance(payload, (int, float, bool, str)) or payload is None:
        flat[prefix] = payload
    return flat


class MetricsRegistry:
    """The process-wide (or per-engine) home for every metric."""

    def __init__(self):
        self._lock = threading.RLock()
        self._instruments: dict[str, _Instrument] = {}
        self._collectors: dict[str, Callable[[], dict]] = {}

    # --------------------------------------------------------- registration

    def _register(self, instrument: _Instrument) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(instrument.name)
            if existing is not None:
                if type(existing) is not type(instrument):
                    raise ValueError(
                        f"metric {instrument.name!r} already registered as "
                        f"{existing.kind}"
                    )
                return existing
            self._instruments[instrument.name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Counter:
        """Get-or-create a counter (idempotent per name)."""
        return self._register(Counter(name, help, labelnames))

    def gauge(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Gauge:
        """Get-or-create a gauge."""
        return self._register(Gauge(name, help, labelnames))

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get-or-create a histogram."""
        return self._register(Histogram(name, help, labelnames, buckets))

    def register_collector(self, name: str, collect: Callable[[], dict]) -> None:
        """Register a stats object's summary callable under ``name``.

        ``collect`` is pulled (and flattened) on every :meth:`snapshot`, so
        a component's own counts surface in the unified export without an
        instrument mirroring them.
        """
        with self._lock:
            self._collectors[name] = collect

    def reset(self) -> None:
        """Zero every instrument: each drops its series, as when created.

        Collectors are left alone; they read counts their components keep.
        """
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            with instrument._lock:
                instrument._series.clear()

    # --------------------------------------------------------------- export

    def snapshot(self) -> dict:
        """Deterministically ordered view of every metric and collector."""
        with self._lock:
            instruments = sorted(self._instruments.items())
            collectors = sorted(self._collectors.items())
        metrics: dict[str, dict] = {}
        for name, instrument in instruments:
            samples = {}
            for key, value in instrument.samples():
                label = ",".join(
                    f"{n}={v}" for n, v in zip(instrument.labelnames, key)
                )
                samples[label or "_"] = value
            metrics[name] = {"type": instrument.kind, "samples": samples}
        collected: dict[str, dict] = {}
        for name, collect in collectors:
            collected[name] = flatten(collect())
        return {"metrics": metrics, "collected": collected}

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The snapshot as one JSON document."""
        return json.dumps(self.snapshot(), indent=indent)

    def to_jsonl(self) -> str:
        """One JSON object per sample (stream-friendly export)."""
        snapshot = self.snapshot()
        lines = []
        for name, payload in snapshot["metrics"].items():
            for label, value in payload["samples"].items():
                sample = {
                    "metric": name,
                    "type": payload["type"],
                    "labels": None if label == "_" else label,
                    "value": value,
                }
                lines.append(json.dumps(sample, sort_keys=True))
        for source, flat in snapshot["collected"].items():
            for key, value in flat.items():
                sample = {
                    "metric": f"{source}.{key}",
                    "type": "collected",
                    "labels": None,
                    "value": value,
                }
                lines.append(json.dumps(sample, sort_keys=True))
        return "\n".join(lines)

    def render(self) -> str:
        """Human-readable multi-line dump (``repro metrics`` default)."""
        snapshot = self.snapshot()
        lines = []
        for name, payload in snapshot["metrics"].items():
            for label, value in payload["samples"].items():
                where = f"{name}{{{label}}}" if label != "_" else name
                if isinstance(value, dict):  # histogram
                    lines.append(f"{where} count={value['count']} sum={value['sum']}")
                else:
                    lines.append(f"{where} {value}")
        for source, flat in snapshot["collected"].items():
            for key, value in flat.items():
                lines.append(f"{source}.{key} {value}")
        return "\n".join(lines)
