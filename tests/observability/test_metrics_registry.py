"""Unified metrics registry: instruments, labels, collectors, exports."""

from __future__ import annotations

import json
import threading

import pytest

from repro.observability import Counter, Gauge, Histogram, MetricsRegistry, flatten


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("c", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == pytest.approx(3.5)

    def test_value_read_creates_no_series(self):
        counter = Counter("c")
        assert counter.value() == 0.0
        assert counter.samples() == []

    def test_negative_increment_rejected(self):
        counter = Counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labelled_series_are_independent(self):
        counter = Counter("c", labelnames=("status",))
        counter.labels(status="ok").inc()
        counter.labels(status="ok").inc()
        counter.labels(status="failed").inc()
        assert dict(counter.samples()) == {("failed",): 1.0, ("ok",): 2.0}

    def test_unlabelled_access_on_labelled_metric_rejected(self):
        counter = Counter("c", labelnames=("status",))
        with pytest.raises(ValueError):
            counter.inc()

    def test_wrong_label_names_rejected(self):
        counter = Counter("c", labelnames=("status",))
        with pytest.raises(ValueError):
            counter.labels(tier="l1")


class TestGauge:
    def test_set_and_inc(self):
        gauge = Gauge("g")
        gauge.set(4.0)
        assert gauge.value() == 4.0


class TestHistogram:
    def test_observe_buckets_cumulative(self):
        histogram = Histogram("h", buckets=(1.0, 5.0))
        for value in (0.5, 0.7, 3.0, 100.0):
            histogram.observe(value)
        sample = histogram.labels().value()
        assert sample["count"] == 4
        assert sample["sum"] == pytest.approx(104.2)
        assert sample["buckets"] == {"1.0": 2, "5.0": 3, "+Inf": 4}

    def test_buckets_sorted_and_required(self):
        histogram = Histogram("h", buckets=(5.0, 1.0))
        assert histogram.buckets == (1.0, 5.0)
        with pytest.raises(ValueError):
            Histogram("h", buckets=())


class TestFlatten:
    def test_nested_dict_flattens_sorted(self):
        flat = flatten({"b": {"y": 2, "x": 1}, "a": 0})
        assert list(flat) == ["a", "b.x", "b.y"]

    def test_lists_skipped_scalars_kept(self):
        flat = flatten({"faults": [1, 2, 3], "state": "closed", "ok": True})
        assert "faults" not in flat
        assert flat["state"] == "closed"
        assert flat["ok"] is True


class TestRegistry:
    def test_get_or_create_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total")
        b = registry.counter("repro_x_total")
        assert a is b

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ValueError):
            registry.gauge("repro_x_total")

    def test_snapshot_deterministic_order(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("repro_b_total").inc()
            registry.gauge("repro_a").set(2)
            c = registry.counter("repro_c_total", labelnames=("status",))
            c.labels(status="ok").inc()
            c.labels(status="failed").inc(2)
            registry.register_collector("z", lambda: {"n": 1})
            registry.register_collector("a", lambda: {"m": {"k": 2}})
            return registry.to_json()

        assert build() == build()
        payload = json.loads(build())
        assert list(payload["metrics"]) == sorted(payload["metrics"])
        assert list(payload["collected"]) == ["a", "z"]

    def test_collectors_pull_live_state(self):
        registry = MetricsRegistry()
        state = {"hits": 0}
        registry.register_collector("cache", lambda: dict(state))
        assert registry.snapshot()["collected"]["cache"] == {"hits": 0}
        state["hits"] = 7
        assert registry.snapshot()["collected"]["cache"] == {"hits": 7}

    def test_jsonl_one_sample_per_line(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total").inc(3)
        registry.register_collector("s", lambda: {"a": 1})
        lines = [json.loads(line) for line in registry.to_jsonl().splitlines()]
        assert {line["metric"] for line in lines} == {"repro_x_total", "s.a"}
        for line in lines:
            assert set(line) == {"metric", "type", "labels", "value"}

    def test_render_human_readable(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_req_total", labelnames=("status",))
        counter.labels(status="ok").inc()
        registry.histogram("repro_secs").observe(1.0)
        text = registry.render()
        assert "repro_req_total{status=ok} 1.0" in text
        assert "repro_secs count=1" in text

    def test_thread_safety_under_contention(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_n_total", labelnames=("worker",))
        histogram = registry.histogram("repro_v")

        def work(worker: int):
            for _ in range(500):
                counter.labels(worker=worker % 2).inc()
                histogram.observe(0.5)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = sum(value for _key, value in counter.samples())
        assert total == 2000
        assert histogram.labels().value()["count"] == 2000
