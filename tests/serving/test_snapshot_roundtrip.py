"""Health and metrics snapshots must survive a JSON round-trip.

A shard worker ships its engine's metrics snapshot across the process
boundary as plain JSON — never a pickled live object.  The test pushes
each snapshot through ``json.dumps``/``loads`` (so a non-serializable
field fails loudly, not just an unequal dict) and requires it to come
back equal.
"""

import json

from repro.observability.metrics import MetricsRegistry
from repro.serving import ServingEngine


def roundtrip(payload):
    return json.loads(json.dumps(payload))


class TestEngineSnapshotsSerializable:
    def test_live_engine_health_and_metrics_are_json_ready(
        self, tiny_benchmark, tiny_pipeline
    ):
        # The payload a shard worker ships at shutdown (its metrics
        # snapshot, whose serving section carries health) must be
        # JSON-serializable and come back unchanged.
        metrics = MetricsRegistry()
        engine = ServingEngine(tiny_pipeline, workers=1, metrics=metrics)
        with engine:
            engine.run(tiny_benchmark.dev[:3])
            health_snap = engine.health.snapshot()
            metrics_snap = metrics.snapshot()
        assert roundtrip(health_snap) == health_snap
        assert roundtrip(metrics_snap) == metrics_snap
