"""One home per serving count: both engines count what they observe only
in their own ``MetricsRegistry`` (a private one when no ``metrics=`` is
passed), ``stats()`` reads it back, and ``reset_stats()`` zeroes every
count ``stats()`` reports."""

import json

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import OpenSearchSQL
from repro.llm.simulated import SimulatedLLM
from repro.llm.skills import GPT_4O
from repro.serving import AsyncServingEngine, ServingEngine

KINDS = ("threaded", "async")


def fresh_pipeline(benchmark):
    return OpenSearchSQL(
        benchmark, SimulatedLLM(GPT_4O, seed=0), PipelineConfig(n_candidates=3)
    )


def build_engine(benchmark, kind, **kwargs):
    engine_cls = AsyncServingEngine if kind == "async" else ServingEngine
    return engine_cls(fresh_pipeline(benchmark), **kwargs)


def samples(engine, name):
    """An instrument's exported samples, keyed by label value."""
    exported = engine.metrics.snapshot()["metrics"][name]["samples"]
    return {
        label.partition("=")[2] or label: value for label, value in exported.items()
    }


def without_wall_clock(payload: str) -> dict:
    """A JSON export minus the serving section's wall-clock fields."""
    doc = json.loads(payload)
    for key in ("wall_seconds", "wall_throughput_rps"):
        doc["collected"]["serving"].pop(key)
    return doc


@pytest.fixture
def load(tiny_benchmark):
    """7 requests over 3 questions."""
    a, b, c = tiny_benchmark.dev[:3]
    return [a, b, a, c, b, a, c]


class TestRegistryIsTheHome:
    def test_threaded_counts_read_back_from_its_own_registry(self, tiny_benchmark):
        a, b, doomed = tiny_benchmark.dev[:3]
        pipeline = fresh_pipeline(tiny_benchmark)
        answer = pipeline.answer

        def failing_answer(example, *args, **kwargs):
            if example.question_id == doomed.question_id:
                raise RuntimeError("boom")
            return answer(example, *args, **kwargs)

        pipeline.answer = failing_answer
        with ServingEngine(pipeline, workers=1) as engine:
            engine.run([a, b, a, doomed])
            stats = engine.stats()
        requests = samples(engine, "repro_serving_requests_total")
        assert requests == {"ok": 2, "cached": 1, "failed": 1}
        assert stats.completed == requests["ok"] + requests["cached"] == 3
        assert stats.failed == requests["failed"]
        assert stats.result_hits == requests["cached"]
        assert stats.latency.count == stats.completed

    def test_async_coalesced_read_back_from_its_own_registry(
        self, tiny_benchmark, load
    ):
        with AsyncServingEngine(
            fresh_pipeline(tiny_benchmark), workers=2, queue_capacity=len(load)
        ) as engine:
            engine.run(load)
            stats = engine.stats()
        requests = samples(engine, "repro_serving_requests_total")
        assert stats.coalesced == requests["coalesced"] == len(load) - 3
        assert stats.completed == sum(requests.values()) == len(load)

    @pytest.mark.parametrize("kind", KINDS)
    def test_deadline_exceeded_has_one_home(self, tiny_benchmark, load, kind):
        with build_engine(
            tiny_benchmark,
            kind,
            workers=2,
            queue_capacity=len(load),
            deadline_seconds=1e-6,
            result_cache_size=0,
        ) as engine:
            engine.run(load)
            stats = engine.stats()
        exceeded = samples(engine, "repro_serving_deadline_exceeded_total")
        assert stats.deadline_exceeded == exceeded["_"] == len(load)

    @pytest.mark.parametrize("kind", KINDS)
    def test_reads_do_not_change_the_snapshot(self, tiny_benchmark, load, kind):
        with build_engine(
            tiny_benchmark, kind, workers=2, queue_capacity=len(load)
        ) as engine:
            engine.run(load)
            before = engine.metrics.to_json()
            engine.stats()
            assert engine.livedata_stats == dict.fromkeys(
                ("stale_detected", "stale_retried", "stale_served", "invalidations"),
                0,
            )
            after = engine.metrics.to_json()
        exported = json.loads(before)["metrics"]
        assert exported["repro_livedata_stale_total"]["samples"] == {}
        assert exported["repro_livedata_invalidations_total"]["samples"] == {}
        # the serving section's wall-clock fields are the only moving part
        assert without_wall_clock(before) == without_wall_clock(after)


class TestResetStats:
    @pytest.mark.parametrize("kind", KINDS)
    def test_warm_pass_counts_only_itself(self, tiny_benchmark, load, kind):
        """After a cold pass and ``reset_stats()``, the warm pass reports
        its own requests only: every layer's count starts again at zero."""
        with build_engine(
            tiny_benchmark,
            kind,
            workers=2,
            queue_capacity=len(load),
            hedge_threshold=0.5,
        ) as engine:
            engine.run(load)
            assert engine.stats().hedge["calls"] > 0
            engine.reset_stats()
            engine.run(load)
            warm = engine.stats()
        assert warm.submitted == warm.admitted == warm.completed == len(load)
        assert warm.result_hits == len(load)
        assert warm.failed == 0
        assert sum(
            db["admitted"] for db in warm.bulkheads["databases"].values()
        ) == len(load)
        # every warm request was a result hit, so nothing was executed
        assert warm.hedge == dict.fromkeys(warm.hedge, 0)
        requests = samples(engine, "repro_serving_requests_total")
        assert requests == {"cached": len(load)}
        if kind == "async":
            # the warm pass made no LLM call, so the backend was never busy
            assert warm.llm_calls == 0
            assert warm.makespan_seconds == 0
