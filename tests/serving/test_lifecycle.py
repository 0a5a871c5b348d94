"""The request lifecycle both serving engines share: poison-pill
quarantine on every engine shape, and the failing single-flight leader."""

import asyncio

import pytest

from repro.caching import normalize_question
from repro.core.config import PipelineConfig
from repro.core.pipeline import OpenSearchSQL
from repro.livedata.epoch import EpochRegistry
from repro.llm.simulated import SimulatedLLM
from repro.llm.skills import GPT_4O
from repro.routing import TieredPipeline
from repro.serving import (
    AsyncServingEngine,
    ServingEngine,
    ServingJournal,
    recover_run,
)
from repro.serving.bulkhead import QuarantinedError

THRESHOLD = 3
KINDS = ("threaded", "async")
SHAPES = ("plain", "routed", "livedata")


class PoisonPill(RuntimeError):
    """The deterministic crash every request in this module hits."""


def crashing_pipeline(benchmark, shape="plain"):
    """A pipeline (tiered when ``shape == "routed"``) whose answer raises."""
    base = OpenSearchSQL(
        benchmark, SimulatedLLM(GPT_4O, seed=0), PipelineConfig(n_candidates=3)
    )
    served = TieredPipeline(base) if shape == "routed" else base

    def answer(example, deadline=None, trace=None):
        raise PoisonPill(f"cannot answer {example.question_id}")

    served.answer = answer
    return served


def build_engine(benchmark, kind, shape="plain", **kwargs):
    engine_cls = AsyncServingEngine if kind == "async" else ServingEngine
    kwargs.setdefault("quarantine_threshold", THRESHOLD)
    engine = engine_cls(
        crashing_pipeline(benchmark, shape), workers=1, queue_capacity=8, **kwargs
    )
    if shape == "livedata":
        engine.attach_livedata(EpochRegistry())
    return engine


def serve_one(engine, example):
    """Serve one request to completion on either engine."""
    if isinstance(engine, AsyncServingEngine):
        return asyncio.run(engine.submit_async(example))
    return engine.submit(example, block=True).result()


def committed(journal, count):
    return [journal.committed(seq) for seq in range(count)]


class TestQuarantine:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_repeated_crashes_quarantine_the_question(
        self, tiny_benchmark, kind, shape
    ):
        """The key is ``(db_id, normalized question)`` on every engine,
        whatever tier or catalog epoch joins the result-cache key."""
        example = tiny_benchmark.dev[0]
        with build_engine(tiny_benchmark, kind, shape) as engine:
            for _ in range(THRESHOLD):
                with pytest.raises(PoisonPill):
                    serve_one(engine, example)
            with pytest.raises(QuarantinedError):
                serve_one(engine, example)
            stats = engine.stats()
        key = f"{example.db_id}::{normalize_question(example.question)}"
        assert stats.bulkheads["quarantined"] == {key: THRESHOLD}
        assert stats.failed == THRESHOLD
        assert stats.rejected_bulkhead == 1


class TestFailingLeader:
    REPEATS = 4

    def test_followers_fail_like_their_leader(self, tiny_benchmark, tmp_path):
        """One leader and three followers of a crashing question all fail
        with the leader's journal error; a replay, a fresh recovery and
        the threaded engine serving one at a time all agree."""
        example = tiny_benchmark.dev[0]
        workload = [example] * self.REPEATS
        error = f"PoisonPill: cannot answer {example.question_id}"
        # above the repeat count: no request is refused up front
        threshold = self.REPEATS + 1

        journal = ServingJournal(tmp_path / "async.jsonl")
        with build_engine(
            tiny_benchmark, "async", journal=journal, quarantine_threshold=threshold
        ) as engine:
            results = engine.run(workload)
            stats = engine.stats()
        assert engine.singleflight.coalesced_total == self.REPEATS - 1
        assert results == [None] * self.REPEATS
        assert stats.failed == self.REPEATS
        assert stats.coalesced == 0
        records = committed(journal, self.REPEATS)
        assert [(r["status"], r["error"]) for r in records] == [
            ("failed", error)
        ] * self.REPEATS
        # followers record the same health detail as a failing leader
        assert engine.health.component_status("pipeline")["last_failure"] == (
            f"cannot answer {example.question_id}"
        )

        replayed = recover_run(
            ServingJournal(tmp_path / "async.jsonl"),
            crashing_pipeline(tiny_benchmark),
            workload,
        )
        fresh = recover_run(
            ServingJournal(tmp_path / "fresh.jsonl"),
            crashing_pipeline(tiny_benchmark),
            workload,
        )
        for outcomes in (replayed, fresh):
            assert [(status, result, err) for status, result, _, err in outcomes] == [
                ("failed", None, error)
            ] * self.REPEATS

        threaded_journal = ServingJournal(tmp_path / "threaded.jsonl")
        with build_engine(
            tiny_benchmark,
            "threaded",
            journal=threaded_journal,
            quarantine_threshold=threshold,
        ) as engine:
            for request in workload:
                with pytest.raises(PoisonPill):
                    serve_one(engine, request)
        assert committed(threaded_journal, self.REPEATS) == records
