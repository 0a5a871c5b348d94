"""ServingEngine live-data wiring: stale detection, bounded retry,
epoch-scoped cache keys, and per-database invalidation across tiers."""

import pytest

from repro.caching import result_cache_key
from repro.core.config import PipelineConfig
from repro.core.pipeline import OpenSearchSQL
from repro.datasets.build import build_benchmark
from repro.datasets.domains.healthcare import DOMAIN as HEALTHCARE
from repro.datasets.domains.hockey import DOMAIN as HOCKEY
from repro.livedata.epoch import EpochRegistry
from repro.livedata.errors import StaleCatalogError
from repro.livedata.mutations import MutationDriver
from repro.livedata.reindex import ReindexWorker
from repro.llm.simulated import SimulatedLLM
from repro.llm.skills import GPT_4O
from repro.serving.engine import CachingFewShotLibrary, ServingEngine


@pytest.fixture
def world():
    benchmark = build_benchmark(
        name="tiny",
        domains=[HEALTHCARE, HOCKEY],
        per_template_train=2,
        per_template_dev=1,
        per_template_test=1,
        seed=3,
    )
    pipeline = OpenSearchSQL(
        benchmark, SimulatedLLM(GPT_4O, seed=0), PipelineConfig(n_candidates=3)
    )
    return benchmark, pipeline


def live_engine(pipeline, **kwargs):
    engine = ServingEngine(pipeline, workers=1, queue_capacity=8, **kwargs)
    registry = EpochRegistry()
    engine.attach_livedata(registry)
    return engine, registry


class TestStaleDetection:
    def test_mutation_mid_request_is_detected_and_retried_once(self, world):
        """Bump the epoch between extraction and SQL execution: the
        pre-execute guard turns the race into a typed StaleCatalogError
        and the engine absorbs exactly one retry at the new epoch."""
        benchmark, pipeline = world
        engine, registry = live_engine(pipeline)
        example = benchmark.dev[0]
        bumped = []
        extractor = engine.pipeline.extractor
        original = extractor.inner.run

        def racing_run(*args, **kwargs):
            if not bumped:
                bumped.append(registry.bump(example.db_id))
            return original(*args, **kwargs)

        extractor.inner.run = racing_run
        try:
            with engine:
                result = engine.answer(example)
        finally:
            extractor.inner.run = original
        assert result.final_sql
        assert bumped == [1]
        stats = engine.livedata_stats
        assert stats["stale_detected"] == 1
        assert stats["stale_retried"] == 1
        assert stats["stale_served"] == 0

    def test_livedata_stats_read_the_registry(self, world):
        """The stale and invalidation counts have one home, the engine's
        registry (a private one here: no ``metrics=``)."""
        benchmark, pipeline = world
        engine, registry = live_engine(pipeline)
        example = benchmark.dev[0]
        extractor = engine.pipeline.extractor
        original = extractor.inner.run
        bumped = []

        def racing_run(*args, **kwargs):
            if not bumped:
                bumped.append(registry.bump(example.db_id))
            return original(*args, **kwargs)

        extractor.inner.run = racing_run
        try:
            with engine:
                engine.answer(example)
                engine.invalidate_db(example.db_id)
        finally:
            extractor.inner.run = original
        exported = engine.metrics.snapshot()["metrics"]
        stale = exported["repro_livedata_stale_total"]["samples"]
        invalidations = exported["repro_livedata_invalidations_total"]["samples"]
        assert stale == {"event=detected": 1, "event=retried": 1}
        assert engine.livedata_stats == {
            "stale_detected": stale["event=detected"],
            "stale_retried": stale["event=retried"],
            "stale_served": 0,
            "invalidations": invalidations["_"],
        }
        assert invalidations["_"] == 1

    def test_double_mutation_escapes_as_typed_failure(self, world):
        """The retry budget is one: a catalog that moves again during the
        retry fails the request with StaleCatalogError."""
        benchmark, pipeline = world
        engine, registry = live_engine(pipeline)
        example = benchmark.dev[0]
        extractor = engine.pipeline.extractor
        original = extractor.inner.run

        def always_racing(*args, **kwargs):
            registry.bump(example.db_id)
            return original(*args, **kwargs)

        extractor.inner.run = always_racing
        try:
            with engine:
                with pytest.raises(StaleCatalogError):
                    engine.submit(example, block=True).result()
        finally:
            extractor.inner.run = original
        stats = engine.livedata_stats
        assert stats["stale_detected"] == 2
        assert stats["stale_retried"] == 1

    def test_journal_commits_carry_epoch_stamps(self, world, tmp_path):
        from repro.serving.journal import ServingJournal

        benchmark, pipeline = world
        journal = ServingJournal(tmp_path / "journal.jsonl")
        journal.write_header({"kind": "test"})
        engine, registry = live_engine(pipeline, journal=journal)
        example = benchmark.dev[0]
        with engine:
            engine.answer(example)
            registry.bump(example.db_id)
            engine.invalidate_db(example.db_id)
            engine.answer(example)
        import json

        stamps = [
            record.get("schema_epoch")
            for record in map(
                json.loads, (tmp_path / "journal.jsonl").read_text().splitlines()
            )
            if record.get("type") == "committed"
        ]
        assert stamps == [0, 1]


class TestEpochScopedCaches:
    def test_mutation_invalidates_the_result_tier_by_key(self, world):
        benchmark, pipeline = world
        engine, registry = live_engine(pipeline)
        example = benchmark.dev[0]
        with engine:
            first = engine.answer(example)
            repeat = engine.answer(example)
            registry.bump(example.db_id)
            fresh = engine.answer(example)
        stats = engine.stats()
        # the repeat hit the cache; the post-mutation request could not —
        # its key carries the new epoch
        assert stats.result_hits == 1
        assert repeat is first
        assert fresh is not first

    def test_result_cache_key_includes_the_epoch(self, world):
        benchmark, pipeline = world
        engine, registry = live_engine(pipeline)
        example = benchmark.dev[0]
        before = result_cache_key(example, engine.pipeline)
        registry.bump(example.db_id)
        after = result_cache_key(example, engine.pipeline)
        assert before != after
        engine.shutdown()


class TestInvalidateDb:
    def test_invalidation_drops_exactly_the_mutated_db(self, world):
        benchmark, pipeline = world
        engine, registry = live_engine(pipeline)
        by_db = {}
        for example in benchmark.dev:
            by_db.setdefault(example.db_id, example)
        (db_a, ex_a), (db_b, ex_b) = sorted(by_db.items())[:2]
        with engine:
            engine.answer(ex_a)
            engine.answer(ex_b)
            dropped = engine.invalidate_db(db_a)
            # db_a entries went; db_b survives as a hit
            engine.answer(ex_b)
        assert dropped["result"] >= 1
        assert dropped["extraction"] >= 1
        assert engine.stats().result_hits == 1
        assert engine.livedata_stats["invalidations"] == 1

    def test_fewshot_retrieval_survives_a_mutation(self, world, tmp_path):
        """The few-shot library is a function of the train split, which no
        mutation touches: after each database is mutated, reindexed and
        invalidated, every dev question retrieves the same top-3 shot
        objects, and the few-shot tier keeps every cached retrieval."""
        benchmark, pipeline = world
        engine, registry = live_engine(pipeline)
        library = engine.pipeline.library
        assert isinstance(library, CachingFewShotLibrary)
        driver = MutationDriver(benchmark, registry, seed=0)
        worker = ReindexWorker(pipeline, tmp_path / "ck.jsonl", registry=registry)

        def top3(search):
            return {
                example.question_id: search(
                    example.question,
                    surfaces=tuple(m.surface for m in example.value_mentions),
                    k=3,
                )
                for example in benchmark.dev
            }

        cached = top3(library.search)
        before = top3(library.inner.search)
        entries = len(engine.fewshot_cache)
        assert entries == len(benchmark.dev)
        for db_id in sorted(benchmark.databases):
            event = driver.mutate(db_id)
            worker.reindex(event.db_id, epoch=event.epoch)
            dropped = engine.invalidate_db(event.db_id)
            after = top3(library.inner.search)
            for question_id, shots in before.items():
                assert len(after[question_id]) == len(shots) == 3
                assert all(
                    a is b for a, b in zip(after[question_id], shots)
                ), f"{question_id} moved after mutating {db_id}"
            assert len(engine.fewshot_cache) == entries
            assert sorted(dropped) == ["extraction", "result"]
        hits = top3(library.search)
        assert all(hits[q] is cached[q] for q in cached)
        engine.shutdown()

    def test_mutation_driver_end_to_end_stays_stale_free(self, world):
        benchmark, pipeline = world
        engine, registry = live_engine(pipeline)
        driver = MutationDriver(benchmark, registry, seed=0)
        workload = list(benchmark.dev) * 2
        with engine:
            for position, example in enumerate(workload):
                result = engine.answer(example)
                assert result.final_sql
                if position % 2 == 1:
                    event = driver.mutate()
                    engine.invalidate_db(event.db_id)
        assert engine.livedata_stats["stale_served"] == 0
        assert len(driver.events) == len(workload) // 2
