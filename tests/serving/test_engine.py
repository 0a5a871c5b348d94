"""ServingEngine + AdmissionController behaviour tests.

The admission tests drive the controller directly (no pipeline); the
engine tests wrap the session-scoped tiny pipeline.  Engines mutate the
pipeline they wrap (cache wrappers on extractor/library), so every engine
test builds its own pipeline.
"""

import threading

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import OpenSearchSQL
from repro.llm.simulated import SimulatedLLM
from repro.llm.skills import GPT_4O
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.faults import BudgetExceededError, CircuitOpenError
from repro.serving import AdmissionController, QueueFullError, ServingEngine


@pytest.fixture
def fresh_pipeline(tiny_benchmark):
    llm = SimulatedLLM(GPT_4O, seed=0)
    return OpenSearchSQL(tiny_benchmark, llm, PipelineConfig(n_candidates=3))


class TestAdmissionController:
    def test_sheds_at_capacity_without_block(self):
        controller = AdmissionController(capacity=2)
        controller.admit()
        controller.admit()
        with pytest.raises(QueueFullError):
            controller.admit()
        assert controller.shed == 1
        assert controller.admitted == 2
        assert controller.submitted == 3

    def test_release_frees_a_slot(self):
        controller = AdmissionController(capacity=1)
        controller.admit()
        controller.release()
        controller.admit()  # no raise
        assert controller.admitted == 2

    def test_blocking_admit_waits_for_release(self):
        controller = AdmissionController(capacity=1)
        controller.admit()
        admitted = threading.Event()

        def late_admit():
            controller.admit(block=True)
            admitted.set()

        thread = threading.Thread(target=late_admit)
        thread.start()
        assert not admitted.wait(0.05)
        controller.release()
        assert admitted.wait(2.0)
        thread.join()

    def test_blocking_admit_times_out(self):
        controller = AdmissionController(capacity=1)
        controller.admit()
        with pytest.raises(QueueFullError):
            controller.admit(block=True, timeout=0.01)

    def test_open_breaker_rejects(self):
        breaker = CircuitBreaker(failure_threshold=1)
        controller = AdmissionController(capacity=4, breaker=breaker)
        breaker.record_failure()
        with pytest.raises(CircuitOpenError):
            controller.admit()
        assert controller.rejected_open == 1

    def test_budget_rejects_after_max_requests(self):
        controller = AdmissionController(capacity=4, max_requests=2)
        controller.admit()
        controller.admit()
        with pytest.raises(BudgetExceededError):
            controller.admit()
        assert controller.rejected_budget == 1
        # zeroing the counts does not re-arm the spent budget
        controller.reset_counts()
        with pytest.raises(BudgetExceededError):
            controller.admit()
        assert (controller.submitted, controller.admitted) == (1, 0)
        assert controller.rejected_budget == 1

    def test_release_without_admit_raises(self):
        controller = AdmissionController(capacity=1)
        with pytest.raises(RuntimeError):
            controller.release()

    def test_to_dict_shape(self):
        payload = AdmissionController(capacity=3).to_dict()
        assert payload["capacity"] == 3
        assert payload["breaker_state"] == "closed"


class TestServingEngine:
    def test_results_match_serial_pipeline(self, fresh_pipeline, tiny_benchmark):
        examples = tiny_benchmark.dev[:6]
        serial_pipeline = OpenSearchSQL(
            tiny_benchmark, SimulatedLLM(GPT_4O, seed=0), PipelineConfig(n_candidates=3)
        )
        expected = [serial_pipeline.answer(e) for e in examples]
        with ServingEngine(fresh_pipeline, workers=4, queue_capacity=8) as engine:
            results = engine.run(examples)
        # The vote's tie-break uses measured execution time (paper Eq. 3),
        # so the winning SQL *text* within a result-equivalent bucket may
        # vary with load; the execution result — what EX scores — must not.
        for example, got, want in zip(examples, results, expected):
            executor = serial_pipeline.executor(example.db_id)
            got_rows = sorted(map(str, executor.execute(got.final_sql).rows))
            want_rows = sorted(map(str, executor.execute(want.final_sql).rows))
            assert got_rows == want_rows, example.question_id

    def test_result_cache_hit_skips_pipeline(self, fresh_pipeline, tiny_benchmark):
        example = tiny_benchmark.dev[0]
        with ServingEngine(fresh_pipeline, workers=1) as engine:
            first = engine.answer(example)
            second = engine.answer(example)
            stats = engine.stats()
        assert second is first  # the cached object itself
        assert stats.result_hits == 1
        assert stats.cache_tiers["result"]["hits"] == 1
        assert stats.cache_tiers["result"]["misses"] == 1

    def test_normalized_question_shares_entry(self, fresh_pipeline, tiny_benchmark):
        from dataclasses import replace

        example = tiny_benchmark.dev[0]
        retyped = replace(
            example, question="  " + example.question.rstrip(" ?.") + "  ?"
        )
        with ServingEngine(fresh_pipeline, workers=1) as engine:
            engine.answer(example)
            engine.answer(retyped)
            assert engine.stats().result_hits == 1

    def test_invalidate_db_forces_recompute(self, fresh_pipeline, tiny_benchmark):
        example = tiny_benchmark.dev[0]
        with ServingEngine(fresh_pipeline, workers=1) as engine:
            engine.answer(example)
            dropped = engine.invalidate_db(example.db_id)
            assert dropped["result"] == 1
            engine.answer(example)
            stats = engine.stats()
        assert stats.result_hits == 0
        assert stats.cache_tiers["result"]["invalidations"] >= 1

    def test_invalidate_other_db_keeps_entry(self, fresh_pipeline, tiny_benchmark):
        example = tiny_benchmark.dev[0]
        with ServingEngine(fresh_pipeline, workers=1) as engine:
            engine.answer(example)
            dropped = engine.invalidate_db("some_other_db")
            assert dropped["result"] == 0
            engine.answer(example)
            assert engine.stats().result_hits == 1

    def test_open_loop_sheds_over_capacity(self, fresh_pipeline, tiny_benchmark):
        # 1 worker, capacity 1: burst-submitting the whole dev split must
        # shed most of it.
        examples = tiny_benchmark.dev[:6]
        with ServingEngine(
            fresh_pipeline, workers=1, queue_capacity=1
        ) as engine:
            results = engine.run(examples, block=False)
            stats = engine.stats()
        served = [r for r in results if r is not None]
        assert stats.shed >= 1
        assert stats.shed == len(examples) - len(served)
        assert stats.submitted == len(examples)

    def test_budget_rejections_counted(self, fresh_pipeline, tiny_benchmark):
        examples = tiny_benchmark.dev[:5]
        with ServingEngine(
            fresh_pipeline, workers=2, queue_capacity=8, max_requests=2
        ) as engine:
            results = engine.run(examples)
            stats = engine.stats()
        assert sum(1 for r in results if r is not None) == 2
        assert stats.rejected_budget == 3

    def test_breaker_opens_on_failures(self, tiny_benchmark):
        class ExplodingPipeline:
            def __init__(self, inner):
                self.inner = inner

            def answer(self, example):
                raise RuntimeError("boom")

            def __getattr__(self, name):
                return getattr(self.inner, name)

        inner = OpenSearchSQL(
            tiny_benchmark, SimulatedLLM(GPT_4O, seed=0), PipelineConfig(n_candidates=3)
        )
        breaker = CircuitBreaker(failure_threshold=2)
        # queue_capacity=1 paces submission behind execution, so the
        # breaker's state is settled before each admit decision.
        with ServingEngine(
            ExplodingPipeline(inner),
            workers=1,
            queue_capacity=1,
            extraction_cache_size=0,
            fewshot_cache_size=0,
            breaker=breaker,
        ) as engine:
            results = engine.run(tiny_benchmark.dev[:5])
            stats = engine.stats()
        assert all(r is None for r in results)
        # Exact admit counts depend on submit/worker interleaving (the
        # breaker check precedes the capacity wait), but the invariants
        # hold: the threshold was reached, the circuit opened, and every
        # request either failed or was rejected at the gate.
        assert stats.failed >= 2
        assert stats.rejected_open >= 1
        assert stats.failed + stats.rejected_open == 5
        assert stats.completed == 0
        assert stats.breaker_state == "open"

    def test_latency_and_throughput_accounting(self, fresh_pipeline, tiny_benchmark):
        examples = tiny_benchmark.dev[:4]
        with ServingEngine(fresh_pipeline, workers=2, queue_capacity=8) as engine:
            engine.run(examples)
            stats = engine.stats()
        assert stats.completed == 4
        assert stats.latency.count == 4
        # Simulated decode latency dominates: seconds, not microseconds.
        assert stats.latency.p50 > 1.0
        assert stats.makespan_seconds > 0
        assert stats.throughput_rps > 0
        payload = stats.to_dict()
        assert payload["completed"] == 4
        assert set(payload["cache_tiers"]) == {"result", "extraction", "fewshot"}
        assert "p95" in payload["latency"]

    def test_reset_stats_clears_accounting(self, fresh_pipeline, tiny_benchmark):
        example = tiny_benchmark.dev[0]
        with ServingEngine(fresh_pipeline, workers=1) as engine:
            engine.answer(example)
            engine.reset_stats()
            stats = engine.stats()
            assert stats.completed == 0
            assert stats.cache_tiers["result"]["misses"] == 0
            # The cache *contents* survive a stats reset: next call hits.
            engine.answer(example)
            assert engine.stats().result_hits == 1

    def test_disabled_tiers(self, fresh_pipeline, tiny_benchmark):
        example = tiny_benchmark.dev[0]
        with ServingEngine(
            fresh_pipeline,
            workers=1,
            result_cache_size=0,
            extraction_cache_size=0,
            fewshot_cache_size=0,
        ) as engine:
            first = engine.answer(example)
            second = engine.answer(example)
            stats = engine.stats()
        assert stats.result_hits == 0
        assert first is not second
        assert first.final_sql == second.final_sql  # still deterministic

    def test_ttl_expires_result_entries(self, fresh_pipeline, tiny_benchmark):
        example = tiny_benchmark.dev[0]
        engine = ServingEngine(fresh_pipeline, workers=1, result_cache_ttl=60.0)
        clock = {"now": 0.0}
        engine.result_cache._clock = lambda: clock["now"]
        with engine:
            engine.answer(example)
            clock["now"] = 30.0
            engine.answer(example)
            assert engine.stats().result_hits == 1
            clock["now"] = 120.0
            engine.answer(example)
            stats = engine.stats()
        assert stats.result_hits == 1
        assert stats.cache_tiers["result"]["expirations"] == 1

    def test_submit_after_shutdown_raises(self, fresh_pipeline, tiny_benchmark):
        engine = ServingEngine(fresh_pipeline, workers=1)
        engine.shutdown()
        with pytest.raises(RuntimeError):
            engine.submit(tiny_benchmark.dev[0])

    def test_rejects_zero_workers(self, fresh_pipeline):
        with pytest.raises(ValueError):
            ServingEngine(fresh_pipeline, workers=0)


class TestCachingFewShotLibrary:
    """The few-shot tier's key must normalize the question exactly like
    the result tier: retrieval embeds case-folded masked text, so retyped
    variants must share one cache entry."""

    class _CountingLibrary:
        def __init__(self):
            self.calls = 0

        def search(self, question, surfaces=(), k=5, db_id=None):
            self.calls += 1
            return [f"shot-for:{question}"]

        def add(self, entry):
            pass

    def test_retyped_question_hits_the_same_entry(self):
        from repro.caching import LRUCache
        from repro.serving import CachingFewShotLibrary

        inner = self._CountingLibrary()
        library = CachingFewShotLibrary(inner, LRUCache(16))
        first = library.search("How many  heads are there?", k=3)
        second = library.search("how many heads are there", k=3)
        assert second is first
        assert inner.calls == 1

    def test_different_k_surfaces_or_db_stay_distinct(self):
        from repro.caching import LRUCache
        from repro.serving import CachingFewShotLibrary

        inner = self._CountingLibrary()
        library = CachingFewShotLibrary(inner, LRUCache(16))
        library.search("q", k=3)
        library.search("q", k=5)
        library.search("q", k=3, surfaces=("x",))
        library.search("q", k=3, db_id="other")
        assert inner.calls == 4
