"""End-to-end deadline behaviour: the Deadline primitive, pipeline-stage
containment, refinement truncation, and the serving engine's accounting."""

import pytest

from repro.core.config import PipelineConfig
from repro.core.extraction import ExtractionResult
from repro.core.pipeline import FALLBACK_SQL, OpenSearchSQL
from repro.execution.chaos import DbFaultPlan, FaultInjectingExecutor
from repro.llm.simulated import SimulatedLLM
from repro.llm.skills import GPT_4O
from repro.reliability.deadline import Deadline, DeadlineExceededError
from repro.reliability.degradation import DegradationKind
from repro.serving import ServingEngine


@pytest.fixture
def fresh_pipeline(tiny_benchmark):
    llm = SimulatedLLM(GPT_4O, seed=0)
    return OpenSearchSQL(tiny_benchmark, llm, PipelineConfig(n_candidates=3))


class TestDeadline:
    def test_virtual_time_advances_by_charge(self):
        clock_now = [0.0]
        deadline = Deadline(10.0, clock=lambda: clock_now[0])
        assert not deadline.expired
        deadline.charge(4.0)
        assert deadline.elapsed_seconds == pytest.approx(4.0)
        assert deadline.remaining_seconds == pytest.approx(6.0)
        clock_now[0] = 7.0
        assert deadline.expired  # 4 charged + 7 wall > 10

    def test_meter_feeds_elapsed(self):
        model_seconds = [0.0]
        deadline = Deadline(5.0, clock=lambda: 0.0)
        deadline.attach_meter(lambda: model_seconds[0])
        assert not deadline.expired
        model_seconds[0] = 5.5
        assert deadline.expired
        assert deadline.remaining_seconds == 0.0

    def test_check_raises_typed_error(self):
        deadline = Deadline(1.0, clock=lambda: 0.0)
        deadline.check("generation")  # within budget: no raise
        deadline.charge(2.0)
        with pytest.raises(DeadlineExceededError) as excinfo:
            deadline.check("generation")
        assert excinfo.value.stage == "generation"
        assert excinfo.value.budget_seconds == 1.0

    def test_clamp_caps_suboperation_timeouts(self):
        deadline = Deadline(2.0, clock=lambda: 0.0)
        assert deadline.clamp(5.0) == pytest.approx(2.0)
        assert deadline.clamp(0.5) == pytest.approx(0.5)
        deadline.charge(3.0)
        assert deadline.clamp(5.0) == 0.0

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0.0)

    def test_charge_rejects_negative(self):
        with pytest.raises(ValueError):
            Deadline(1.0).charge(-1.0)


class TestPipelineContainment:
    def test_expired_deadline_degrades_every_stage(self, fresh_pipeline, tiny_benchmark):
        example = tiny_benchmark.dev[0]
        deadline = Deadline(1e-6)
        result = fresh_pipeline.answer(example, deadline=deadline)
        assert result.deadline_exceeded
        stages = [
            e.stage
            for e in result.degradations
            if e.kind is DegradationKind.DEADLINE_EXCEEDED
        ]
        assert stages == ["extraction", "generation", "refinement"]
        assert result.final_sql == FALLBACK_SQL
        # contained, never raised: the result is a degraded answer
        assert result.cost.total_model_seconds == 0.0

    def test_mid_request_exhaustion_skips_later_stages(
        self, fresh_pipeline, tiny_benchmark
    ):
        # A small virtual budget lets extraction start, then its reported
        # model seconds exhaust the budget before generation.
        example = tiny_benchmark.dev[0]
        deadline = Deadline(0.05)
        result = fresh_pipeline.answer(example, deadline=deadline)
        assert result.deadline_exceeded
        kinds = {(e.kind, e.stage) for e in result.degradations}
        assert (DegradationKind.DEADLINE_EXCEEDED, "extraction") not in kinds
        assert (DegradationKind.DEADLINE_EXCEEDED, "generation") in kinds

    def test_generous_deadline_changes_nothing(self, fresh_pipeline, tiny_benchmark):
        example = tiny_benchmark.dev[0]
        clean = fresh_pipeline.answer(example)
        timed = fresh_pipeline.answer(example, deadline=Deadline(1e6))
        assert not timed.deadline_exceeded
        assert timed.final_sql == clean.final_sql


class TestRefinementTruncation:
    def test_slow_executions_truncate_candidate_loop(
        self, fresh_pipeline, tiny_benchmark
    ):
        example = tiny_benchmark.dev[0]
        pre = fresh_pipeline.preprocessed(example.db_id)
        extraction = ExtractionResult(schema=pre.schema, schema_prompt=pre.schema_prompt)
        executor = FaultInjectingExecutor(
            tiny_benchmark.database(example.db_id).executor(),
            DbFaultPlan(slow_query=1.0, slow_seconds=6.0),
        )
        deadline = Deadline(10.0)  # first execution charges 6s; second trips
        # three distinct texts: copies of one text would execute only once
        sqls = [f"{example.gold_sql} LIMIT {k}" for k in (1, 2, 3)]
        result = fresh_pipeline.refiner.run(
            example, sqls, pre, extraction, executor, deadline=deadline
        )
        assert result.truncated
        assert 1 <= len(result.candidates) < 3
        assert result.final_sql  # refined prefix still votes

    def test_answer_records_truncation_event(self, fresh_pipeline, tiny_benchmark):
        example = tiny_benchmark.dev[0]
        fresh_pipeline.set_executor_wrapper(
            lambda executor, db_id: FaultInjectingExecutor(
                executor, DbFaultPlan(slow_query=1.0, slow_seconds=6e5)
            )
        )
        try:
            # the first slow execution (6e5 s) exhausts the budget, so the
            # candidates after it are truncated
            result = fresh_pipeline.answer(example, deadline=Deadline(5e5))
        finally:
            fresh_pipeline.set_executor_wrapper(None)
        events = [
            e
            for e in result.degradations
            if e.kind is DegradationKind.DEADLINE_EXCEEDED and e.stage == "refinement"
        ]
        assert events and "candidates" in events[0].detail


class TestEngineDeadlines:
    def test_deadline_exceeded_counted_not_failed(self, fresh_pipeline, tiny_benchmark):
        engine = ServingEngine(fresh_pipeline, workers=2, deadline_seconds=1e-6)
        workload = tiny_benchmark.dev[:4]
        with engine:
            results = engine.run(workload)
            stats = engine.stats()
        assert all(r is not None for r in results)
        assert stats.failed == 0
        assert stats.deadline_exceeded == len(workload)
        assert stats.to_dict()["deadline_exceeded"] == len(workload)

    def test_degraded_answers_not_cached(self, fresh_pipeline, tiny_benchmark):
        engine = ServingEngine(fresh_pipeline, workers=1, deadline_seconds=1e-6)
        example = tiny_benchmark.dev[0]
        with engine:
            engine.answer(example)
            engine.answer(example)
            stats = engine.stats()
        assert stats.result_hits == 0  # degraded stand-in was not cached

    def test_no_deadline_no_accounting(self, fresh_pipeline, tiny_benchmark):
        engine = ServingEngine(fresh_pipeline, workers=1)
        with engine:
            engine.answer(tiny_benchmark.dev[0])
            stats = engine.stats()
        assert stats.deadline_exceeded == 0

    def test_rejects_nonpositive_deadline(self, fresh_pipeline):
        with pytest.raises(ValueError):
            ServingEngine(fresh_pipeline, deadline_seconds=0.0)
