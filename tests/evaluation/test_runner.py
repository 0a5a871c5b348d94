"""Evaluation runner and report formatting tests."""

import pytest

from repro.caching import GoldResultCache
from repro.core.config import PipelineConfig
from repro.core.pipeline import OpenSearchSQL
from repro.execution.chaos import DbFaultPlan, FaultInjectingExecutor
from repro.llm.simulated import SimulatedLLM
from repro.llm.skills import GPT_4O
from repro.reliability.stats import ReliabilityStats
from repro.evaluation.report import format_table
from repro.evaluation.runner import evaluate_pipeline, evaluate_system


class TestEvaluatePipeline:
    def test_report_populated(self, tiny_pipeline, tiny_benchmark):
        report = evaluate_pipeline(tiny_pipeline, tiny_benchmark.dev[:6])
        assert report.count == 6
        assert len(report.generation_scores) == 6
        assert len(report.refined_scores) == 6
        assert 0 <= report.ex <= 100
        assert 0 <= report.r_ves <= 125

    def test_stage_monotonicity_weak(self, tiny_pipeline, tiny_benchmark):
        """EX_R >= EX_G should hold in aggregate (refinement only fixes)."""
        report = evaluate_pipeline(tiny_pipeline, tiny_benchmark.dev)
        assert report.ex_r >= report.ex_g - 5  # small-sample slack

    def test_difficulty_breakdown(self, tiny_pipeline, tiny_benchmark):
        report = evaluate_pipeline(tiny_pipeline, tiny_benchmark.dev)
        breakdown = report.ex_by_difficulty()
        assert breakdown
        assert all(0 <= v <= 100 for v in breakdown.values())

    def test_cost_merged(self, tiny_pipeline, tiny_benchmark):
        report = evaluate_pipeline(tiny_pipeline, tiny_benchmark.dev[:3])
        assert report.cost.stage("generation").total_tokens > 0

    def test_named_report(self, tiny_pipeline, tiny_benchmark):
        report = evaluate_pipeline(tiny_pipeline, tiny_benchmark.dev[:1], name="x")
        assert report.system == "x"


class TestParallelEvaluation:
    def test_workers_match_serial_scores(self, tiny_pipeline, tiny_benchmark):
        """The tentpole determinism property: thread scheduling must not
        change a single score (per-call hashed seeds + reentrant answer)."""
        examples = tiny_benchmark.dev
        serial = evaluate_pipeline(tiny_pipeline, examples)
        parallel = evaluate_pipeline(tiny_pipeline, examples, workers=4)
        assert parallel.ex == serial.ex
        assert parallel.ex_g == serial.ex_g
        assert parallel.ex_r == serial.ex_r
        assert [s.question_id for s in parallel.scores] == [
            s.question_id for s in serial.scores
        ]
        assert [s.correct for s in parallel.scores] == [
            s.correct for s in serial.scores
        ]
        assert parallel.latencies == serial.latencies

    def test_workers_validated(self, tiny_pipeline, tiny_benchmark):
        with pytest.raises(ValueError):
            evaluate_pipeline(tiny_pipeline, tiny_benchmark.dev[:1], workers=0)

    def test_parallel_checkpoint_resume(self, tiny_pipeline, tiny_benchmark, tmp_path):
        """A parallel run's checkpoint replays to the identical report."""
        path = tmp_path / "ckpt.jsonl"
        examples = tiny_benchmark.dev[:6]
        first = evaluate_pipeline(
            tiny_pipeline, examples, checkpoint_path=path, workers=4
        )
        resumed = evaluate_pipeline(
            tiny_pipeline, examples, checkpoint_path=path, workers=4
        )
        assert resumed.ex == first.ex
        assert [s.correct for s in resumed.scores] == [
            s.correct for s in first.scores
        ]

    def test_shared_gold_cache(self, tiny_pipeline, tiny_benchmark):
        gold = GoldResultCache()
        evaluate_pipeline(tiny_pipeline, tiny_benchmark.dev[:4], gold_cache=gold)
        assert len(gold) == 4
        # A second run over the same split reuses every gold execution.
        evaluate_pipeline(
            tiny_pipeline, tiny_benchmark.dev[:4], workers=2, gold_cache=gold
        )
        assert len(gold) == 4
        assert gold.stats.hits >= 4


class TestScorerIsolation:
    def test_db_chaos_never_reaches_the_scorer(self, tiny_benchmark):
        """Gold SQL runs on the benchmark's own executors: a fault the
        pipeline's chaos wrapper draws can fail a prediction's execution
        but never the gold query that scores it."""
        pipeline = OpenSearchSQL(
            tiny_benchmark, SimulatedLLM(GPT_4O, seed=0),
            PipelineConfig(n_candidates=3),
        )
        faults = ReliabilityStats()
        plan = DbFaultPlan(locked=0.3, slow_query=0.3)
        pipeline.set_executor_wrapper(
            lambda executor, db_id: FaultInjectingExecutor(
                executor, plan, seed=11, stats=faults
            )
        )
        report = evaluate_pipeline(pipeline, tiny_benchmark.dev)
        assert faults.failures > 0, "chaos plan injected nothing"
        assert report.count == len(tiny_benchmark.dev)
        gold_failures = [
            score.question_id
            for score in report.scores
            if (score.error or "").startswith("ValueError: gold SQL failed")
        ]
        assert gold_failures == []


class TestReportLatency:
    def test_latencies_populated(self, tiny_pipeline, tiny_benchmark):
        report = evaluate_pipeline(tiny_pipeline, tiny_benchmark.dev[:4])
        assert len(report.latencies) == 4
        assert all(latency > 0 for latency in report.latencies)
        summary = report.latency_summary()
        assert summary.count == 4
        assert summary.p95 >= summary.p50 > 0

    def test_latency_in_to_dict(self, tiny_pipeline, tiny_benchmark):
        report = evaluate_pipeline(tiny_pipeline, tiny_benchmark.dev[:3])
        payload = report.deterministic_dict()
        assert payload["latency"]["count"] == 3
        assert payload["latency"]["p50"] > 0


class TestEvaluateSystem:
    def test_callable_system(self, tiny_benchmark):
        class Oracle:
            name = "oracle"

            def answer(self, example):
                return example.gold_sql

        report = evaluate_system(Oracle(), tiny_benchmark, tiny_benchmark.dev)
        assert report.ex == 100.0

    def test_broken_system(self, tiny_benchmark):
        class Broken:
            name = "broken"

            def answer(self, example):
                return "SELECT nope FROM ghost"

        report = evaluate_system(Broken(), tiny_benchmark, tiny_benchmark.dev[:4])
        assert report.ex == 0.0


class TestFormatTable:
    def test_alignment(self):
        text = format_table(
            ["Method", "EX"], [["GPT-4", 46.35], ["Ours", 69.3]], title="Table"
        )
        lines = text.splitlines()
        assert lines[0] == "Table"
        assert "Method" in lines[1]
        assert "46.4" in text  # floats formatted to 1 decimal
        assert "-+-" in lines[2]

    def test_no_title(self):
        text = format_table(["A"], [["x"]])
        assert text.splitlines()[0].startswith("A")

    def test_empty_rows(self):
        assert "A" in format_table(["A"], [])
