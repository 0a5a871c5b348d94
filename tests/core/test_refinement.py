"""Refinement stage tests: alignment passthrough, correction, and the
self-consistency vote (paper Eq. 3)."""

import pytest

from repro.core.config import PipelineConfig
from repro.core.refinement import RefinedCandidate, Refiner, vote
from repro.execution.executor import ExecutionOutcome, ExecutionStatus


def candidate(sql, rows, status=ExecutionStatus.OK, elapsed=0.01, steps=0):
    return RefinedCandidate(
        raw_sql=sql,
        aligned_sql=sql,
        final_sql=sql,
        outcome=ExecutionOutcome(
            status=status, rows=rows, elapsed_seconds=elapsed, steps=steps
        ),
    )


class TestVote:
    def test_majority_wins(self):
        winner = vote(
            [
                candidate("a", ((1,),)),
                candidate("b", ((2,),)),
                candidate("c", ((1,),)),
            ]
        )
        assert winner.final_sql in ("a", "c")

    def test_errors_excluded(self):
        winner = vote(
            [
                candidate("bad", (), status=ExecutionStatus.SYNTAX_ERROR),
                candidate("bad2", (), status=ExecutionStatus.SYNTAX_ERROR),
                candidate("good", ((5,),)),
            ]
        )
        assert winner.final_sql == "good"

    def test_empty_excluded(self):
        winner = vote(
            [
                candidate("empty", (), status=ExecutionStatus.EMPTY),
                candidate("good", ((5,),)),
            ]
        )
        assert winner.final_sql == "good"

    def test_all_invalid_returns_none(self):
        assert vote([candidate("e", (), status=ExecutionStatus.EMPTY)]) is None

    def test_tie_break_shortest_time(self):
        # Execution time is the deterministic step count; the wall-clock
        # elapsed time (here pointing the other way) is not consulted.
        winner = vote(
            [
                candidate("slow", ((1,),), elapsed=0.001, steps=500),
                candidate("fast", ((1,),), elapsed=0.5, steps=2),
                candidate("other", ((2,),), elapsed=0.0001, steps=0),
            ]
        )
        assert winner.final_sql == "fast"
        # equal steps: the first candidate in order wins
        winner = vote(
            [
                candidate("first", ((1,),), elapsed=0.5, steps=3),
                candidate("second", ((1,),), elapsed=0.001, steps=3),
            ]
        )
        assert winner.final_sql == "first"

    def test_row_order_insensitive_grouping(self):
        winner = vote(
            [
                candidate("a", ((1,), (2,))),
                candidate("b", ((2,), (1,))),
                candidate("c", ((3,),)),
            ]
        )
        assert winner.final_sql in ("a", "b")

    def test_single_candidate(self):
        assert vote([candidate("only", ((1,),))]).final_sql == "only"


@pytest.fixture(scope="module")
def refine_setup(tiny_benchmark, llm):
    from repro.core.extraction import Extractor
    from repro.core.preprocessing import Preprocessor

    config = PipelineConfig(n_candidates=3)
    databases, _library = Preprocessor(llm, config).preprocess_benchmark(
        tiny_benchmark
    )
    example = next(
        e for e in tiny_benchmark.dev if e.db_id == "healthcare"
    )
    pre = databases["healthcare"]
    extraction = Extractor(llm, config).run(example, pre)
    executor = tiny_benchmark.database("healthcare").executor()
    return config, example, pre, extraction, executor


class TestRefinerRun:
    def test_gold_sql_passes_through(self, refine_setup, llm):
        config, example, pre, extraction, executor = refine_setup
        refiner = Refiner(llm, config)
        result = refiner.run(
            example, [example.gold_sql], pre, extraction, executor
        )
        outcome = executor.execute(result.final_sql)
        gold = executor.execute(example.gold_sql)
        assert outcome.rows == gold.rows

    def test_dirty_value_aligned(self, refine_setup, llm, tiny_benchmark):
        config, example, pre, extraction, executor = refine_setup
        refiner = Refiner(llm, config)
        bad = (
            "SELECT COUNT(*) FROM Patient WHERE Patient.Diagnosis = 'behcet'"
        )
        result = refiner.run(example, [bad], pre, extraction, executor)
        assert "'BEHCET'" in result.final_sql

    def test_alignments_off_leaves_sql(self, refine_setup, llm):
        config, example, pre, extraction, executor = refine_setup
        refiner = Refiner(
            llm, config.with_(use_alignments=False, use_correction=False)
        )
        bad = "SELECT COUNT(*) FROM Patient WHERE Patient.Diagnosis = 'behcet'"
        result = refiner.run(example, [bad], pre, extraction, executor)
        assert result.candidates[0].aligned_sql == bad

    def test_unparseable_sql_survives_alignment(self, refine_setup, llm):
        config, example, pre, extraction, executor = refine_setup
        refiner = Refiner(llm, config)
        broken = "SELECT SELECT COUNT(*) FROM Patient"
        result = refiner.run(example, [broken], pre, extraction, executor)
        assert result.candidates  # no crash

    def test_first_refined_sql_is_candidate_zero(self, refine_setup, llm):
        config, example, pre, extraction, executor = refine_setup
        refiner = Refiner(llm, config)
        sqls = [example.gold_sql, "SELECT 1"]
        result = refiner.run(example, sqls, pre, extraction, executor)
        assert result.first_refined_sql == result.candidates[0].final_sql

    def test_vote_disabled_picks_first(self, refine_setup, llm):
        config, example, pre, extraction, executor = refine_setup
        refiner = Refiner(llm, config.with_(use_self_consistency=False))
        sqls = ["SELECT COUNT(*) FROM Patient", example.gold_sql]
        result = refiner.run(example, sqls, pre, extraction, executor)
        assert result.final_sql == result.candidates[0].final_sql

    def test_correction_attempted_on_error(self, refine_setup, llm):
        config, example, pre, extraction, executor = refine_setup
        refiner = Refiner(llm, config)
        # A fixable error: YEAR() is not a SQLite function.
        bad = "SELECT COUNT(*) FROM Patient WHERE YEAR(Patient.Birthday) >= 1990"
        result = refiner.run(example, [bad] * 4, pre, extraction, executor)
        assert any(c.corrected for c in result.candidates) or all(
            c.outcome.status.is_error for c in result.candidates
        )
