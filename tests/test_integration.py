"""Cross-module integration tests: the paper's qualitative claims, checked
end-to-end on the BIRD-like benchmark (small stratified subsets so the
whole suite stays fast)."""

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import OpenSearchSQL
from repro.datasets.bird import mini_dev
from repro.evaluation.runner import evaluate_pipeline
from repro.llm.simulated import SimulatedLLM
from repro.llm.skills import GPT_4O, GPT_4O_MINI


@pytest.fixture(scope="module")
def mini(bird_benchmark):
    return mini_dev(bird_benchmark, size=80)


@pytest.fixture(scope="module")
def full_report(bird_benchmark, mini):
    pipeline = OpenSearchSQL(
        bird_benchmark, SimulatedLLM(GPT_4O, seed=0), PipelineConfig(n_candidates=9)
    )
    return evaluate_pipeline(pipeline, mini)


def ablated_report(bird_benchmark, mini, **changes):
    config = PipelineConfig(n_candidates=9).with_(**changes)
    pipeline = OpenSearchSQL(bird_benchmark, SimulatedLLM(GPT_4O, seed=0), config)
    return evaluate_pipeline(pipeline, mini)


SLACK = 3.0  # percentage points of small-sample slack


class TestPaperClaims:
    def test_stage_monotonicity(self, full_report):
        """Table 4 headline: EX_G <= EX_R <= EX for the full pipeline."""
        assert full_report.ex_g <= full_report.ex_r + SLACK
        assert full_report.ex_r <= full_report.ex + SLACK

    def test_accuracy_in_plausible_band(self, full_report):
        """Full-pipeline EX should land in the paper's neighbourhood."""
        assert 55 <= full_report.ex <= 85

    def test_difficulty_gradient(self, full_report):
        breakdown = full_report.ex_by_difficulty()
        assert breakdown["simple"] >= breakdown["challenging"]

    def test_fewshot_ablation_hurts_generation(self, bird_benchmark, mini, full_report):
        report = ablated_report(bird_benchmark, mini, fewshot_style="none")
        assert report.ex_g <= full_report.ex_g + 1

    def test_extraction_ablation_hurts(self, bird_benchmark, mini, full_report):
        report = ablated_report(bird_benchmark, mini, use_extraction=False)
        assert report.ex <= full_report.ex + SLACK
        assert report.ex_g <= full_report.ex_g + 1

    def test_vote_helps(self, bird_benchmark, mini, full_report):
        report = ablated_report(bird_benchmark, mini, use_self_consistency=False)
        assert report.ex <= full_report.ex + 1

    def test_cot_sql_fewshot_beats_plain(self, bird_benchmark, mini, full_report):
        report = ablated_report(bird_benchmark, mini, fewshot_style="query_sql")
        assert report.ex_g <= full_report.ex_g + SLACK

    def test_mini_model_weaker(self, bird_benchmark, mini, full_report):
        pipeline = OpenSearchSQL(
            bird_benchmark,
            SimulatedLLM(GPT_4O_MINI, seed=0),
            PipelineConfig(n_candidates=9),
        )
        report = evaluate_pipeline(pipeline, mini)
        assert report.ex < full_report.ex


class TestSpiderGeneralization:
    def test_spider_scores_higher_than_bird(self, bird_benchmark, spider_benchmark):
        """Table 3's implicit claim: the same default configuration scores
        higher on Spider-profile data."""
        config = PipelineConfig(n_candidates=9)
        bird_pipe = OpenSearchSQL(bird_benchmark, SimulatedLLM(GPT_4O, seed=0), config)
        spider_pipe = OpenSearchSQL(
            spider_benchmark, SimulatedLLM(GPT_4O, seed=0), config
        )
        # Full splits on both sides: the gap is a several-point effect and
        # needs the large samples.
        bird_report = evaluate_pipeline(bird_pipe, bird_benchmark.dev)
        spider_report = evaluate_pipeline(
            spider_pipe, spider_benchmark.dev + spider_benchmark.test
        )
        assert spider_report.ex > bird_report.ex


class TestReproducibility:
    def test_identical_runs_identical_reports(self, bird_benchmark, mini):
        def run():
            pipeline = OpenSearchSQL(
                bird_benchmark,
                SimulatedLLM(GPT_4O, seed=0),
                PipelineConfig(n_candidates=5),
            )
            report = evaluate_pipeline(pipeline, mini[:30])
            return [s.correct for s in report.scores]

        assert run() == run()

    def test_fresh_pipelines_pick_identical_final_sql(
        self, bird_benchmark, bird_dev_run
    ):
        """The vote breaks ties by SQLite step count, never by wall time,
        so a second pipeline elects the same SQL text on every question."""
        results, _calls = bird_dev_run
        twin = OpenSearchSQL(bird_benchmark, SimulatedLLM(GPT_4O, seed=0))
        differing = [
            result.question_id
            for result, example in zip(results, bird_benchmark.dev)
            if twin.answer(example).final_sql != result.final_sql
        ]
        assert len(results) == len(bird_benchmark.dev)
        assert differing == []

    def test_hnsw_config_close_to_flat(self, bird_benchmark, mini):
        flat = ablated_report(bird_benchmark, mini[:40])
        pipeline = OpenSearchSQL(
            bird_benchmark,
            SimulatedLLM(GPT_4O, seed=0),
            PipelineConfig(n_candidates=9, vector_index="hnsw"),
        )
        hnsw = evaluate_pipeline(pipeline, mini[:40])
        assert abs(hnsw.ex - flat.ex) <= 10
