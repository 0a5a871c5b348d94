"""ServingJournal: durability grammar, torn-line tolerance, exact recovery.

The unit tests drive the journal with bare stand-in examples; the
recovery tests run a real engine over the tiny benchmark, chop the
journal mid-file (simulating a SIGKILL), and certify that recovery
produces the byte-identical deterministic report of an uninterrupted run
with no double-counted costs.
"""

import json
from types import SimpleNamespace

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import OpenSearchSQL
from repro.llm.simulated import SimulatedLLM
from repro.llm.skills import GPT_4O
from repro.evaluation import assemble_report
from repro.serving import ServingEngine, ServingJournal, recover_run


def example(question_id="q1", db_id="db_a"):
    return SimpleNamespace(question_id=question_id, db_id=db_id)


class TestJournalGrammar:
    def test_accept_assigns_monotone_seqs(self, tmp_path):
        journal = ServingJournal(tmp_path / "j.jsonl")
        assert journal.accept(example("q1")) == 0
        assert journal.accept(example("q2")) == 1
        assert journal.pending() == [0, 1]

    def test_commit_clears_pending(self, tmp_path):
        journal = ServingJournal(tmp_path / "j.jsonl")
        seq = journal.accept(example())
        journal.commit(seq, "failed", error="boom")
        assert journal.pending() == []
        assert journal.committed(seq)["error"] == "boom"

    def test_reload_restores_state(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = ServingJournal(path)
        journal.write_header({"requests": 4})
        journal.accept(example("q1"))
        journal.accept(example("q2"))
        journal.commit(0, "failed", error="x")
        reloaded = ServingJournal(path)
        assert reloaded.config == {"requests": 4}
        assert reloaded.pending() == [1]
        assert reloaded.accept(example("q3")) == 2

    def test_header_is_idempotent(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = ServingJournal(path)
        journal.write_header({"a": 1})
        journal.write_header({"a": 2})
        assert ServingJournal(path).config == {"a": 1}

    def test_torn_line_in_the_middle_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = ServingJournal(path)
        journal.accept(example("q1"))
        journal.commit(0, "failed", error="x")
        journal.accept(example("q2"))
        journal.commit(1, "failed", error="y")
        lines = path.read_text().splitlines()
        # tear the FIRST commit line in half: a mid-file torn write
        lines[1] = lines[1][: len(lines[1]) // 2]
        path.write_text("\n".join(lines) + "\n")
        reloaded = ServingJournal(path)
        # seq 0's commit is gone → pending again; seq 1 survives intact
        assert reloaded.pending() == [0]
        assert reloaded.committed(1)["error"] == "y"

    def test_fsync_every_n_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ServingJournal(tmp_path / "j.jsonl", fsync_every_n=-1)

    def test_on_commit_hook_sees_cumulative_count(self, tmp_path):
        seen = []
        journal = ServingJournal(tmp_path / "j.jsonl", on_commit=seen.append)
        journal.accept(example("q1"))
        journal.accept(example("q2"))
        journal.commit(0, "failed", error="x")
        journal.commit(1, "failed", error="y")
        assert seen == [1, 2]

    def test_stats_dict(self, tmp_path):
        journal = ServingJournal(tmp_path / "j.jsonl")
        journal.accept(example("q1"))
        journal.accept(example("q2"))
        journal.commit(0, "failed", error="x")
        stats = journal.stats_dict()
        assert stats["accepted"] == 2
        assert stats["committed"] == 1
        assert stats["pending"] == 1


class CountingPipeline:
    """Delegates to the real pipeline, counting answer() calls."""

    def __init__(self, inner):
        self._inner = inner
        self.answers = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def answer(self, example, deadline=None, **kwargs):
        self.answers += 1
        return self._inner.answer(example, deadline=deadline, **kwargs)


@pytest.fixture
def journal_workload(tiny_benchmark):
    dev = tiny_benchmark.dev
    # 5 requests with one duplicate: exercises ok, cached and warm-cache
    # paths through the journal
    return [dev[0], dev[1], dev[0], dev[2], dev[1]]


def fresh_pipeline(tiny_benchmark):
    llm = SimulatedLLM(GPT_4O, seed=0)
    return OpenSearchSQL(tiny_benchmark, llm, PipelineConfig(n_candidates=3))


def run_journaled(tiny_benchmark, workload, path):
    pipeline = fresh_pipeline(tiny_benchmark)
    journal = ServingJournal(path)
    journal.write_header({"requests": len(workload)})
    with ServingEngine(pipeline, workers=1, journal=journal) as engine:
        results = engine.run(workload)
    return results, journal


class TestRecovery:
    def test_complete_journal_replays_without_running(
        self, tiny_benchmark, journal_workload, tmp_path
    ):
        _, journal = run_journaled(
            tiny_benchmark, journal_workload, tmp_path / "full.jsonl"
        )
        counting = CountingPipeline(fresh_pipeline(tiny_benchmark))
        outcomes = recover_run(journal, counting, journal_workload)
        assert counting.answers == 0
        assert [status for status, *_ in outcomes] == [
            "ok", "ok", "cached", "ok", "cached",
        ]

    def test_killed_run_recovers_byte_identical(
        self, tiny_benchmark, journal_workload, tmp_path
    ):
        full_path = tmp_path / "full.jsonl"
        run_journaled(tiny_benchmark, journal_workload, full_path)
        full_journal = ServingJournal(full_path)
        full_report = assemble_report(
            recover_run(full_journal, fresh_pipeline(tiny_benchmark),
                        journal_workload),
            journal_workload,
            tiny_benchmark,
        )

        # simulate a SIGKILL: keep a prefix of the journal plus a torn line
        lines = full_path.read_text().splitlines()
        killed_path = tmp_path / "killed.jsonl"
        killed_path.write_text(
            "\n".join(lines[:4]) + "\n" + lines[4][: len(lines[4]) // 2]
        )
        killed_journal = ServingJournal(killed_path)
        assert killed_journal.pending()  # something really was lost
        recovered_report = assemble_report(
            recover_run(killed_journal, fresh_pipeline(tiny_benchmark),
                        journal_workload),
            journal_workload,
            tiny_benchmark,
        )

        assert json.dumps(full_report.deterministic_dict(), sort_keys=True) == \
            json.dumps(recovered_report.deterministic_dict(), sort_keys=True)

    def test_no_double_counted_costs(
        self, tiny_benchmark, journal_workload, tmp_path
    ):
        full_path = tmp_path / "full.jsonl"
        run_journaled(tiny_benchmark, journal_workload, full_path)
        lines = full_path.read_text().splitlines()
        killed_path = tmp_path / "killed.jsonl"
        killed_path.write_text("\n".join(lines[:5]) + "\n")
        killed_journal = ServingJournal(killed_path)
        recovered = assemble_report(
            recover_run(killed_journal, fresh_pipeline(tiny_benchmark),
                        journal_workload),
            journal_workload,
            tiny_benchmark,
        )
        baseline = assemble_report(
            recover_run(ServingJournal(full_path),
                        fresh_pipeline(tiny_benchmark), journal_workload),
            journal_workload,
            tiny_benchmark,
        )
        assert recovered.cost.total_tokens == baseline.cost.total_tokens
        assert recovered.cost.total_model_seconds == pytest.approx(
            baseline.cost.total_model_seconds
        )

    def test_recovery_is_idempotent(
        self, tiny_benchmark, journal_workload, tmp_path
    ):
        full_path = tmp_path / "full.jsonl"
        run_journaled(tiny_benchmark, journal_workload, full_path)
        lines = full_path.read_text().splitlines()
        killed_path = tmp_path / "killed.jsonl"
        killed_path.write_text("\n".join(lines[:4]) + "\n")
        journal = ServingJournal(killed_path)
        recover_run(journal, fresh_pipeline(tiny_benchmark), journal_workload)
        counting = CountingPipeline(fresh_pipeline(tiny_benchmark))
        recover_run(ServingJournal(killed_path), counting, journal_workload)
        assert counting.answers == 0


class TestEngineIntegration:
    def test_engine_journals_every_request(
        self, tiny_benchmark, journal_workload, tmp_path
    ):
        results, journal = run_journaled(
            tiny_benchmark, journal_workload, tmp_path / "j.jsonl"
        )
        assert all(result is not None for result in results)
        assert len(journal) == len(journal_workload)
        assert journal.pending() == []
        statuses = [
            journal.committed(seq)["status"]
            for seq in range(len(journal_workload))
        ]
        assert statuses == ["ok", "ok", "cached", "ok", "cached"]

    def test_failed_requests_commit_as_failed(self, tiny_benchmark, tmp_path):
        class ExplodingPipeline:
            llm = SimulatedLLM(GPT_4O, seed=0)
            extractor = None
            library = None
            executor_wrapper = None

            def answer(self, example, deadline=None):
                raise RuntimeError("boom")

        journal = ServingJournal(tmp_path / "j.jsonl")
        dev = tiny_benchmark.dev
        engine = ServingEngine(
            ExplodingPipeline(),
            workers=1,
            extraction_cache_size=0,
            fewshot_cache_size=0,
            journal=journal,
        )
        with engine:
            engine.run(dev[:2])
        assert journal.committed(0)["status"] == "failed"
        assert "boom" in journal.committed(0)["error"]
