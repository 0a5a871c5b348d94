"""Evaluation resume on the journal path: the evaluation journal's file
behaviour, per-example error isolation, resume refusals, and the
kill-and-resume == uninterrupted-run guarantee at every power cut."""

from __future__ import annotations

import json

import pytest

from repro.core.cost import CostTracker, decode_cost, encode_cost
from repro.evaluation.runner import (
    ResumeRefusedError,
    evaluate_pipeline,
    evaluate_system,
)
from repro.llm.base import TokenUsage
from repro.serving import JournalCorruptionError, ServingJournal
from repro.serving.spec import RunSpec
from repro.storage.format import encode_record, scan_file


class PipelineProxy:
    """Delegating wrapper so tests can observe/introduce behavior."""

    def __init__(self, inner):
        self._inner = inner
        self.answered = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def answer(self, example, **kwargs):
        self.answered.append(example.question_id)
        return self._inner.answer(example, **kwargs)


class CrashingPipeline(PipelineProxy):
    def __init__(self, inner, crash_ids):
        super().__init__(inner)
        self.crash_ids = set(crash_ids)

    def answer(self, example, **kwargs):
        if example.question_id in self.crash_ids:
            raise RuntimeError("simulated pipeline crash")
        return super().answer(example, **kwargs)


def score_rows(report):
    return [(s.question_id, s.correct, s.predicted_status) for s in report.scores]


def document(report):
    return json.dumps(report.deterministic_dict(), sort_keys=True)


def committed_records(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip() and json.loads(line).get("type") == "committed"
    ]


class TestEncoding:
    def test_error_field_survives(self, rel_pipeline, tiny_benchmark, tmp_path):
        examples = tiny_benchmark.dev[:2]
        path = tmp_path / "run.jsonl"
        crashing = CrashingPipeline(rel_pipeline, [examples[0].question_id])
        first = evaluate_pipeline(crashing, examples, checkpoint_path=path)
        resumed = evaluate_pipeline(rel_pipeline, examples, checkpoint_path=path)
        assert resumed.scores[0].error == first.scores[0].error
        assert resumed.scores[0].error == "RuntimeError: simulated pipeline crash"

    def test_cost_round_trip_is_lossless(self):
        cost = CostTracker()
        stage = cost.stage("generation")
        stage.wall_seconds = 1.23456789
        stage.model_seconds = 0.987
        stage.usage = TokenUsage(123, 45)
        stage.calls = 7
        decoded = decode_cost(encode_cost(cost))
        redecoded = decoded.stage("generation")
        assert redecoded.wall_seconds == 1.23456789
        assert redecoded.usage.prompt_tokens == 123
        assert redecoded.usage.completion_tokens == 45
        assert redecoded.calls == 7


class TestCheckpointFile:
    def test_record_and_reload(self, rel_pipeline, tiny_benchmark, tmp_path,
                               monkeypatch):
        example = tiny_benchmark.dev[0]
        path = tmp_path / "run.jsonl"

        def explode(*args, **kwargs):
            raise RuntimeError("refiner down")

        monkeypatch.setattr(rel_pipeline.refiner, "run", explode)
        report = evaluate_pipeline(rel_pipeline, [example], checkpoint_path=path)
        monkeypatch.undo()
        reloaded = ServingJournal(path)
        assert reloaded.config == {"evaluation": True}
        assert len(reloaded) == 1
        result, cost = ServingJournal.decode_result(reloaded.committed(0))
        assert result.question_id == example.question_id
        assert [e.kind.value for e in result.degradations] == ["refinement_skipped"]
        assert cost.total_tokens == report.cost.total_tokens

    def test_creates_parent_directories(self, rel_pipeline, tiny_benchmark,
                                        tmp_path):
        path = tmp_path / "deep" / "nested" / "run.jsonl"
        evaluate_pipeline(rel_pipeline, tiny_benchmark.dev[:1], checkpoint_path=path)
        assert path.exists()

    def test_torn_tail_line_skipped(self, rel_pipeline, tiny_benchmark, tmp_path):
        examples = tiny_benchmark.dev[:3]
        path = tmp_path / "run.jsonl"
        reference = evaluate_pipeline(rel_pipeline, examples, checkpoint_path=path)
        # a kill mid-write leaves the last commit half written
        lines = path.read_text().splitlines()
        last_commit = max(
            i for i, line in enumerate(lines)
            if json.loads(line)["type"] == "committed"
        )
        torn = lines[last_commit][: len(lines[last_commit]) // 2]
        path.write_text("\n".join(lines[:last_commit] + [torn]))
        proxy = PipelineProxy(rel_pipeline)
        resumed = evaluate_pipeline(proxy, examples, checkpoint_path=path)
        # the load truncated the tear, so only that example ran again and
        # its commit is not glued onto the torn bytes and lost
        assert proxy.answered == [examples[2].question_id]
        assert document(resumed) == document(reference)
        assert sorted(r["seq"] for r in committed_records(path)) == [0, 1, 2]

    def test_blank_lines_tolerated(self, rel_pipeline, tiny_benchmark, tmp_path):
        examples = tiny_benchmark.dev[:2]
        path = tmp_path / "run.jsonl"
        reference = evaluate_pipeline(rel_pipeline, examples, checkpoint_path=path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("\n\n")
        proxy = PipelineProxy(rel_pipeline)
        resumed = evaluate_pipeline(proxy, examples, checkpoint_path=path)
        assert proxy.answered == []
        assert document(resumed) == document(reference)

    def test_latest_record_wins(self, rel_pipeline, tiny_benchmark, tmp_path):
        examples = tiny_benchmark.dev[:2]
        path = tmp_path / "run.jsonl"
        evaluate_pipeline(rel_pipeline, examples, checkpoint_path=path)
        ServingJournal(path).commit(0, "failed", error="RuntimeError: second try")
        resumed = evaluate_pipeline(rel_pipeline, examples, checkpoint_path=path)
        assert resumed.scores[0].error == "RuntimeError: second try"
        assert resumed.scores[1].error is None

    def test_lines_are_valid_json_records(self, rel_pipeline, tiny_benchmark,
                                          tmp_path):
        path = tmp_path / "run.jsonl"
        example = tiny_benchmark.dev[0]
        evaluate_pipeline(rel_pipeline, [example], checkpoint_path=path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["type"] for r in records] == [
            "header", "accepted", "committed", "seal",
        ]
        assert records[0]["config"] == {"evaluation": True}
        assert records[1]["question_id"] == example.question_id
        assert all("crc" in record for record in records)

    def test_torn_line_in_the_middle_is_refused(self, rel_pipeline,
                                                tiny_benchmark, tmp_path):
        # damage with intact records after it is not a kill's torn tail:
        # the evaluation journal refuses it with the fsck hint instead of
        # silently re-running (or losing) the damaged example
        path = tmp_path / "run.jsonl"
        evaluate_pipeline(rel_pipeline, tiny_benchmark.dev[:3], checkpoint_path=path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]
        path.write_text("\n".join(lines) + "\n")
        proxy = PipelineProxy(rel_pipeline)
        with pytest.raises(JournalCorruptionError, match="fsck"):
            evaluate_pipeline(proxy, tiny_benchmark.dev[:3], checkpoint_path=path)
        assert proxy.answered == []

    def test_altered_line_fails_its_crc_and_is_refused(
        self, rel_pipeline, tiny_benchmark, tmp_path
    ):
        # a line that still parses but no longer holds the bytes that were
        # written must not replay a wrong cost
        path = tmp_path / "run.jsonl"
        evaluate_pipeline(rel_pipeline, tiny_benchmark.dev[:3], checkpoint_path=path)
        lines = path.read_text().splitlines()
        index = next(
            i for i, line in enumerate(lines)
            if json.loads(line)["type"] == "committed"
        )
        altered = json.loads(lines[index])
        altered["cost"]["generation"]["calls"] += 4
        lines[index] = json.dumps(altered, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptionError, match="crc-mismatch"):
            evaluate_pipeline(
                rel_pipeline, tiny_benchmark.dev[:3], checkpoint_path=path
            )


class TestResumeRefusals:
    def test_parent_format_checkpoint_is_refused(self, rel_pipeline,
                                                 tiny_benchmark, tmp_path):
        # the older checkpoint format: one framed record per example, no
        # header and no record type
        path = tmp_path / "run.jsonl"
        examples = tiny_benchmark.dev[:2]
        path.write_text("".join(
            encode_record({
                "version": 1, "question_id": example.question_id,
                "score": None, "generation_score": None,
                "refined_score": None, "cost": None, "degradations": [],
                "error": None,
            }, rec) + "\n"
            for rec, example in enumerate(examples)
        ))
        before = path.read_bytes()
        proxy = PipelineProxy(rel_pipeline)
        with pytest.raises(ResumeRefusedError, match="not an evaluation journal"):
            evaluate_pipeline(proxy, examples, checkpoint_path=path)
        assert proxy.answered == []
        assert path.read_bytes() == before

    def test_serve_bench_journal_is_refused(self, rel_pipeline, tiny_benchmark,
                                            tmp_path):
        path = tmp_path / "serve.jsonl"
        ServingJournal(path).write_header(RunSpec().to_header())
        proxy = PipelineProxy(rel_pipeline)
        with pytest.raises(ResumeRefusedError) as refusal:
            evaluate_pipeline(proxy, tiny_benchmark.dev[:2], checkpoint_path=path)
        assert "\n" not in str(refusal.value)
        assert proxy.answered == []

    def test_other_workload_is_refused(self, rel_pipeline, tiny_benchmark,
                                       tmp_path):
        path = tmp_path / "run.jsonl"
        dev = tiny_benchmark.dev
        evaluate_pipeline(rel_pipeline, dev[:3], checkpoint_path=path)
        before = path.read_bytes()
        proxy = PipelineProxy(rel_pipeline)
        with pytest.raises(ResumeRefusedError, match="position 0") as refusal:
            evaluate_pipeline(proxy, dev[1:4], checkpoint_path=path)
        assert isinstance(refusal.value, ValueError)
        assert "\n" not in str(refusal.value)
        assert proxy.answered == []
        assert path.read_bytes() == before

    def test_records_past_the_workload_are_ignored(self, rel_pipeline,
                                                   tiny_benchmark, tmp_path):
        path = tmp_path / "run.jsonl"
        dev = tiny_benchmark.dev
        full = evaluate_pipeline(rel_pipeline, dev[:4], checkpoint_path=path)
        proxy = PipelineProxy(rel_pipeline)
        prefix = evaluate_pipeline(proxy, dev[:2], checkpoint_path=path)
        assert proxy.answered == []
        assert score_rows(prefix) == score_rows(full)[:2]


class TestErrorIsolation:
    def test_crashed_example_scores_zero_and_run_continues(
        self, rel_pipeline, tiny_benchmark
    ):
        examples = tiny_benchmark.dev[:4]
        crashing = CrashingPipeline(rel_pipeline, [examples[1].question_id])
        report = evaluate_pipeline(crashing, examples)
        assert report.count == 4
        crashed = report.scores[1]
        assert not crashed.correct
        assert crashed.predicted_status == "crashed"
        assert "simulated pipeline crash" in crashed.error
        assert len(report.errors) == 1
        # the other three examples were evaluated normally
        assert [s.error for s in report.scores].count(None) == 3

    def test_crash_recorded_in_checkpoint(self, rel_pipeline, tiny_benchmark, tmp_path):
        examples = tiny_benchmark.dev[:2]
        path = tmp_path / "run.jsonl"
        crashing = CrashingPipeline(rel_pipeline, [examples[0].question_id])
        evaluate_pipeline(crashing, examples, checkpoint_path=path)
        record = ServingJournal(path).committed(0)
        assert record["status"] == "failed"
        assert "simulated pipeline crash" in record["error"]


class TestSeal:
    def test_examples_the_engine_refused_are_sealed_after_recovery(
        self, rel_pipeline, tiny_benchmark, tmp_path, monkeypatch
    ):
        from repro.serving.admission import AdmissionController, QueueFullError

        def shed(self, block=False, timeout=None):
            raise QueueFullError("request shed")

        # the engine refuses every example and seals at shutdown; the
        # recovery that answers them appends after that seal
        monkeypatch.setattr(AdmissionController, "admit", shed)
        path = tmp_path / "run.jsonl"
        report = evaluate_pipeline(
            rel_pipeline, tiny_benchmark.dev[:2], checkpoint_path=path
        )
        assert report.count == 2 and not report.errors
        scan = scan_file(path)
        assert scan.committed == {0, 1}
        assert scan.sealed


class TestResume:
    def test_kill_and_resume_matches_uninterrupted_run(
        self, rel_pipeline, tiny_benchmark, tmp_path
    ):
        examples = tiny_benchmark.dev[:6]
        path = tmp_path / "run.jsonl"

        uninterrupted = evaluate_pipeline(rel_pipeline, examples, name="ref")

        # "Killed" run: only the first three examples finished.
        partial = evaluate_pipeline(
            rel_pipeline, examples[:3], name="ref", checkpoint_path=path
        )
        resumed = evaluate_pipeline(
            rel_pipeline, examples, name="ref", checkpoint_path=path
        )

        assert document(resumed) == document(uninterrupted)
        # replayed answers score as the killed run scored them
        assert score_rows(resumed)[:3] == score_rows(partial)

    def test_resume_does_not_rerun_finished_examples(
        self, rel_pipeline, tiny_benchmark, tmp_path
    ):
        examples = tiny_benchmark.dev[:4]
        path = tmp_path / "run.jsonl"
        evaluate_pipeline(rel_pipeline, examples[:2], checkpoint_path=path)

        proxy = PipelineProxy(rel_pipeline)
        evaluate_pipeline(proxy, examples, checkpoint_path=path)
        assert proxy.answered == [e.question_id for e in examples[2:]]

    def test_resume_replays_cost_and_degradations(
        self, rel_pipeline, tiny_benchmark, tmp_path, monkeypatch
    ):
        example = tiny_benchmark.dev[0]
        path = tmp_path / "run.jsonl"

        def explode(*args, **kwargs):
            raise RuntimeError("refiner down")

        monkeypatch.setattr(rel_pipeline.refiner, "run", explode)
        first = evaluate_pipeline(rel_pipeline, [example], checkpoint_path=path)
        monkeypatch.undo()

        proxy = PipelineProxy(rel_pipeline)
        resumed = evaluate_pipeline(proxy, [example], checkpoint_path=path)
        assert proxy.answered == []
        assert resumed.degradation_counts() == {"refinement_skipped": 1}
        assert resumed.degradations == first.degradations
        assert resumed.cost.summary() == first.cost.summary()


class TestEveryCut:
    def test_every_power_cut_resumes_to_the_uninterrupted_report(
        self, rel_pipeline, tiny_benchmark, tmp_path, monkeypatch
    ):
        """Cut the evaluation journal after every append, clean and torn,
        and resume each cut: every resumed report equals the uninterrupted
        run's, and every example is committed exactly once."""
        import repro.evaluation.runner as runner
        from repro.storage.crashfuzz import RecordingOpener
        from repro.storage.format import scan_file

        examples = tiny_benchmark.dev[:8]
        reference = tmp_path / "reference.jsonl"
        recording = RecordingOpener()

        class RecordedJournal(ServingJournal):
            def __init__(self, path):
                super().__init__(path, opener=recording)

        monkeypatch.setattr(runner, "ServingJournal", RecordedJournal)
        expected = document(evaluate_pipeline(
            rel_pipeline, examples, name="ref", checkpoint_path=reference
        ))
        monkeypatch.undo()
        data = reference.read_bytes()
        # the header, an accept and a commit per example, and the seal
        assert len(recording.log) == 2 * len(examples) + 2

        cuts = list(recording.cuts())
        assert len(cuts) == 2 * len(recording.log) + 1  # every clean and torn cut
        for cut_id, _kind, lengths in cuts:
            path = tmp_path / f"{cut_id}.jsonl"
            path.write_bytes(data[: lengths.get(reference.name, 0)])
            resumed = evaluate_pipeline(
                rel_pipeline, examples, name="ref", checkpoint_path=path
            )
            assert document(resumed) == expected, cut_id
            scan = scan_file(path)
            assert not scan.issues, cut_id
            committed = sorted(
                record["seq"] for record in scan.parsed
                if record["type"] == "committed"
            )
            assert committed == list(range(len(examples))), cut_id


class TestSystemRunner:
    class GoldSystem:
        name = "gold-echo"

        def __init__(self):
            self.answered = []

        def answer(self, example):
            self.answered.append(example.question_id)
            return example.gold_sql

    class CrashOnFirst(GoldSystem):
        name = "crash-once"

        def answer(self, example):
            if not self.answered:
                self.answered.append(example.question_id)
                raise ValueError("bad system")
            return super().answer(example)

    def test_gold_system_scores_perfectly(self, tiny_benchmark):
        report = evaluate_system(
            self.GoldSystem(), tiny_benchmark, tiny_benchmark.dev[:5]
        )
        assert report.ex == 100.0

    def test_system_crash_isolated(self, tiny_benchmark):
        report = evaluate_system(
            self.CrashOnFirst(), tiny_benchmark, tiny_benchmark.dev[:3]
        )
        assert report.count == 3
        assert len(report.errors) == 1
        assert report.scores[0].predicted_status == "crashed"
