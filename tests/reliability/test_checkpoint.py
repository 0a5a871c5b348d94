"""Checkpoint/resume: JSONL round-trips, torn-write tolerance, per-example
error isolation, and the kill-and-resume == uninterrupted-run guarantee."""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.core.cost import CostTracker
from repro.evaluation.metrics import ExampleScore
from repro.evaluation.runner import evaluate_pipeline, evaluate_system
from repro.llm.base import TokenUsage
from repro.reliability.checkpoint import (
    EvalCheckpoint,
    decode_cost,
    decode_score,
    encode_cost,
    encode_score,
)
from repro.reliability.degradation import DegradationEvent, DegradationKind


class PipelineProxy:
    """Delegating wrapper so tests can observe/introduce behavior."""

    def __init__(self, inner):
        self._inner = inner
        self.answered = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def answer(self, example):
        self.answered.append(example.question_id)
        return self._inner.answer(example)


class CrashingPipeline(PipelineProxy):
    def __init__(self, inner, crash_ids):
        super().__init__(inner)
        self.crash_ids = set(crash_ids)

    def answer(self, example):
        if example.question_id in self.crash_ids:
            raise RuntimeError("simulated pipeline crash")
        return super().answer(example)


def score_rows(report):
    return [(s.question_id, s.correct, s.predicted_status) for s in report.scores]


class TestEncoding:
    def test_score_round_trip(self):
        score = ExampleScore(
            question_id="q1",
            correct=True,
            gold_time=0.01,
            predicted_time=0.02,
            predicted_status="ok",
            difficulty="simple",
        )
        assert decode_score(encode_score(score)) == score
        assert encode_score(None) is None and decode_score(None) is None

    def test_error_field_survives(self):
        score = ExampleScore(
            question_id="q2",
            correct=False,
            gold_time=0.0,
            predicted_status="crashed",
            difficulty="simple",
            error="RuntimeError: boom",
        )
        assert decode_score(encode_score(score)).error == "RuntimeError: boom"

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
    def test_record_and_reload(self, tmp_path):
        path = tmp_path / "run.jsonl"
        checkpoint = EvalCheckpoint(path)
        score = ExampleScore(
            question_id="q1", correct=True, gold_time=0.1, difficulty="simple"
        )
        checkpoint.record_example(
            "q1",
            score=score,
            degradations=[
                DegradationEvent(
                    kind=DegradationKind.REFINEMENT_SKIPPED, stage="refinement"
                )
            ],
        )
        reloaded = EvalCheckpoint(path)
        assert len(reloaded) == 1 and "q1" in reloaded
        decoded, _, _, _, degradations = EvalCheckpoint.decode(reloaded.get("q1"))
        assert decoded == score
        assert degradations[0].kind is DegradationKind.REFINEMENT_SKIPPED

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "run.jsonl"
        EvalCheckpoint(path).record_example("q1")
        assert path.exists()

    def test_torn_tail_line_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        checkpoint = EvalCheckpoint(path)
        checkpoint.record_example("q1")
        checkpoint.record_example("q2")
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"question_id": "q3", "sco')  # killed mid-write
        reloaded = EvalCheckpoint(path)
        assert len(reloaded) == 2
        assert "q3" not in reloaded
        # the resumed run appends after the tear: the load truncated it,
        # so the next record is not glued onto the torn bytes and lost
        reloaded.record_example("q3")
        reloaded.record_example("q4")
        again = EvalCheckpoint(path)
        assert len(again) == 4
        assert "q3" in again and "q4" in again

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        EvalCheckpoint(path).record_example("q1")
        with path.open("a", encoding="utf-8") as handle:
            handle.write("\n\n")
        assert len(EvalCheckpoint(path)) == 1

    def test_latest_record_wins(self, tmp_path):
        path = tmp_path / "run.jsonl"
        checkpoint = EvalCheckpoint(path)
        checkpoint.record_example("q1", error="RuntimeError: first try")
        checkpoint.record_example("q1", error=None)
        assert EvalCheckpoint(path).get("q1")["error"] is None

    def test_lines_are_valid_json_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        EvalCheckpoint(path).record_example("q1")
        record = json.loads(path.read_text().splitlines()[0])
        assert record["question_id"] == "q1"
        assert "version" in record

    def test_torn_line_in_the_middle_skipped(self, tmp_path):
        # a torn write is usually the tail, but a crash during a buffered
        # multi-line flush can leave the damage mid-file: every intact
        # record around it must survive the reload
        path = tmp_path / "run.jsonl"
        checkpoint = EvalCheckpoint(path)
        for question_id in ("q1", "q2", "q3"):
            checkpoint.record_example(question_id)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]
        path.write_text("\n".join(lines) + "\n")
        reloaded = EvalCheckpoint(path)
        assert len(reloaded) == 2
        assert "q1" in reloaded and "q3" in reloaded
        assert "q2" not in reloaded

    def test_altered_line_fails_its_crc_and_is_skipped(self, tmp_path):
        # a line that still parses but no longer holds the bytes that were
        # written must not replay a wrong cost: it fails its CRC, is
        # skipped like any damaged line, and its example re-runs
        path = tmp_path / "run.jsonl"
        checkpoint = EvalCheckpoint(path)
        cost = CostTracker()
        cost.stage("generation").calls = 3
        for question_id in ("q1", "q2", "q3"):
            checkpoint.record_example(question_id, cost=cost)
        lines = path.read_text().splitlines()
        assert '"calls": 3' in lines[1]
        lines[1] = lines[1].replace('"calls": 3', '"calls": 7')
        path.write_text("\n".join(lines) + "\n")
        reloaded = EvalCheckpoint(path)
        assert "q2" not in reloaded
        assert "q1" in reloaded and "q3" in reloaded
        _, _, _, replayed, _ = EvalCheckpoint.decode(reloaded.get("q1"))
        assert replayed.stage("generation").calls == 3

    def test_bare_unframed_lines_still_load(self, tmp_path):
        # checkpoints written before the CRC frame hold bare JSON lines
        path = tmp_path / "run.jsonl"
        bare = {
            "version": 1, "score": None, "generation_score": None,
            "refined_score": None, "cost": None, "degradations": [],
            "error": None,
        }
        path.write_text("".join(
            json.dumps({**bare, "question_id": qid}) + "\n"
            for qid in ("q1", "q2")
        ))
        reloaded = EvalCheckpoint(path)
        assert len(reloaded) == 2
        assert EvalCheckpoint.decode(reloaded.get("q1"))[0] is None
        reloaded.record_example("q3")
        assert len(EvalCheckpoint(path)) == 3

    def test_fsync_every_n_flushes_and_keeps_recording(self, tmp_path):
        path = tmp_path / "run.jsonl"
        checkpoint = EvalCheckpoint(path, fsync_every_n=2)
        for question_id in ("q1", "q2", "q3", "q4", "q5"):
            checkpoint.record_example(question_id)
        assert len(EvalCheckpoint(path)) == 5

    def test_fsync_every_n_validated(self, tmp_path):
        with pytest.raises(ValueError):
            EvalCheckpoint(tmp_path / "run.jsonl", fsync_every_n=-1)


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
        record = EvalCheckpoint(path).get(examples[0].question_id)
        assert "simulated pipeline crash" in record["error"]


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

        assert score_rows(resumed) == score_rows(uninterrupted)
        assert resumed.ex == uninterrupted.ex
        assert resumed.ex_g == uninterrupted.ex_g
        assert resumed.ex_r == uninterrupted.ex_r
        # replayed scores are bit-identical to what the killed run computed
        for replayed, original in zip(resumed.scores[:3], partial.scores):
            assert asdict(replayed) == asdict(original)

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
        """Cut the checkpoint after every append, clean and torn, and
        resume each cut: every resumed report equals the uninterrupted
        run's, and no example is recorded twice."""
        import repro.evaluation.runner as runner
        from repro.storage.crashfuzz import RecordingOpener
        from repro.storage.format import scan_file

        examples = tiny_benchmark.dev[:8]
        reference = tmp_path / "reference.jsonl"
        recording = RecordingOpener()

        class RecordedCheckpoint(EvalCheckpoint):
            def __init__(self, path):
                super().__init__(path, opener=recording)

        monkeypatch.setattr(runner, "EvalCheckpoint", RecordedCheckpoint)
        expected = evaluate_pipeline(
            rel_pipeline, examples, name="ref", checkpoint_path=reference
        ).deterministic_dict()
        monkeypatch.undo()
        data = reference.read_bytes()
        assert len(recording.log) == len(examples)  # one append per example

        cuts = list(recording.cuts())
        assert len(cuts) == 2 * len(examples) + 1  # every clean and torn cut
        for cut_id, _kind, lengths in cuts:
            path = tmp_path / f"{cut_id}.jsonl"
            path.write_bytes(data[: lengths.get(reference.name, 0)])
            resumed = evaluate_pipeline(
                rel_pipeline, examples, name="ref", checkpoint_path=path
            )
            assert resumed.deterministic_dict() == expected, cut_id
            scan = scan_file(path)
            assert not scan.issues, cut_id
            assert [record["question_id"] for record in scan.parsed] == [
                example.question_id for example in examples
            ], cut_id


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

    def test_system_checkpoint_resume(self, tiny_benchmark, tmp_path):
        examples = tiny_benchmark.dev[:4]
        path = tmp_path / "system.jsonl"
        first = evaluate_system(
            self.GoldSystem(), tiny_benchmark, examples, checkpoint_path=path
        )
        system = self.GoldSystem()
        resumed = evaluate_system(
            system, tiny_benchmark, examples, checkpoint_path=path
        )
        assert system.answered == []  # everything replayed from disk
        assert score_rows(resumed) == score_rows(first)

    def test_save_json_creates_parent_dirs(self, tiny_benchmark, tmp_path):
        report = evaluate_system(
            self.GoldSystem(), tiny_benchmark, tiny_benchmark.dev[:2]
        )
        target = tmp_path / "reports" / "nested" / "out.json"
        report.save_json(target)
        payload = json.loads(target.read_text())
        assert payload["count"] == 2
        assert "degradations" in payload and "errors" in payload
