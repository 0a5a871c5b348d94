"""Cross-epoch replay refusal: journal v2 records stamped with
``schema_epoch`` cannot replay against a catalog at another epoch, and a
live-mutation run, whose schedule says every epoch, recovers."""

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import OpenSearchSQL
from repro.datasets.build import build_benchmark
from repro.datasets.domains.healthcare import DOMAIN as HEALTHCARE
from repro.datasets.domains.hockey import DOMAIN as HOCKEY
from repro.livedata.epoch import EpochRegistry
from repro.livedata.errors import CrossEpochReplayError
from repro.llm.simulated import SimulatedLLM
from repro.llm.skills import GPT_4O
from repro.serving import ServingEngine, ServingJournal, recover_run
from repro.serving.journal import check_epoch_stamps, epoch_stamps

from tests.test_cli import run_cli


def fresh_world():
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


class TestCrossEpochReplay:
    def write_spanning_journal(self, tmp_path):
        """Serve the same question at epoch 0 and epoch 1."""
        benchmark, pipeline = fresh_world()
        journal = ServingJournal(tmp_path / "journal.jsonl")
        journal.write_header({"kind": "test"})
        engine = ServingEngine(pipeline, workers=1, queue_capacity=8, journal=journal)
        registry = EpochRegistry()
        engine.attach_livedata(registry)
        example = benchmark.dev[0]
        with engine:
            engine.answer(example)
            registry.bump(example.db_id)
            engine.invalidate_db(example.db_id)
            engine.answer(example)
        return example, tmp_path / "journal.jsonl"

    def test_differing_stamps_raise_a_typed_refusal(self, tmp_path):
        example, path = self.write_spanning_journal(tmp_path)
        workload = [example, example]
        # a freshly rebuilt catalog is at epoch 0 everywhere
        _, replay_pipeline = fresh_world()
        journal = ServingJournal(path)
        assert epoch_stamps(journal, workload) == {example.db_id: [0, 1]}
        with pytest.raises(CrossEpochReplayError) as excinfo:
            check_epoch_stamps(journal, replay_pipeline, workload)
        assert excinfo.value.db_id == example.db_id
        assert excinfo.value.recorded_epochs == (0, 1)
        assert excinfo.value.current_epoch == 0

    def test_recover_run_refuses_before_replaying_anything(self, tmp_path):
        example, path = self.write_spanning_journal(tmp_path)
        _, replay_pipeline = fresh_world()
        with pytest.raises(CrossEpochReplayError):
            recover_run(ServingJournal(path), replay_pipeline, [example, example])

    def test_matching_epoch_catalog_replays_cleanly(self, tmp_path):
        """A replay catalog advanced to the journal's (single) epoch is
        not cross-epoch: recovery proceeds."""
        benchmark, pipeline = fresh_world()
        journal = ServingJournal(tmp_path / "journal.jsonl")
        journal.write_header({"kind": "test"})
        engine = ServingEngine(pipeline, workers=1, queue_capacity=8, journal=journal)
        registry = EpochRegistry()
        engine.attach_livedata(registry)
        example = benchmark.dev[0]
        registry.bump(example.db_id)  # whole run happens at epoch 1
        with engine:
            engine.answer(example)
        _, replay_pipeline = fresh_world()
        replay_registry = EpochRegistry()
        replay_registry.advance(example.db_id, 1)
        replay_pipeline.epochs = replay_registry
        outcomes = recover_run(
            ServingJournal(tmp_path / "journal.jsonl"), replay_pipeline, [example]
        )
        assert [status for status, *_ in outcomes] == ["ok"]

    def test_unstamped_prelivedata_journal_replays(self, tmp_path):
        benchmark, pipeline = fresh_world()
        journal = ServingJournal(tmp_path / "journal.jsonl")
        journal.write_header({"kind": "test"})
        engine = ServingEngine(pipeline, workers=1, queue_capacity=8, journal=journal)
        example = benchmark.dev[0]
        with engine:
            engine.answer(example)
        _, replay_pipeline = fresh_world()
        outcomes = recover_run(
            ServingJournal(tmp_path / "journal.jsonl"), replay_pipeline, [example]
        )
        assert [status for status, *_ in outcomes] == ["ok"]


class TestRecoverCli:
    def test_dry_run_prints_no_epochs_and_recover_finishes(self, tmp_path):
        journal_path = tmp_path / "serve.jsonl"
        code, _ = run_cli(
            "--candidates", "3", "serve-bench",
            "--workers", "1", "--requests", "8", "--distinct", "3",
            "--mutate-every", "1", "--journal", str(journal_path),
        )
        assert code == 0
        code, text = run_cli("recover", "--journal", str(journal_path), "--dry-run")
        assert code == 0
        assert "epoch" not in text.lower()
        # every stamp is the epoch the replayed schedule gives its position
        code, text = run_cli("recover", "--journal", str(journal_path))
        assert code == 0
        assert "recovered: 8/8 requests" in text
        assert "not certifiable" not in text
