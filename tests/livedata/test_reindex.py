"""ReindexWorker: checkpointed, SIGKILL-resumable, never-double catch-up."""

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import OpenSearchSQL
from repro.datasets.build import build_benchmark
from repro.datasets.domains.healthcare import DOMAIN as HEALTHCARE
from repro.datasets.domains.hockey import DOMAIN as HOCKEY
from repro.livedata.epoch import EpochRegistry
from repro.livedata.errors import LiveDataError
from repro.livedata.mutations import MutationDriver
from repro.livedata.reindex import DoubleReindexError, ReindexWorker
from repro.llm.simulated import SimulatedLLM
from repro.llm.skills import GPT_4O
from repro.storage.format import (
    JournalCorruptionError,
    JournalVersionError,
    encode_record,
)


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
    registry = EpochRegistry()
    driver = MutationDriver(benchmark, registry, seed=0)
    return benchmark, pipeline, registry, driver


class TestReindex:
    def test_reindex_swaps_fresh_artifacts(self, world, tmp_path):
        benchmark, pipeline, registry, driver = world
        event = driver.mutate()
        before = pipeline.databases[event.db_id]
        worker = ReindexWorker(pipeline, tmp_path / "ck.jsonl", registry=registry)
        report = worker.reindex(event.db_id)
        worker.close()
        assert report.epoch == event.epoch
        assert report.units[0] == "schema"
        assert report.units[-1] == "fewshot"
        assert report.vectors > 0
        assert report.catchup_seconds == pytest.approx(report.vectors * 0.0005)
        assert pipeline.databases[event.db_id] is not before

    def test_double_reindex_is_a_typed_refusal(self, world, tmp_path):
        _, pipeline, registry, driver = world
        event = driver.mutate()
        worker = ReindexWorker(pipeline, tmp_path / "ck.jsonl", registry=registry)
        worker.reindex(event.db_id, epoch=event.epoch)
        with pytest.raises(DoubleReindexError) as excinfo:
            worker.reindex(event.db_id, epoch=event.epoch)
        worker.close()
        assert excinfo.value.db_id == event.db_id
        assert excinfo.value.epoch == event.epoch
        assert not worker.checkpoint.duplicate_done

    def test_kill_and_resume_is_byte_identical(self, world, tmp_path):
        """Truncate the checkpoint at every byte-boundary a SIGKILL could
        leave and resume with a fresh worker: every resume converges on
        the uninterrupted reference file."""
        _, pipeline, registry, driver = world
        event = driver.mutate()
        ref_path = tmp_path / "ref.jsonl"
        ref = ReindexWorker(pipeline, ref_path, registry=registry)
        ref.reindex(event.db_id, epoch=event.epoch)
        ref.close()
        ref_bytes = ref_path.read_bytes()
        lines = ref_bytes.splitlines(keepends=True)
        # clean cuts after each record, plus a torn cut mid-record
        offsets = [0]
        total = 0
        for line in lines:
            offsets.append(total + len(line) // 2)  # torn
            total += len(line)
            offsets.append(total)  # clean
        for offset in sorted(set(offsets)):
            cut = tmp_path / "cut.jsonl"
            cut.write_bytes(ref_bytes[:offset])
            worker = ReindexWorker(pipeline, cut, registry=registry)
            try:
                resumed = worker.reindex(event.db_id, epoch=event.epoch)
                if offset < total:
                    assert resumed.resumed_units >= 0
            except DoubleReindexError:
                assert offset == total  # only the complete file refuses
            worker.close()
            assert cut.read_bytes() == ref_bytes, f"diverged at offset {offset}"

    def test_interior_damage_is_refused_not_resumed(self, world, tmp_path):
        _, pipeline, registry, driver = world
        event = driver.mutate()
        path = tmp_path / "ck.jsonl"
        worker = ReindexWorker(pipeline, path, registry=registry)
        worker.reindex(event.db_id, epoch=event.epoch)
        worker.close()
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) >= 3
        lines[1] = b'####flipped-bits{"not json\n'
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalCorruptionError):
            ReindexWorker(pipeline, path, registry=registry)

    def test_newer_header_is_refused(self, world, tmp_path):
        _, pipeline, registry, _ = world
        path = tmp_path / "ck.jsonl"
        path.write_text(
            encode_record({"type": "header", "version": 3, "config": {}}, 0) + "\n"
        )
        with pytest.raises(JournalVersionError):
            ReindexWorker(pipeline, path, registry=registry)

    def test_digest_mismatch_is_typed_drift(self, world, tmp_path):
        """A resumed recomputation that disagrees with the checkpointed
        digest means the world moved between the two passes — typed
        failure, never silent divergence."""
        benchmark, pipeline, registry, driver = world
        event = driver.mutate()
        path = tmp_path / "ck.jsonl"
        worker = ReindexWorker(pipeline, path, registry=registry)
        worker.reindex(event.db_id, epoch=event.epoch)
        worker.close()
        # drop the done record so the resume recomputes, then mutate the
        # database again WITHOUT an epoch bump the checkpoint knows about
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]))
        built = benchmark.databases[event.db_id]
        table = built.schema.tables[0]
        built.connection.execute(
            f'ALTER TABLE "{table.name}" ADD COLUMN "sneaky" TEXT'
        )
        from dataclasses import replace

        from repro.schema.model import Column

        built.schema = replace(
            built.schema,
            tables=tuple(
                replace(t, columns=t.columns + (Column(name="sneaky", type_name="TEXT", description="drifted"),))
                if t.name == table.name
                else t
                for t in built.schema.tables
            ),
        )
        resumed = ReindexWorker(pipeline, path, registry=registry)
        with pytest.raises(LiveDataError, match="digest mismatch"):
            resumed.reindex(event.db_id, epoch=event.epoch)
        resumed.close()

    def test_background_worker_drains_bumps_from_the_registry(
        self, world, tmp_path
    ):
        _, pipeline, registry, driver = world
        worker = ReindexWorker(pipeline, tmp_path / "ck.jsonl", registry=registry)
        worker.watch(registry)
        worker.start()
        events = [driver.mutate() for _ in range(3)]
        worker.drain()
        worker.close()
        done = {(r.db_id, r.epoch) for r in worker.reports}
        assert done == {(e.db_id, e.epoch) for e in events}
        assert worker.last_error is None
        probe = worker.probe()
        assert probe["pending"] == 0
        assert probe["completed"] == len(events)
