"""ReindexWorker: checkpointed, SIGKILL-resumable, never-double catch-up."""

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import OpenSearchSQL
from repro.core.preprocessing import Preprocessor
from repro.datasets.build import build_benchmark
from repro.datasets.domains.healthcare import DOMAIN as HEALTHCARE
from repro.datasets.domains.hockey import DOMAIN as HOCKEY
from repro.livedata.epoch import EpochRegistry
from repro.livedata.errors import LiveDataError
from repro.livedata.mutations import MUTATION_KINDS, MutationDriver
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
        tables = sorted(t.name for t in benchmark.databases[event.db_id].schema.tables)
        assert report.units[-1] == f"values:{tables[-1]}"
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


def index_state(index):
    """Keys in order, payloads and stored vectors of a flat index."""
    return list(index._keys), list(index._payloads), np.stack(index._rows)


class TestReindexMatchesFreshBuild:
    """A database's artifacts are a function of its current contents: the
    reindex path and the startup path build them with one function."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_reindexed_database_equals_a_fresh_preprocess(
        self, world, tmp_path, seed
    ):
        benchmark, pipeline, registry, _ = world
        driver = MutationDriver(benchmark, registry, seed=seed)
        event = driver.mutate()
        worker = ReindexWorker(pipeline, tmp_path / "ck.jsonl", registry=registry)
        worker.reindex(event.db_id)
        reindexed = pipeline.databases[event.db_id]
        fresh = Preprocessor(pipeline.llm, pipeline.config).preprocess_database(
            benchmark.databases[event.db_id]
        )
        for name in ("value_index", "column_index"):
            keys, payloads, vectors = index_state(getattr(reindexed, name))
            want_keys, want_payloads, want_vectors = index_state(getattr(fresh, name))
            assert keys == want_keys, f"{name} keys differ"
            assert payloads == want_payloads
            assert np.array_equal(vectors, want_vectors)
        assert reindexed.schema_prompt == fresh.schema_prompt
        assert reindexed.value_count == fresh.value_count

    @pytest.mark.parametrize(
        "seed, kinds",
        [(0, ("value_churn",)), (0, MUTATION_KINDS),
         (2, ("value_churn",)), (2, MUTATION_KINDS)],
        ids=["seed0-churn", "seed0-all", "seed2-churn", "seed2-all"],
    )
    def test_reindexed_pipeline_answers_like_a_fresh_one(
        self, world, tmp_path, seed, kinds
    ):
        benchmark, pipeline, registry, _ = world
        driver = MutationDriver(benchmark, registry, seed=seed, kinds=kinds)
        worker = ReindexWorker(pipeline, tmp_path / "ck.jsonl", registry=registry)
        for _ in range(3):
            event = driver.mutate()
            worker.reindex(event.db_id, epoch=event.epoch)
        fresh = OpenSearchSQL(
            benchmark, SimulatedLLM(GPT_4O, seed=0), PipelineConfig(n_candidates=3)
        )
        for example in benchmark.dev:
            got, want = pipeline.answer(example), fresh.answer(example)
            assert got.final_sql == want.final_sql, example.question_id
            assert got.cost.total_tokens == want.cost.total_tokens, (
                example.question_id
            )
