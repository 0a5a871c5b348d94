"""ServingJournal on the v2 grammar: seals, strictness, brownout, compat.

The torn-tolerance and recovery semantics of the v1 journal live in
``tests/serving/test_journal.py`` and must keep passing unchanged; this
file covers what v2 *adds*: CRC-strict interior-damage detection keyed
on the header version, epoch-stamped seals on clean shutdown, the
ENOSPC/EIO brownout path, and byte-identical recovery of a v1 journal
through the v2 reader.
"""

import json
from types import SimpleNamespace

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import OpenSearchSQL
from repro.evaluation import assemble_report
from repro.llm.simulated import SimulatedLLM
from repro.llm.skills import GPT_4O
from repro.serving import (
    JournalCorruptionError,
    JournalVersionError,
    ServingEngine,
    ServingJournal,
    recover_run,
)
from repro.storage import FaultyStorage, StorageFaultPlan, scan_file


def example(question_id="q1", db_id="db_a"):
    return SimpleNamespace(question_id=question_id, db_id=db_id)


def seeded_journal(path):
    journal = ServingJournal(path)
    journal.write_header({"requests": 2})
    journal.accept(example("q1"))
    journal.commit(0, "failed", error="x")
    journal.accept(example("q2"))
    journal.commit(1, "failed", error="y")
    return journal


class TestSealAndEpoch:
    def test_seal_marks_clean_shutdown(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = seeded_journal(path)
        assert not journal.sealed
        journal.seal()
        assert journal.sealed
        scan = scan_file(path)
        assert scan.sealed
        assert scan.epoch == 1

    def test_seal_is_idempotent(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = seeded_journal(path)
        journal.seal()
        journal.close()  # close() is an alias; no second seal record
        assert scan_file(path).seals == 1

    def test_epoch_increments_per_life(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = seeded_journal(path)
        first.seal()
        second = ServingJournal(path)
        assert second.epoch == 2
        second.seal()
        scan = scan_file(path)
        assert scan.epoch == 2
        assert scan.seals == 2

    def test_new_records_unseal_a_reopened_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        seeded_journal(path).seal()
        reopened = ServingJournal(path)
        assert reopened.sealed  # the file does end with a seal
        reopened.accept(example("q3"))
        assert not reopened.sealed  # history re-opened past the seal
        assert not scan_file(path).sealed


class TestStrictness:
    def test_v2_interior_damage_raises_typed(self, tmp_path):
        path = tmp_path / "j.jsonl"
        seeded_journal(path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:15] + "##" + lines[1][17:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptionError) as info:
            ServingJournal(path)
        assert info.value.scan.records == 4
        assert "fsck" in str(info.value)

    def test_v2_torn_tail_is_truncated_on_load(self, tmp_path):
        path = tmp_path / "j.jsonl"
        seeded_journal(path)
        lines = path.read_text().splitlines()
        torn = "\n".join(lines[:-1]) + "\n" + lines[-1][:20]
        path.write_text(torn)
        journal = ServingJournal(path)
        assert journal.pending() == [1]  # the torn commit is pending again
        # the tear is physically gone: appends can never merge into it
        assert path.read_text().endswith("\n")
        journal.accept(example("q3"))
        assert scan_file(path).issues == []

    def test_headerless_file_keeps_tolerant_semantics(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = ServingJournal(path)
        journal.accept(example("q1"))
        journal.commit(0, "failed", error="x")
        journal.accept(example("q2"))
        lines = path.read_text().splitlines()
        lines[1] = "garbage"  # interior damage, but no v2 header contract
        path.write_text("\n".join(lines) + "\n")
        reloaded = ServingJournal(path)  # must NOT raise
        assert reloaded.pending() == [0, 1]

    def test_future_version_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        from repro.storage import encode_record

        path.write_text(
            encode_record(
                {"type": "header", "version": 99, "config": {}}, 0
            ) + "\n"
        )
        with pytest.raises(JournalVersionError) as info:
            ServingJournal(path)
        assert info.value.found == 99


class TestBrownout:
    def test_enospc_disables_but_run_continues(self, tmp_path):
        storage = FaultyStorage(StorageFaultPlan(enospc_after=2))
        path = tmp_path / "j.jsonl"
        fired = []
        journal = ServingJournal(
            path, opener=storage.opener, on_storage_error=fired.append
        )
        journal.write_header({"requests": 3})  # append 0
        journal.accept(example("q1"))  # append 1
        journal.commit(0, "failed", error="x")  # append 2 -> ENOSPC
        assert journal.disabled
        assert journal.disable_reason.startswith("enospc")
        assert len(fired) == 1
        # in-memory bookkeeping continues un-journaled
        assert journal.accept(example("q2")) == 1
        journal.commit(1, "failed", error="y")
        assert journal.committed(1)["error"] == "y"
        assert journal.pending() == []  # the live view stays consistent
        # ...but the disk never saw seq 0's commit (or seq 1 at all): a
        # post-brownout recovery re-runs exactly what was lost
        assert ServingJournal(path).pending() == [0]
        stats = journal.stats_dict()
        assert stats["disabled"]
        assert stats["write_errors"] == {"enospc": 1}

    def test_disabled_journal_skips_seal(self, tmp_path):
        storage = FaultyStorage(StorageFaultPlan(enospc_after=2))
        path = tmp_path / "j.jsonl"
        journal = ServingJournal(path, opener=storage.opener)
        journal.write_header({"requests": 1})
        journal.accept(example("q1"))
        journal.commit(0, "failed", error="x")  # trips ENOSPC
        journal.seal()
        assert not journal.sealed  # a browned-out run is not clean
        assert not scan_file(path).sealed

    def test_listener_fires_exactly_once(self, tmp_path):
        storage = FaultyStorage(StorageFaultPlan(enospc_after=1))
        journal = ServingJournal(tmp_path / "j.jsonl", opener=storage.opener)
        fired = []
        journal.add_storage_listener(fired.append)
        journal.write_header({"a": 1})  # append 0, survives
        journal.accept(example("q1"))  # append 1 -> ENOSPC, fires
        journal.accept(example("q2"))  # already disabled: no second fire
        assert len(fired) == 1

    def test_on_disk_file_stays_well_formed(self, tmp_path):
        # ENOSPC raises before any byte lands, so the surviving prefix
        # must still parse clean — brownout never leaves a torn line.
        storage = FaultyStorage(StorageFaultPlan(enospc_after=3))
        path = tmp_path / "j.jsonl"
        journal = ServingJournal(path, opener=storage.opener)
        journal.write_header({"requests": 2})
        journal.accept(example("q1"))
        journal.commit(0, "failed", error="x")
        journal.accept(example("q2"))
        assert journal.disabled
        assert scan_file(path).issues == []


def fresh_pipeline(tiny_benchmark):
    llm = SimulatedLLM(GPT_4O, seed=0)
    return OpenSearchSQL(tiny_benchmark, llm, PipelineConfig(n_candidates=3))


def downgrade_to_v1(src, dst):
    """Rewrite a v2 journal as its v1 equivalent (no crc/rec, no seals)."""
    lines = []
    for line in src.read_text().splitlines():
        record = json.loads(line)
        record.pop("crc", None)
        record.pop("rec", None)
        if record.get("type") == "seal":
            continue
        if record.get("type") == "header":
            record["version"] = 1
        lines.append(json.dumps(record))
    dst.write_text("\n".join(lines) + "\n")


class TestV1Compat:
    def test_v1_journal_recovers_byte_identical(
        self, tiny_benchmark, tmp_path
    ):
        dev = tiny_benchmark.dev
        workload = [dev[0], dev[1], dev[0], dev[2]]
        v2_path = tmp_path / "v2.jsonl"
        journal = ServingJournal(v2_path)
        journal.write_header({"requests": len(workload)})
        pipeline = fresh_pipeline(tiny_benchmark)
        with ServingEngine(pipeline, workers=1, journal=journal) as engine:
            engine.run(workload)

        v1_path = tmp_path / "v1.jsonl"
        downgrade_to_v1(v2_path, v1_path)
        scan = scan_file(v1_path)
        assert scan.v2_records == 0 and scan.v1_records > 0

        reports = []
        for path in (v2_path, v1_path):
            outcomes = recover_run(
                ServingJournal(path), fresh_pipeline(tiny_benchmark), workload
            )
            report = assemble_report(outcomes, workload, tiny_benchmark)
            reports.append(
                json.dumps(report.deterministic_dict(), sort_keys=True)
            )
        assert reports[0] == reports[1]

    def test_v1_journal_with_interior_damage_still_loads(
        self, tiny_benchmark, tmp_path
    ):
        # the compat contract: v1 files keep the old tolerant skip
        dev = tiny_benchmark.dev
        v2_path = tmp_path / "v2.jsonl"
        journal = ServingJournal(v2_path)
        journal.write_header({"requests": 2})
        with ServingEngine(
            fresh_pipeline(tiny_benchmark), workers=1, journal=journal
        ) as engine:
            engine.run([dev[0], dev[1]])
        v1_path = tmp_path / "v1.jsonl"
        downgrade_to_v1(v2_path, v1_path)
        lines = v1_path.read_text().splitlines()
        # tear the first COMMIT record (accept/commit interleaving varies
        # with engine scheduling, so find it by content, not position)
        target = next(
            i for i, line in enumerate(lines) if '"committed"' in line
        )
        assert target < len(lines) - 1  # interior, not the tail
        lines[target] = lines[target][: len(lines[target]) // 2]
        v1_path.write_text("\n".join(lines) + "\n")
        reloaded = ServingJournal(v1_path)  # must not raise
        assert reloaded.pending()
