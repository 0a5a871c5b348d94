"""ShardedJournalView: merged per-shard segments behind the journal API.

These tests never spawn a process — they write segments directly (the
way shard workers would) and certify that the merged view discovers
them, resolves reads across shards, ring-routes fresh writes, detects
double-serves, and that ``recover_run`` over the merged view produces a
report byte-identical to recovery over an equivalent single journal.
"""

import json

import pytest

from repro.evaluation import assemble_report
from repro.serving import (
    DoubleServeError,
    ServingEngine,
    ServingJournal,
    ShardedJournalView,
    discover_segments,
    recover_run,
)
from repro.serving.cluster.config import segment_name
from repro.serving.workload import zipf_workload


def segment(tmp_path, shard, header=None):
    journal = ServingJournal(tmp_path / segment_name(shard))
    journal.write_header(
        {"shard": shard, "ring_vnodes": 128, **(header or {})}
    )
    return journal


class TestDiscovery:
    def test_finds_only_segment_files(self, tmp_path):
        segment(tmp_path, 0)
        segment(tmp_path, 2)
        (tmp_path / "journal-shard-x.jsonl").write_text("{}\n")
        (tmp_path / "other.jsonl").write_text("{}\n")
        found = discover_segments(tmp_path)
        assert sorted(found) == [0, 2]
        assert found[2].name == segment_name(2)

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ShardedJournalView(tmp_path)


class TestMergedView:
    def test_reads_resolve_across_shards(self, tmp_path, tiny_benchmark):
        examples = tiny_benchmark.dev[:4]
        left, right = segment(tmp_path, 0), segment(tmp_path, 1)
        left.accept(examples[0], seq=0)
        left.commit(0, "failed", error="x")
        right.accept(examples[1], seq=1)
        view = ShardedJournalView(tmp_path)
        assert len(view) == 1
        assert view.committed(0)["error"] == "x"
        assert view.committed(1) is None
        assert view.pending() == [1]
        assert view.committed_by_shard() == {0: 1, 1: 0}

    def test_config_merges_and_drops_shard_key(self, tmp_path):
        segment(tmp_path, 0, header={"requests": 9})
        view = ShardedJournalView(tmp_path)
        assert view.config["requests"] == 9
        assert "shard" not in view.config

    def test_double_commit_across_shards_raises(self, tmp_path, tiny_benchmark):
        example = tiny_benchmark.dev[0]
        for shard in (0, 1):
            journal = segment(tmp_path, shard)
            journal.accept(example, seq=5)
            journal.commit(5, "failed", error="dup")
        with pytest.raises(DoubleServeError) as excinfo:
            ShardedJournalView(tmp_path)
        assert excinfo.value.seq == 5

    def test_writes_route_by_ring_and_stick_to_accepting_shard(
        self, tmp_path, tiny_benchmark
    ):
        segment(tmp_path, 0)
        segment(tmp_path, 1)
        view = ShardedJournalView(tmp_path)
        example = tiny_benchmark.dev[0]
        owner = view.ring.lookup(example.db_id)
        seq = view.accept(example, seq=3)
        assert seq == 3
        view.commit(3, "failed", error="routed")
        reloaded = ShardedJournalView(tmp_path)
        assert reloaded.committed(3)["error"] == "routed"
        assert reloaded.committed_by_shard()[owner] == 1

    def test_reaccept_of_known_seq_keeps_its_segment(
        self, tmp_path, tiny_benchmark
    ):
        examples = tiny_benchmark.dev[:2]
        left = segment(tmp_path, 0)
        left.accept(examples[0], seq=0)  # accepted, never committed
        segment(tmp_path, 1)
        view = ShardedJournalView(tmp_path)
        view.accept(examples[0], seq=0)
        view.commit(0, "failed", error="rerun")
        # the whole history stays in shard 0's segment regardless of
        # where the ring would place the db today
        assert ServingJournal(tmp_path / segment_name(0)).committed(0) is not None

    def test_commit_without_accept_raises(self, tmp_path):
        segment(tmp_path, 0)
        view = ShardedJournalView(tmp_path)
        with pytest.raises(KeyError):
            view.commit(9, "failed", error="never accepted")


class TestDamagedSegments:
    """Storage damage surfaces through discovery with v2 semantics:
    torn tails heal silently, interior damage raises typed."""

    def test_torn_segment_tail_is_pending_again(
        self, tmp_path, tiny_benchmark
    ):
        examples = tiny_benchmark.dev[:2]
        left = segment(tmp_path, 0)
        left.accept(examples[0], seq=0)
        left.commit(0, "failed", error="x")
        segment(tmp_path, 1).accept(examples[1], seq=1)
        path = tmp_path / segment_name(0)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:20])
        view = ShardedJournalView(tmp_path)
        assert view.pending() == [0, 1]  # the torn commit re-runs
        # and the tear was truncated: a reload sees a clean segment
        from repro.storage import scan_file

        assert scan_file(path).issues == []

    def test_corrupt_segment_middle_raises_typed_with_segment_name(
        self, tmp_path, tiny_benchmark
    ):
        from repro.serving import JournalCorruptionError

        examples = tiny_benchmark.dev[:2]
        left = segment(tmp_path, 0)
        left.accept(examples[0], seq=0)
        left.commit(0, "failed", error="x")
        segment(tmp_path, 1)
        path = tmp_path / segment_name(0)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:15] + "##" + lines[1][17:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptionError) as info:
            ShardedJournalView(tmp_path)
        assert segment_name(0) in str(info.value)
        assert "fsck" in str(info.value)

    def test_corrupt_middle_of_one_segment_spares_no_merge(
        self, tmp_path, tiny_benchmark
    ):
        # even when the OTHER segments are pristine, the merged view must
        # refuse: a silently-skipped interior commit could double-serve
        # that seq on a healthy shard later
        from repro.serving import JournalCorruptionError

        examples = tiny_benchmark.dev[:3]
        for shard in (0, 1, 2):
            journal = segment(tmp_path, shard)
            journal.accept(examples[shard], seq=shard)
            journal.commit(shard, "failed", error=str(shard))
            journal.accept(examples[shard], seq=shard + 10)
        path = tmp_path / segment_name(1)
        lines = path.read_text().splitlines()
        lines[2] = "garbage-not-json"  # the commit — interior, not tail
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptionError):
            ShardedJournalView(tmp_path)

    def test_view_seal_seals_every_segment(self, tmp_path, tiny_benchmark):
        from repro.storage import scan_file

        segment(tmp_path, 0)
        segment(tmp_path, 1)
        view = ShardedJournalView(tmp_path)
        view.seal()
        for shard in (0, 1):
            assert scan_file(tmp_path / segment_name(shard)).sealed

    def test_view_forwards_opener_to_segments(self, tmp_path, tiny_benchmark):
        from repro.storage import FaultyStorage, StorageFaultPlan

        example = tiny_benchmark.dev[0]
        left = segment(tmp_path, 0)
        left.accept(example, seq=0)
        storage = FaultyStorage(StorageFaultPlan.none())
        view = ShardedJournalView(tmp_path, opener=storage.opener)
        view.commit(0, "failed", error="through-the-opener")
        assert storage.stats_dict()["writes"] == 1


class TestMergedRecovery:
    def test_sharded_recovery_matches_single_journal_recovery(
        self, tmp_path, tiny_benchmark, tiny_pipeline
    ):
        pool = tiny_benchmark.dev[:5]
        workload = zipf_workload(pool, requests=9, skew=1.1, seed=2)

        # Reference: one engine, one journal, run to completion.
        single = ServingJournal(tmp_path / "single.jsonl")
        engine = ServingEngine(
            tiny_pipeline, workers=1, result_cache_size=512, journal=single
        )
        with engine:
            engine.run(workload)
        ref_outcomes = recover_run(
            ServingJournal(tmp_path / "single.jsonl"), tiny_pipeline, workload
        )
        ref = assemble_report(ref_outcomes, workload, tiny_benchmark)
        ref_doc = json.dumps(ref.deterministic_dict(), sort_keys=True)

        # Sharded: split the same committed history across two segments
        # by ring ownership, with a tail of uncommitted requests.
        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        shards = {
            shard: segment(shard_dir, shard, header={"requests": 9})
            for shard in (0, 1)
        }
        from repro.serving import HashRing

        ring = HashRing([0, 1])
        for seq, example in enumerate(workload):
            journal = shards[ring.lookup(example.db_id)]
            journal.accept(example, seq=seq)
            if seq < 6:  # the "crash" leaves the last three uncommitted
                record = single.committed(seq)
                status = record.get("status", "ok")
                result, _ = ServingJournal.decode_result(record)
                if status == "ok":
                    journal.commit(seq, "ok", result=result)
                elif status == "cached":
                    journal.commit(seq, "cached")
                else:
                    journal.commit(seq, "failed", error=record.get("error"))

        view = ShardedJournalView(shard_dir)
        assert view.pending() == [6, 7, 8]
        outcomes = recover_run(view, tiny_pipeline, workload)
        report = assemble_report(outcomes, workload, tiny_benchmark)
        doc = json.dumps(report.deterministic_dict(), sort_keys=True)
        assert doc == ref_doc

        # Idempotence: a second recovery re-runs nothing and matches.
        again = ShardedJournalView(shard_dir)
        assert again.pending() == []
        outcomes2 = recover_run(again, tiny_pipeline, workload)
        report2 = assemble_report(outcomes2, workload, tiny_benchmark)
        assert json.dumps(report2.deterministic_dict(), sort_keys=True) == ref_doc
