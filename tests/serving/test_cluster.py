"""ShardCoordinator integration: real spawned workers over a small
benchmark.

Every test here pays real process-spawn cost, so the suite uses the
five-database ``cluster-smoke`` profile (sub-second worker build) and
keeps workloads small.  The certification story:

* conservation — accept/commit accounting across shard segments shows
  every request served exactly once, kill or no kill;
* supervision — a SIGKILLed worker restarts (budget permitting) or its
  shard rebalances onto survivors; either way the run completes and the
  recovered merged report is byte-identical to an undisturbed
  single-process run of the same seed;
* typed sheds — with no restart budget and no surviving shard, requests
  fail with ShardUnavailableError instead of hanging.
"""

import json
from dataclasses import replace

import pytest

from repro.evaluation import assemble_report
from repro.serving import (
    ClusterConfig,
    ServingEngine,
    ServingJournal,
    ShardCoordinator,
    ShardUnavailableError,
    ShardedJournalView,
    recover_run,
)
from repro.serving.cluster.config import example_from_wire, example_to_wire
from repro.serving.spec import RunSpec, build, resolve_benchmark
from repro.serving.workload import zipf_workload

CANDIDATES = 3
SPEC = RunSpec(benchmark="cluster-smoke", candidates=CANDIDATES)


@pytest.fixture(scope="module")
def smoke_benchmark():
    return resolve_benchmark("cluster-smoke")


@pytest.fixture(scope="module")
def smoke_workload(smoke_benchmark):
    """16 requests over all five databases — spans multiple shards."""
    pool, seen = [], set()
    for example in smoke_benchmark.split("dev"):
        if example.db_id not in seen:
            seen.add(example.db_id)
            pool.append(example)
    return zipf_workload(pool, requests=16, skew=1.1, seed=7)


def cluster_config(tmp_path, **overrides):
    defaults = dict(
        shards=3,
        spec=SPEC,
        journal_dir=str(tmp_path / "segments"),
        backoff_base=0.05,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def reference_doc(tmp_path, workload):
    """Deterministic report of an undisturbed single-process run."""
    stack = build(SPEC)
    journal = ServingJournal(tmp_path / "reference" / "single.jsonl")
    engine = ServingEngine(
        stack.pipeline, workers=1, result_cache_size=512, journal=journal
    )
    with engine:
        engine.run(workload)
    outcomes = recover_run(
        ServingJournal(tmp_path / "reference" / "single.jsonl"), stack.pipeline,
        workload,
    )
    report = assemble_report(outcomes, workload, stack.benchmark)
    return json.dumps(report.deterministic_dict(), sort_keys=True)


def recovered_doc(config, workload):
    view = ShardedJournalView(config.journal_dir)
    stack = build(config.spec)
    outcomes = recover_run(view, stack.pipeline, workload)
    report = assemble_report(outcomes, workload, stack.benchmark)
    return json.dumps(report.deterministic_dict(), sort_keys=True)


class TestWireCodec:
    def test_example_round_trips(self, smoke_benchmark):
        for example in smoke_benchmark.split("dev")[:10]:
            assert example_from_wire(
                json.loads(json.dumps(example_to_wire(example)))
            ) == example

    def test_config_round_trips(self, tmp_path):
        config = cluster_config(
            tmp_path, spec=replace(SPEC, deadline_ms=12500.0, requests=16)
        )
        rebuilt = ClusterConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            cluster_config(tmp_path, shards=0)
        with pytest.raises(ValueError):
            ClusterConfig(shards=2, journal_dir="")
        with pytest.raises(ValueError):
            cluster_config(tmp_path, restart_budget=-1)


class TestClusterServing:
    def test_undisturbed_run_conserves_and_matches_reference(
        self, tmp_path, smoke_workload
    ):
        config = cluster_config(tmp_path)
        with ShardCoordinator(config) as coordinator:
            results = coordinator.run(smoke_workload)
            stats = coordinator.stats()
        assert all(r is not None for r in results)
        assert stats["completed"] == len(smoke_workload)
        assert stats["deaths"] == 0

        # A clean shutdown is not a crash: supervision stops before the
        # workers are told to drain, so nothing dies, restarts or
        # rebalances, and no worker is left mid-restart.
        after = coordinator.stats()
        assert (after["deaths"], after["restarts"], after["rebalances"]) == (0, 0, 0)
        states = {worker["state"] for worker in after["workers"].values()}
        assert states == {"stopped"}
        # every drained worker has exited and its pipe reader is joined
        for handle in coordinator._workers.values():
            assert not handle.process.is_alive()
            assert not handle.receiver.is_alive()
        # Without metrics= the coordinator counts in a registry of its own,
        # and stats() reads the counts back from it.
        exported = coordinator.metrics.snapshot()["metrics"]
        requests = exported["repro_cluster_requests_total"]["samples"]
        assert sum(requests.values()) == after["completed"] == len(smoke_workload)
        assert after["failed"] == requests.get("status=failed", 0) == 0
        assert exported["repro_cluster_supervision_total"]["samples"] == {}

        view = ShardedJournalView(config.journal_dir)
        assert view.committed_seqs() == list(range(len(smoke_workload)))
        assert view.pending() == []
        # more than one shard actually served traffic
        active = [s for s, n in view.committed_by_shard().items() if n]
        assert len(active) >= 2

        # per-shard snapshots arrive shard-labelled and merge into one
        # registry view
        snapshots = coordinator.shard_snapshots()
        assert sorted(snapshots) == [0, 1, 2]
        for payload in snapshots.values():
            json.dumps(payload)  # everything shipped must be JSON-ready
            assert payload["journal"]["pending"] == 0
        merged = coordinator.merged_metrics().snapshot()
        assert any(key.startswith("shard1.") for key in merged["collected"])

        assert recovered_doc(config, smoke_workload) == reference_doc(
            tmp_path, smoke_workload
        )

    def test_sigkill_with_budget_restarts_and_matches_reference(
        self, tmp_path, smoke_workload
    ):
        config = cluster_config(tmp_path, restart_budget=1)
        killed = []

        def on_result(worker_id, results):
            if worker_id == 1 and results == 2 and not killed:
                killed.append(worker_id)
                coordinator.kill_worker(worker_id)

        coordinator = ShardCoordinator(config, on_result=on_result)
        with coordinator:
            results = coordinator.run(smoke_workload)
            stats = coordinator.stats()
        assert killed == [1]
        assert stats["deaths"] == 1
        assert stats["restarts"] == 1
        assert stats["rebalances"] == 0
        assert all(r is not None for r in results)

        view = ShardedJournalView(config.journal_dir)  # raises on double-serve
        assert view.committed_seqs() == list(range(len(smoke_workload)))
        assert recovered_doc(config, smoke_workload) == reference_doc(
            tmp_path, smoke_workload
        )

    def test_sigkill_without_budget_rebalances_and_matches_reference(
        self, tmp_path, smoke_workload
    ):
        config = cluster_config(tmp_path, restart_budget=0)
        killed = []

        def on_result(worker_id, results):
            if worker_id == 1 and results == 2 and not killed:
                killed.append(worker_id)
                coordinator.kill_worker(worker_id)

        coordinator = ShardCoordinator(config, on_result=on_result)
        with coordinator:
            results = coordinator.run(smoke_workload)
            stats = coordinator.stats()
        assert killed == [1]
        assert stats["deaths"] == 1
        assert stats["restarts"] == 0
        assert stats["rebalances"] == 1
        assert stats["reroutes"] > 0
        assert 1 not in coordinator.ring
        assert all(r is not None for r in results)

        view = ShardedJournalView(config.journal_dir)
        assert view.committed_seqs() == list(range(len(smoke_workload)))
        # the dead shard committed some work pre-kill, survivors the rest
        by_shard = view.committed_by_shard()
        assert by_shard[1] >= 1
        assert sum(by_shard.values()) == len(smoke_workload)
        assert recovered_doc(config, smoke_workload) == reference_doc(
            tmp_path, smoke_workload
        )

    def test_budget_exhaustion_sheds_typed_instead_of_hanging(
        self, tmp_path, smoke_workload
    ):
        config = cluster_config(
            tmp_path, shards=1, restart_budget=0, request_timeout=60.0
        )
        killed = []

        def on_result(worker_id, results):
            if results == 2 and not killed:
                killed.append(worker_id)
                coordinator.kill_worker(worker_id)

        coordinator = ShardCoordinator(config, on_result=on_result)
        coordinator.start()
        futures = [
            coordinator.submit(example, seq=seq)
            for seq, example in enumerate(smoke_workload)
        ]
        served = sheds = 0
        for future in futures:
            try:
                future.result(timeout=60)
                served += 1
            except ShardUnavailableError:
                sheds += 1
        stats = coordinator.stats()
        coordinator.shutdown()
        assert served >= 1
        assert sheds >= 1
        assert served + sheds == len(smoke_workload)
        assert stats["shed_unavailable"] == sheds
        assert len(coordinator.ring) == 0
        # health remembers why: the worker's sliding window saw the death
        assert coordinator.health.component_grade("worker-0") != "healthy"

        # recovery finishes what the sheds dropped, byte-identically
        assert recovered_doc(config, smoke_workload) == reference_doc(
            tmp_path, smoke_workload
        )

    def test_storage_brownout_degrades_worker_without_killing_it(
        self, tmp_path, smoke_workload
    ):
        # Every worker's journal segment hits ENOSPC on its third append.
        # The cluster must treat that as a brownout — serve the full
        # workload un-journaled and report the workers storage-degraded —
        # not as a death: no restarts, no rebalances, no shed requests.
        config = cluster_config(tmp_path, storage={"enospc_after": 2})
        with ShardCoordinator(config) as coordinator:
            results = coordinator.run(smoke_workload)
            stats = coordinator.stats()
        assert all(r is not None for r in results)
        assert stats["completed"] == len(smoke_workload)
        assert stats["deaths"] == 0
        assert stats["restarts"] == 0
        assert stats["storage_degraded"] >= 1
        assert "storage-degraded" in stats.format()
        workers = stats["workers"]
        assert any(w["storage_degraded"] for w in workers.values())

    def test_deadline_propagates_across_process_boundary(
        self, tmp_path, smoke_benchmark
    ):
        # A sub-virtual-second budget cannot cover a pipeline answer, so
        # every served result must come back deadline-degraded — which
        # can only happen if the coordinator forwarded the budget to the
        # worker's engine.
        pool = smoke_benchmark.split("dev")[:2]
        config = cluster_config(
            tmp_path, shards=1, spec=replace(SPEC, deadline_ms=250.0)
        )
        with ShardCoordinator(config) as coordinator:
            results = coordinator.run(pool)
        assert all(r is not None for r in results)
        degraded = [
            event
            for record in results
            for event in record["result"]["degradations"]
        ]
        assert degraded, "expected deadline degradation events"
        assert any("DEADLINE" in e["kind"].upper() for e in degraded)


class TestLivedataCluster:
    def test_invalidate_broadcast_reaches_every_shard(
        self, tmp_path, smoke_benchmark
    ):
        """A coordinator-observed mutation fans out: every live worker
        adopts the broadcast epoch (monotone), drops its caches, acks —
        and stamps every later commit for that database with the new
        ``schema_epoch``.  Spawn-time epochs come from the config
        snapshot, so a resumed cluster never restarts its stamps at 0."""
        import time

        config = cluster_config(
            tmp_path, shards=2, livedata=True, schema_epochs={"hockey": 2}
        )
        by_db = {}
        for example in smoke_benchmark.split("dev"):
            by_db.setdefault(example.db_id, []).append(example)
        workload = by_db["healthcare"][:2] + by_db["hockey"][:2]
        with ShardCoordinator(config) as coordinator:
            first = [f.result(timeout=60) for f in map(coordinator.submit, workload)]
            assert all(r is not None for r in first)
            sent = coordinator.broadcast_invalidate("hockey", epoch=3)
            assert sent == 2
            deadline = time.time() + 10
            while coordinator.invalidations_acked() < sent:
                assert time.time() < deadline, "invalidation acks never arrived"
                time.sleep(0.02)
            second = [f.result(timeout=60) for f in map(coordinator.submit, workload)]
            assert all(r is not None for r in second)
            stats = coordinator.stats()
        assert stats["invalidations_broadcast"] == 1
        assert stats["invalidations_acked"] == 2
        assert stats["completed"] == 2 * len(workload)
        # per-shard journals: headers carry the livedata snapshot; hockey
        # commits moved from the spawn epoch to the broadcast epoch while
        # healthcare never left 0
        stamps = {}
        headers = []
        segments = sorted((tmp_path / "segments").glob("journal-shard-*.jsonl"))
        assert len(segments) == 2
        for segment in segments:
            seq_to_db = {}
            for line in segment.read_text().splitlines():
                record = json.loads(line)
                if record.get("type") == "header":
                    headers.append(record.get("config", {}))
                elif record.get("type") == "accepted":
                    seq_to_db[record["seq"]] = record.get("db_id")
                elif record.get("type") == "committed":
                    db_id = seq_to_db.get(record["seq"])
                    stamps.setdefault(db_id, set()).add(
                        record.get("schema_epoch")
                    )
        for header in headers:
            assert header.get("livedata") is True
            assert header.get("schema_epochs") == {"hockey": 2}
        assert stamps.get("healthcare") == {0}
        assert stamps.get("hockey") == {2, 3}
