"""Sharded-cluster certification: supervision, conservation, recovery.

Not a paper table: this bench certifies the PR-6 cluster properties on a
fixed seed, with real spawned worker processes.

**Supervised kill/restart.**  A Zipf-skewed workload is served twice —
once by a single in-process engine (the reference) and once by a 3-shard
:class:`~repro.serving.ShardCoordinator` whose busiest worker is
SIGKILLed after its second served result.  The run certifies:

1. **completion** — every request completes despite the kill; the
   supervisor detects the death and restarts the worker within its
   budget;
2. **conservation** — accept/commit accounting across the shard journal
   segments shows every workload seq committed exactly once
   (:class:`~repro.serving.ShardedJournalView` raises on double-serve);
3. **byte-identical recovery** — ``recover_run`` over the merged
   segment directory produces a deterministic report byte-identical to
   the undisturbed single-process run of the same seed;
4. **typed sheds** — re-running with ``restart_budget=0`` on a single
   shard turns the kill into a permanent death: in-flight requests shed
   with :class:`~repro.serving.ShardUnavailableError` (no hangs), and
   directory recovery still completes the run byte-identically.

Uses the five-database ``cluster-smoke`` profile so worker spawns stay
sub-second.  Sizes shrink under ``REPRO_SERVING_SMOKE=1`` for CI.
"""

import json
import os

from repro.evaluation import assemble_report
from repro.serving import (
    ClusterConfig,
    ServingEngine,
    ServingJournal,
    ShardCoordinator,
    ShardUnavailableError,
    ShardedJournalView,
    recover_run,
    zipf_workload,
)
from repro.serving.spec import RunSpec, build, resolve_benchmark

SMOKE = bool(int(os.environ.get("REPRO_SERVING_SMOKE", "0")))
SEED = 7
ZIPF_SKEW = 1.1
CANDIDATES = 3
SHARDS = 3
KILL_WORKER = 1  # owns the most traffic on this seed (verified below)
KILL_AFTER = 2
REQUESTS = 16 if SMOKE else 28
SPEC = RunSpec(benchmark="cluster-smoke", candidates=CANDIDATES, seed=0)


def _workload(benchmark):
    """One example per database, Zipf-sampled — spans multiple shards."""
    pool, seen = [], set()
    for example in benchmark.split("dev"):
        if example.db_id not in seen:
            seen.add(example.db_id)
            pool.append(example)
    return zipf_workload(pool, requests=REQUESTS, skew=ZIPF_SKEW, seed=SEED)


def _config(tmp_dir, name, **overrides):
    defaults = dict(
        shards=SHARDS,
        spec=SPEC,
        journal_dir=str(tmp_dir / name),
        backoff_base=0.05,
        restart_budget=1,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def _reference_doc(tmp_dir, workload):
    stack = build(SPEC)
    journal = ServingJournal(tmp_dir / "reference" / "single.jsonl")
    with ServingEngine(
        stack.pipeline, workers=1, result_cache_size=512, journal=journal
    ) as engine:
        engine.run(workload)
    outcomes = recover_run(
        ServingJournal(tmp_dir / "reference" / "single.jsonl"), stack.pipeline,
        workload,
    )
    report = assemble_report(outcomes, workload, stack.benchmark)
    return json.dumps(report.deterministic_dict(), sort_keys=True)


def _recovered_doc(config, workload):
    view = ShardedJournalView(config.journal_dir)
    stack = build(config.spec)
    outcomes = recover_run(view, stack.pipeline, workload)
    report = assemble_report(outcomes, workload, stack.benchmark)
    return view, json.dumps(report.deterministic_dict(), sort_keys=True)


def _kill_run(tmp_dir, workload):
    """3-shard run with the busiest worker SIGKILLed mid-run."""
    config = _config(tmp_dir, "killed")
    killed = []

    def on_result(worker_id, results):
        if worker_id == KILL_WORKER and results >= KILL_AFTER and not killed:
            killed.append(worker_id)
            coordinator.kill_worker(worker_id)

    coordinator = ShardCoordinator(config, on_result=on_result)
    with coordinator:
        results = coordinator.run(workload)
        stats = coordinator.stats()
    return {
        "config": config,
        "results": results,
        "stats": stats.to_dict(),
        "killed": killed,
    }


def _shed_run(tmp_dir, workload):
    """Single shard, zero restart budget: the kill is permanent."""
    config = _config(
        tmp_dir, "shed", shards=1, restart_budget=0, request_timeout=60.0
    )
    killed = []

    def on_result(worker_id, results):
        if results >= KILL_AFTER and not killed:
            killed.append(worker_id)
            coordinator.kill_worker(worker_id)

    coordinator = ShardCoordinator(config, on_result=on_result)
    coordinator.start()
    futures = [
        coordinator.submit(example, seq=seq)
        for seq, example in enumerate(workload)
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
    return {
        "config": config,
        "served": served,
        "sheds": sheds,
        "stats": stats.to_dict(),
    }


def _compute(tmp_dir):
    benchmark = resolve_benchmark("cluster-smoke")
    workload = _workload(benchmark)
    return {
        "workload": workload,
        "reference": _reference_doc(tmp_dir, workload),
        "killed": _kill_run(tmp_dir, workload),
        "shed": _shed_run(tmp_dir, workload),
    }


def test_cluster_certification(benchmark, tmp_path):
    runs = benchmark.pedantic(_compute, args=(tmp_path,), rounds=1, iterations=1)
    workload = runs["workload"]

    # 1. Completion: the kill fired, the worker restarted, nothing lost.
    killed = runs["killed"]
    stats = killed["stats"]
    assert killed["killed"] == [KILL_WORKER], "the kill never fired"
    assert stats["deaths"] >= 1
    assert stats["restarts"] >= 1
    assert all(r is not None for r in killed["results"])
    assert stats["completed"] == len(workload)

    # 2. Conservation: every seq committed exactly once across segments
    # (the view raises DoubleServeError otherwise), accepts >= commits.
    view, recovered = _recovered_doc(killed["config"], workload)
    assert view.committed_seqs() == list(range(len(workload)))
    by_shard = view.committed_by_shard()
    assert sum(by_shard.values()) == len(workload)
    active = [shard for shard, count in by_shard.items() if count]
    assert len(active) >= 2, by_shard

    # 3. Byte-identical recovery vs the undisturbed single-process run.
    assert recovered == runs["reference"]

    # 4. Typed sheds under budget exhaustion — then recovery completes.
    shed = runs["shed"]
    assert shed["served"] >= 1
    assert shed["sheds"] >= 1
    assert shed["served"] + shed["sheds"] == len(workload)
    assert shed["stats"]["shed_unavailable"] == shed["sheds"]
    assert shed["stats"]["rebalances"] == 1
    _, shed_recovered = _recovered_doc(shed["config"], workload)
    assert shed_recovered == runs["reference"]

    print()
    print(
        f"cluster      : {SHARDS} shards, {len(workload)} requests, "
        f"worker {KILL_WORKER} SIGKILLed after {KILL_AFTER} results"
    )
    print(
        f"supervision  : {stats['deaths']} deaths, {stats['restarts']} "
        f"restarts, {stats['reroutes']} reroutes"
    )
    print(f"conservation : commits by shard {json.dumps(by_shard, sort_keys=True)}")
    print(
        f"sheds        : {shed['sheds']} typed ShardUnavailableError, "
        f"{shed['served']} served pre-kill"
    )
    print("recovery     : merged report byte-identical to single-process run")
