"""Failover + durability certification for the serving path.

Not a paper table: this bench certifies the two PR-5 robustness
properties on a fixed seed.

**Backend failover.**  A Zipf-skewed workload is served twice — once on a
single clean simulated model (the baseline) and once on a
:class:`~repro.serving.backends.BackendPool` of three ResilientLLM
replicas whose *primary* is fault-injected at ``RATE`` (50%).  The
primary keeps a deliberately short retry budget so injected faults
actually escape to the pool instead of being absorbed by retries.  The
run certifies:

1. **containment** — every request completes, nothing raises;
2. **EX retention** — the pool run keeps >= 95% of the fault-free EX
   (failover reroutes what the primary drops);
3. **conserved routing** — per-replica served counts sum to the pool's
   total calls, failovers were observed, no call exhausted all replicas;
4. **determinism** — an identical pool run replays byte-for-byte.

**Journal recovery.**  A fault-free journaled run is "killed" by
truncating its write-ahead journal mid-file (torn half-line included —
what SIGKILL leaves behind), then recovered with a fresh pipeline.  The
recovered deterministic report must be byte-identical to the
uninterrupted run's, and replayed requests must not re-spend tokens
(double-count-proof cost accounting).

Runs ``workers=1``: the LLM fault injector draws from a sequential RNG
and the pool's sticky-primary routing is stateful, so thread scheduling
would otherwise reorder both.  Sizes shrink under
``REPRO_SERVING_SMOKE=1`` for CI.
"""

import json
import os

from repro.core.config import PipelineConfig
from repro.core.pipeline import OpenSearchSQL
from repro.evaluation.metrics import execution_accuracy, score_example
from repro.evaluation.runner import assemble_report
from repro.evaluation.report import format_table
from repro.llm.simulated import SimulatedLLM
from repro.llm.skills import GPT_4O
from repro.reliability import FaultInjectingLLM, FaultPlan, ResilientLLM
from repro.reliability.transport import RetryPolicy
from repro.serving import (
    BackendPool,
    ServingEngine,
    ServingJournal,
    recover_run,
    zipf_workload,
)

SMOKE = bool(int(os.environ.get("REPRO_SERVING_SMOKE", "0")))
RATE = 0.5
SEED = 0
ZIPF_SKEW = 1.2
REPLICAS = 3
LOAD = (18, 6) if SMOKE else (48, 12)
#: journal certification workload (closed-loop, single worker)
JOURNAL_LOAD = (10, 5) if SMOKE else (16, 8)
#: where to chop the killed journal (line count, after the header)
KILL_AT = 5


def _pipeline(bird):
    llm = SimulatedLLM(GPT_4O, seed=SEED)
    return OpenSearchSQL(bird, llm, PipelineConfig(n_candidates=11))


def _build_pool(pipeline):
    """Three replicas over the simulated model, primary chaos-injected.

    The primary's retry budget is clamped to 2 attempts so roughly
    RATE**2 of its calls still fail after retries — enough escapes for
    the failover path to be exercised, not so many that the pool starves.
    """
    clients = []
    injector = None
    for index in range(REPLICAS):
        inner = pipeline.llm
        policy = None
        if index == 0:
            inner = injector = FaultInjectingLLM(
                inner, FaultPlan.chaos(RATE), seed=SEED
            )
            policy = RetryPolicy(max_attempts=2)
        clients.append(ResilientLLM(inner, policy=policy, seed=SEED + index))
    return BackendPool(clients), injector


def _serve(bird, load, pooled):
    pipeline = _pipeline(bird)
    pool = injector = None
    if pooled:
        pool, injector = _build_pool(pipeline)
        pipeline.rebind_llm(pool)
    with ServingEngine(
        pipeline,
        workers=1,
        queue_capacity=len(load),
        backends=pool,
    ) as engine:
        results = engine.run(load)
        stats = engine.stats()
    return {
        "results": results,
        "stats": stats,
        "pool": pool,
        "injector": injector,
    }


def _score(bird, load, results):
    """EX over the served workload, judged with clean executors."""
    executors = {}
    scores = []
    for example, result in zip(load, results):
        executor = executors.get(example.db_id)
        if executor is None:
            executor = bird.database(example.db_id).executor()
            executors[example.db_id] = executor
        sql = result.final_sql if result is not None else None
        scores.append(score_example(example, sql, executor))
    return execution_accuracy(scores)


def _journal_certification(bird, tmp_dir):
    """Kill/recover round trip: byte-identical report, no double counts."""
    requests, distinct = JOURNAL_LOAD
    load = zipf_workload(bird.dev[:distinct], requests, skew=ZIPF_SKEW, seed=SEED)

    full_path = tmp_dir / "full.jsonl"
    journal = ServingJournal(full_path)
    journal.write_header({"requests": requests})
    with ServingEngine(
        _pipeline(bird), workers=1, queue_capacity=requests, journal=journal
    ) as engine:
        engine.run(load)

    def report_from(path):
        pipeline = _pipeline(bird)
        outcomes = recover_run(ServingJournal(path), pipeline, load)
        return assemble_report(outcomes, load, bird)

    full_report = report_from(full_path)

    # the kill: a journal prefix plus a torn half-line
    lines = full_path.read_text().splitlines()
    killed_path = tmp_dir / "killed.jsonl"
    killed_path.write_text(
        "\n".join(lines[:KILL_AT]) + "\n" + lines[KILL_AT][: len(lines[KILL_AT]) // 2]
    )
    killed = ServingJournal(killed_path)
    pending = len(killed.pending())
    recovered_report = report_from(killed_path)
    return {
        "load": load,
        "pending": pending,
        "full": full_report,
        "recovered": recovered_report,
    }


def _compute(bird, tmp_dir):
    requests, distinct = LOAD
    load = zipf_workload(bird.dev[:distinct], requests, skew=ZIPF_SKEW, seed=SEED)
    runs = {
        "clean": _serve(bird, load, pooled=False),
        "pool": _serve(bird, load, pooled=True),
        "replay": _serve(bird, load, pooled=True),
    }
    runs["clean"]["ex"] = _score(bird, load, runs["clean"]["results"])
    runs["pool"]["ex"] = _score(bird, load, runs["pool"]["results"])
    runs["load"] = load
    runs["journal"] = _journal_certification(bird, tmp_dir)
    return runs


def _conserved(stats):
    assert stats.submitted == (
        stats.admitted + stats.shed + stats.shed_health + stats.rejected_open
        + stats.rejected_budget + stats.rejected_draining
        + stats.rejected_bulkhead
    ), stats.to_dict()
    assert stats.admitted == stats.completed + stats.failed, stats.to_dict()


def test_failover_certification(benchmark, bird, tmp_path):
    runs = benchmark.pedantic(
        _compute, args=(bird, tmp_path), rounds=1, iterations=1
    )

    clean, pool_run, replay = runs["clean"], runs["pool"], runs["replay"]
    pool = pool_run["pool"]
    retention = pool_run["ex"] / clean["ex"] if clean["ex"] else 0.0
    injected = len(pool_run["injector"].stats.faults)

    snapshot = pool.snapshot()
    rows = [
        ["clean", clean["ex"], "-", 0, "-"],
        [f"pool ({REPLICAS} replicas)", pool_run["ex"], f"{retention:.0%}",
         injected, pool.stats.failovers],
    ]
    print()
    print(format_table(
        ["Run", "EX", "retention", "primary faults", "failovers"],
        rows,
        title=f"Failover: EX retention with primary at {RATE:.0%} fault rate",
    ))
    print(f"routing      : {json.dumps(snapshot['replicas'], sort_keys=True)}")
    print(f"served/replica: {pool.stats.to_dict()['served']}")

    # 1. Containment: every request completed on both runs.
    for run in (clean, pool_run, replay):
        assert all(r is not None for r in run["results"])
        assert run["stats"].failed == 0
        _conserved(run["stats"])
    assert injected > 0, "primary injector never fired"

    # 2. EX retention: the pool keeps >= 95% of the fault-free accuracy.
    assert retention >= 0.95, (pool_run["ex"], clean["ex"])

    # 3. Conserved routing: served counts sum to calls, failover actually
    # happened, and no call ran out of replicas.
    served = pool.stats.served
    assert sum(served.values()) == pool.stats.calls
    assert pool.stats.failovers > 0
    assert pool.stats.exhausted == 0
    assert set(served) <= set(range(REPLICAS))

    # 4. Determinism: an identical pool run replays byte-for-byte.
    assert [r.final_sql for r in replay["results"]] == [
        r.final_sql for r in pool_run["results"]
    ]
    assert replay["pool"].stats.to_dict() == pool.stats.to_dict()

    # 5. Journal recovery: byte-identical report, no double-counted costs.
    cert = runs["journal"]
    assert cert["pending"] > 0, "the kill lost nothing — move KILL_AT"
    full, recovered = cert["full"], cert["recovered"]
    assert json.dumps(full.deterministic_dict(), sort_keys=True) == json.dumps(
        recovered.deterministic_dict(), sort_keys=True
    )
    assert recovered.cost.total_tokens == full.cost.total_tokens
    print(
        f"journal      : {cert['pending']} pending after kill, "
        f"recovered EX {recovered.ex:.1f} == full EX {full.ex:.1f}, "
        f"{recovered.cost.total_tokens} tokens (no double count)"
    )
