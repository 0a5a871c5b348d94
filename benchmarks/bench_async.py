"""Async serving — single-flight coalescing + micro-batched LLM calls.

Certifies the async engine's acceptance properties on a fixed seed:

1. **equal EX** — on the same Zipf workload the async engine serves
   byte-identical SQL to the threaded engine (coalescing and batching
   change *when* work happens, never *what* is answered);
2. **>2x virtual throughput** — the async makespan (backend-busy
   seconds: one continuously-batching backend, one API overhead + the
   slowest member's decode per batched invocation) beats the threaded
   engine's *ideal* makespan — total simulated decode seconds split
   evenly across workers — by more than 2x.  The ideal split is both
   deterministic (the engine's real busiest-worker makespan wobbles
   with thread scheduling) and conservative: real imbalance only makes
   the threaded engine slower;
3. **nonzero coalescing/batching** — the win is attributable: the run
   reports coalesced followers and >= 2-member batched invocations, and
   both counters are deterministic across runs (the CI determinism diff
   relies on this).

Sizes shrink under ``REPRO_ASYNC_SMOKE=1`` so CI can run this as a
smoke test.
"""

import os

from repro.core.config import PipelineConfig
from repro.core.pipeline import OpenSearchSQL
from repro.evaluation.report import format_table
from repro.llm.simulated import SimulatedLLM
from repro.llm.skills import GPT_4O
from repro.observability.metrics import MetricsRegistry
from repro.serving import (
    AsyncServingEngine,
    ServingEngine,
    normalize_question,
    zipf_workload,
)

SMOKE = bool(int(os.environ.get("REPRO_ASYNC_SMOKE", "0")))
#: requests / distinct questions in the Zipf pool
LOAD = (32, 8) if SMOKE else (64, 16)
N_CANDIDATES = 5 if SMOKE else 11
WORKERS = 4
ZIPF_SKEW = 1.2
SEED = 0


def _pipeline(bird):
    # Fresh pipeline per engine: both engines wire wrappers (cache tiers,
    # batching shim) onto the pipeline's stage objects at construction.
    llm = SimulatedLLM(GPT_4O, seed=SEED)
    return OpenSearchSQL(bird, llm, PipelineConfig(n_candidates=N_CANDIDATES))


def _compute(bird):
    requests, distinct = LOAD
    load = zipf_workload(bird.dev[:distinct], requests, skew=ZIPF_SKEW, seed=SEED)

    # The equal-answers reference: the threaded engine with its default
    # cache tiers, whose result-cache key is the async engine's dedup key
    # (two raw questions normalizing identically are served one answer by
    # both engines).
    with ServingEngine(
        _pipeline(bird), workers=WORKERS, queue_capacity=len(load)
    ) as engine:
        threaded_results = engine.run(load)
        threaded = engine.stats()

    # The deterministic cost baseline: one bare pipeline run per unique
    # raw question, weighted by multiplicity — exactly what the threaded
    # engine pays per request with caches off.  A live caches-on engine
    # can't provide this number: whether a repeat hits the result tier
    # depends on thread timing (no single-flight — that is the tentpole),
    # so its measured makespan is scheduling-dependent.
    costs: dict = {}
    cost_pipeline = _pipeline(bird)
    for example in load:
        key = (example.db_id, example.question)
        if key not in costs:
            costs[key] = cost_pipeline.answer(example).cost.total_model_seconds
    baseline_model_seconds = sum(costs[(e.db_id, e.question)] for e in load)

    metrics = MetricsRegistry()
    with AsyncServingEngine(
        _pipeline(bird),
        workers=WORKERS,
        queue_capacity=len(load),
        metrics=metrics,
    ) as engine:
        async_results = engine.run(load)
        first = engine.stats()
        # reset_stats() zeroes the registry: export the first pass now
        exported = metrics.snapshot()
        # Second pass on the warmed engine: every repeat is a result-tier
        # hit now, nothing left to coalesce.
        engine.reset_stats()
        warm_results = engine.run(load)
        warm = engine.stats()

    return {
        "load": load,
        "threaded": threaded,
        "threaded_results": threaded_results,
        "baseline_model_seconds": baseline_model_seconds,
        "async": first,
        "async_results": async_results,
        "warm": warm,
        "warm_results": warm_results,
        "metrics": exported,
    }


def test_async_engine(benchmark, bird):
    results = benchmark.pedantic(_compute, args=(bird,), rounds=1, iterations=1)

    threaded, astats, warm = results["threaded"], results["async"], results["warm"]
    requests, distinct = LOAD

    # Deterministic threaded baseline: per-request standalone decode
    # seconds split evenly across workers.  Conservative — real worker
    # imbalance only makes the threaded engine slower than this ideal.
    threaded_makespan = results["baseline_model_seconds"] / WORKERS
    threaded_rps = threaded.completed / threaded_makespan

    rows = [
        ["threaded", threaded.completed, round(threaded_makespan, 1),
         round(threaded_rps, 3), "-", "-"],
        ["async", astats.completed, round(astats.makespan_seconds, 1),
         round(astats.throughput_rps, 3), astats.coalesced, astats.batched_calls],
    ]
    print()
    print(format_table(
        ["Engine", "completed", "makespan s", "req/s", "coalesced", "batched"],
        rows,
        title=f"Async vs threaded ({requests} requests / {distinct} distinct, "
              f"zipf {ZIPF_SKEW}, workers {WORKERS})",
    ))
    print(astats.format())
    speedup = astats.throughput_rps / threaded_rps
    print(f"\nvirtual speedup: {speedup:.2f}x")

    # (a) Equal answers: coalescing/batching never change what is served.
    threaded_sql = [r.final_sql if r else None for r in results["threaded_results"]]
    async_sql = [r.final_sql if r else None for r in results["async_results"]]
    assert threaded_sql == async_sql
    assert None not in async_sql
    assert threaded.completed == astats.completed == requests

    # (b) The certified headline: >2x virtual throughput at equal workers.
    assert speedup > 2.0, (astats.throughput_rps, threaded_rps)

    # (c) The win is attributable and deterministic: one leader per
    # distinct question (cold run), every repeat coalesced; batched
    # invocations covered >= 2 members; the barrier never timed out.
    # dedup is by (db_id, normalized question) — dev pools can contain
    # distinct question ids with identical text, which also coalesce
    distinct_keys = len(
        {(e.db_id, normalize_question(e.question)) for e in results["load"]}
    )
    assert astats.coalesced == requests - distinct_keys
    assert astats.batched_calls > 0
    assert astats.max_batch >= 2
    assert astats.safety_timeouts == 0
    exported = results["metrics"]
    by_status = exported["metrics"]["repro_serving_requests_total"]["samples"]
    assert by_status["status=coalesced"] == astats.coalesced
    assert exported["collected"]["serving"]["async.batched_calls"] == (
        astats.batched_calls
    )

    # (d) A warmed second pass serves repeats from the result tier —
    # nothing left to coalesce, answers unchanged.
    warm_sql = [r.final_sql if r else None for r in results["warm_results"]]
    assert warm_sql == async_sql
    assert warm.coalesced == 0
    assert warm.result_hits == requests
