"""Routing — cost-tiered serving: fast path, escalation, replay fidelity.

Not a paper table: this bench certifies the adaptive routing subsystem's
three acceptance properties on a fixed seed:

1. **cost/quality** — on a mixed-difficulty serving profile (65% simple /
   20% moderate / 15% challenging, drawn from MINI-DEV) the tiered
   pipeline cuts tokens per request by >=30% versus the always-FULL
   baseline while losing at most 1 point of EX (it gains: the no-CoT
   fast path sidesteps the mini skill's CoT weakness on simples);
2. **observability** — tier decisions and escalation events are visible
   end to end: per-example traces carry ``tier:*`` spans with cost
   deltas, and a routed ServingEngine exports tier and escalation
   counts once, through the ``routing`` collector of its MetricsRegistry
   (``routing.final_tiers.*``, ``routing.tokens_by_tier.*``);
3. **replay fidelity** — a journaled routing run killed mid-stream
   recovers to a byte-identical report: the router is deterministic by
   seed, so replay re-routes every uncommitted request to the same tier.

Sizes shrink under ``REPRO_ROUTING_SMOKE=1`` so CI can run this as a
smoke test.
"""

import json
import os
import tempfile
from pathlib import Path

from repro.core.config import PipelineConfig
from repro.core.pipeline import OpenSearchSQL
from repro.datasets.bird import mini_dev
from repro.evaluation.report import format_table
from repro.evaluation.runner import assemble_report, evaluate_pipeline
from repro.llm.simulated import SimulatedLLM
from repro.llm.skills import GPT_4O
from repro.observability.metrics import MetricsRegistry
from repro.routing import RoutingConfig, TieredPipeline
from repro.serving import ServingEngine, zipf_workload
from repro.serving.journal import ServingJournal, recover_run

SMOKE = bool(int(os.environ.get("REPRO_ROUTING_SMOKE", "0")))
#: serving-traffic difficulty mix (BIRD dev is roughly 62/24/14); the
#: profile is the first-k examples per difficulty from a 200-example
#: MINI-DEV sample, so it is stable across runs
PROFILE_MIX = (
    {"simple": 13, "moderate": 4, "challenging": 3}
    if SMOKE
    else {"simple": 65, "moderate": 20, "challenging": 15}
)
N_CANDIDATES = 11 if SMOKE else 21
#: kill/recover load: (requests, distinct) over the profile's examples
JOURNAL_LOAD = (12, 6) if SMOKE else (30, 12)
KILL_AFTER = 5
SEED = 0

MIN_TOKEN_REDUCTION = 0.30
MAX_EX_DROP = 1.0


def _profile(bird):
    """The mixed-difficulty serving workload (fixed per-difficulty order)."""
    pool = mini_dev(bird, size=200)
    by_difficulty: dict[str, list] = {}
    for example in pool:
        by_difficulty.setdefault(example.difficulty, []).append(example)
    examples = []
    for difficulty, count in PROFILE_MIX.items():
        examples.extend(by_difficulty[difficulty][:count])
    return examples


def _full_pipeline(bird):
    llm = SimulatedLLM(GPT_4O, seed=SEED)
    return OpenSearchSQL(bird, llm, PipelineConfig(n_candidates=N_CANDIDATES))


def _tiered_pipeline(bird):
    # Fresh base per tiered wrapper: the router memo and fast-path stages
    # hang off the wrapped pipeline's artifacts.
    return TieredPipeline(_full_pipeline(bird), RoutingConfig())


def _tokens_per_request(report) -> float:
    document = report.deterministic_dict()
    return document["total_tokens"] / document["count"]


def _report_bytes(report) -> bytes:
    return json.dumps(report.deterministic_dict(), sort_keys=True).encode()


def _compute(bird):
    results = {}
    examples = _profile(bird)

    # 1. Cost/quality: always-FULL baseline vs tiered, same examples.
    results["full"] = evaluate_pipeline(_full_pipeline(bird), examples)
    tiered = _tiered_pipeline(bird)
    results["tiered"] = evaluate_pipeline(tiered, examples, tracing=True)
    results["routing_stats"] = tiered.routing_stats()

    # 2. Metrics: a routed engine exports tier/escalation counters.
    requests, distinct = JOURNAL_LOAD
    load = zipf_workload(examples[:distinct], requests, skew=1.2, seed=SEED)
    registry = MetricsRegistry()
    with ServingEngine(
        _tiered_pipeline(bird),
        workers=1,
        queue_capacity=len(load),
        metrics=registry,
    ) as engine:
        engine.run(load)
        results["engine_stats"] = engine.stats()
    results["metrics_render"] = registry.render()
    results["metrics_snapshot"] = registry.snapshot()

    # 3. Kill/recover: journal a routed run, truncate it after KILL_AFTER
    # commits (the crash), then recover on a fresh pipeline and compare
    # reports byte for byte.
    with tempfile.TemporaryDirectory(prefix="bench-routing-") as tmp:
        full_path = Path(tmp) / "journal.jsonl"
        journal = ServingJournal(full_path)
        journal.write_header({"bench": "routing", "seed": SEED})
        outcomes = recover_run(journal, _tiered_pipeline(bird), load)
        uninterrupted = assemble_report(outcomes, load, bird, name="routed")

        # Simulate the kill: keep the header plus the first KILL_AFTER
        # committed records (and any accepted markers before them).
        killed_path = Path(tmp) / "journal-killed.jsonl"
        commits = 0
        with full_path.open(encoding="utf-8") as src, killed_path.open(
            "w", encoding="utf-8"
        ) as dst:
            for line in src:
                record = json.loads(line)
                if record.get("type") == "committed":
                    commits += 1
                dst.write(line)
                if commits >= KILL_AFTER:
                    break
        recovered_journal = ServingJournal(killed_path)
        recovered = assemble_report(
            recover_run(recovered_journal, _tiered_pipeline(bird), load),
            load,
            bird,
            name="routed",
        )
        results["uninterrupted"] = _report_bytes(uninterrupted)
        results["recovered"] = _report_bytes(recovered)
        results["report_meta"] = uninterrupted.meta
    return results


def test_routing_cost_tiers(benchmark, bird):
    results = benchmark.pedantic(_compute, args=(bird,), rounds=1, iterations=1)

    full, tiered = results["full"], results["tiered"]
    stats = results["routing_stats"]
    tpr_full = _tokens_per_request(full)
    tpr_tiered = _tokens_per_request(tiered)
    reduction = (tpr_full - tpr_tiered) / tpr_full

    rows = [
        ["always-FULL", full.ex, round(tpr_full), "-"],
        ["tiered", tiered.ex, round(tpr_tiered), f"{reduction:.1%}"],
    ]
    print()
    print(format_table(
        ["Pipeline", "EX", "tokens/req", "reduction"], rows,
        title=f"Routing: cost tiers on the mixed-difficulty profile "
              f"(n={full.deterministic_dict()['count']})",
    ))
    print(f"decisions   : {stats['decisions']}")
    print(f"final tiers : {stats['final_tiers']}")
    print(f"escalations : {stats['escalations']}")
    print(f"tokens/tier : {stats['tokens_by_tier']}")

    # (a) The certified trade: >=30% fewer tokens/request, <=1pt EX drop.
    assert reduction >= MIN_TOKEN_REDUCTION, (tpr_full, tpr_tiered)
    assert full.ex - tiered.ex <= MAX_EX_DROP, (full.ex, tiered.ex)

    # The router actually split the traffic (both tiers saw requests) and
    # at least one escalation fired and was accounted for.
    assert stats["decisions"].get("fast", 0) > 0
    assert stats["final_tiers"].get("full", 0) > 0
    assert sum(stats["escalations"].values()) > 0

    # (b) Observability: every traced example carries tier spans, and
    # escalated examples carry one span per attempted tier.
    tier_spans_seen = set()
    assert tiered.traces
    for trace in tiered.traces.values():
        spans = [s for s in trace.spans() if s.name.startswith("tier:")]
        assert spans, trace.question_id
        tier_spans_seen.update(s.name for s in spans)
    assert "tier:fast" in tier_spans_seen and "tier:full" in tier_spans_seen

    # tiers and tokens are counted once, by the pipeline; the routing
    # collector exports them
    render = results["metrics_render"]
    assert "routing.final_tiers." in render
    assert "routing.tokens_by_tier." in render
    assert "routing" in results["metrics_snapshot"]["collected"]
    engine_stats = results["engine_stats"]
    assert engine_stats.completed == JOURNAL_LOAD[0]
    assert engine_stats.failed == 0

    # (c) Replay fidelity: the killed-and-recovered report is the
    # uninterrupted report, byte for byte, and it is tier-annotated.
    assert results["recovered"] == results["uninterrupted"]
    assert results["report_meta"].get("tier_mix"), results["report_meta"]
