"""Command-line interface.

Subcommands::

    python -m repro stats                      # dataset statistics (Table 1)
    python -m repro run --question-id <id>     # answer one benchmark question
    python -m repro evaluate --split dev       # EX / R-VES over a split
    python -m repro ablate                     # quick Table-4-style sweep
    python -m repro baselines                  # Table-2-style leaderboard
    python -m repro serve-bench --workers 4    # serving engine under Zipf load
    python -m repro serve-bench --routing      # cost-tiered routing fast path
    python -m repro serve-bench --shards 3 --journal DIR  # multi-process cluster
    python -m repro recover --journal j.jsonl  # finish a killed serve-bench run
    python -m repro recover --journal DIR      # merge + replay shard segments
    python -m repro fsck --journal PATH        # validate (--repair) a journal
    python -m repro crash-fuzz --out o.jsonl   # power cuts at every append
    python -m repro drift-fuzz --out o.json    # live mutations + reindex kills
    python -m repro route-bench --size 100     # difficulty router tier mix
    python -m repro trace --question-id <id>   # serve one question, print spans
    python -m repro metrics --requests 24      # unified metrics export

Every subcommand accepts ``--benchmark {bird,spider}``, ``--model
{gpt-4o,gpt-4,gpt-4o-mini}``, ``--candidates N`` and ``--seed N``.
The serving commands build their stack from one
:class:`~repro.serving.spec.RunSpec`: serve-bench's flags are its fields,
a journal header records it, and ``recover`` rebuilds from the header.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.baselines.systems import all_baselines
from repro.datasets.bird import mini_dev
from repro.evaluation.report import format_table
from repro.evaluation.runner import (
    ResumeRefusedError,
    assemble_report,
    evaluate_pipeline,
    evaluate_system,
)
from repro.serving.spec import RunSpec, SpecError, build, resolve_benchmark

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OpenSearch-SQL reproduction command-line interface",
    )
    parser.add_argument(
        "--benchmark", choices=("bird", "spider"), default="bird",
        help="which synthetic suite to use (default: bird)",
    )
    parser.add_argument(
        "--model",
        choices=("gpt-4o", "gpt-4", "gpt-4o-mini"),
        default="gpt-4o",
        help="simulated model skill profile (default: gpt-4o)",
    )
    parser.add_argument("--candidates", type=int, default=21, metavar="N",
                        help="self-consistency vote size (default: 21)")
    parser.add_argument("--seed", type=int, default=0)

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("stats", help="print dataset statistics")

    run = sub.add_parser("run", help="answer one benchmark question")
    run.add_argument("--question-id", help="question id (default: first dev)")
    run.add_argument("--split", choices=("dev", "test", "train"), default="dev")

    ev = sub.add_parser("evaluate", help="score the pipeline over a split")
    ev.add_argument("--split", choices=("dev", "test"), default="dev")
    ev.add_argument("--limit", type=int, default=0, metavar="N",
                    help="evaluate only the first N examples (0 = all)")
    ev.add_argument("--checkpoint", metavar="PATH",
                    help="evaluation journal: each example is journaled "
                         "as it is accepted and answered; rerunning with "
                         "the same path replays answered examples and "
                         "finishes the rest")
    ev.add_argument("--fault-rate", type=float, default=0.0, metavar="R",
                    help="inject LLM and database faults at rate R each, "
                         "as serve-bench does (chaos mode; default: 0 = "
                         "off); scoring never sees a fault")
    ev.add_argument("--workers", type=int, default=1, metavar="N",
                    help="score examples on N threads (default: 1); "
                         "EX/EX_G/EX_R are identical to a serial run")
    ev.add_argument("--deadline-ms", type=float, default=0.0, metavar="MS",
                    help="per-example deadline in virtual milliseconds "
                         "(0 = none); exhaustion degrades the answer "
                         "instead of crashing it")

    ab = sub.add_parser("ablate", help="module ablation sweep (Table 4 style)")
    ab.add_argument("--size", type=int, default=150,
                    help="mini-dev sample size (default: 150)")

    sub.add_parser("baselines", help="baseline leaderboard (Table 2 style)")

    sb = sub.add_parser(
        "serve-bench",
        help="drive the serving engine with a Zipf-skewed workload",
    )
    sb.add_argument("--workers", type=int, default=4, metavar="N",
                    help="serving thread-pool size (default: 4)")
    sb.add_argument("--requests", type=int, default=120, metavar="N",
                    help="total requests to issue (default: 120)")
    sb.add_argument("--distinct", type=int, default=0, metavar="N",
                    help="distinct dev questions in the pool "
                         "(default: 0 = whole dev split)")
    sb.add_argument("--pool", choices=("prefix", "spread"), default="prefix",
                    help="how --distinct picks the pool: 'prefix' takes "
                         "the first N dev questions (often one database), "
                         "'spread' round-robins across databases so a "
                         "sharded cluster sees multi-shard traffic "
                         "(default: prefix)")
    sb.add_argument("--zipf", type=float, default=1.2, metavar="S",
                    help="Zipf popularity skew (default: 1.2; 0 = uniform)")
    sb.add_argument("--queue-capacity", type=int, default=64, metavar="N",
                    help="admission queue capacity (default: 64)")
    sb.add_argument("--mode", choices=("closed", "open"), default="closed",
                    help="closed-loop blocks for a slot; open-loop sheds "
                         "when the queue is full (default: closed)")
    sb.add_argument("--no-cache", action="store_true",
                    help="disable all three cache tiers")
    sb.add_argument("--async", dest="use_async", action="store_true",
                    help="serve on the asyncio engine: single-flight "
                         "coalescing of identical in-flight requests plus "
                         "micro-batched LLM calls (queue capacity is "
                         "auto-raised to the request count — admission "
                         "never blocks the event loop)")
    sb.add_argument("--routing", action="store_true",
                    help="adaptive cost-tiered routing: serve each request "
                         "on a FAST (no-CoT mini) / FULL / HEAVY tier with "
                         "confidence-based escalation")
    sb.add_argument("--fault-rate", type=float, default=0.0, metavar="R",
                    help="inject LLM and database faults at rate R each "
                         "(chaos mode; default: 0 = off)")
    sb.add_argument("--deadline-ms", type=float, default=0.0, metavar="MS",
                    help="per-request deadline in virtual milliseconds "
                         "(0 = none)")
    sb.add_argument("--hedge-ms", type=float, default=0.0, metavar="MS",
                    help="hedge SQL executions slower than MS virtual "
                         "milliseconds (0 = hedging off; implied on by "
                         "--fault-rate)")
    sb.add_argument("--backends", type=int, default=0, metavar="N",
                    help="serve through a pool of N replicated LLM "
                         "backends with health-routed failover (0 = single "
                         "backend); with --fault-rate the PRIMARY replica "
                         "is fault-injected and the others stay clean")
    sb.add_argument("--db-max-inflight", type=int, default=0, metavar="N",
                    help="per-database bulkhead: at most N in-flight "
                         "requests per db_id (0 = unbounded)")
    sb.add_argument("--health-shed", action="store_true",
                    help="shed a fraction of requests probabilistically "
                         "when the pipeline health grade degrades, before "
                         "the circuit breaker trips")
    sb.add_argument("--journal", metavar="PATH",
                    help="write-ahead JSONL journal of accepted/committed "
                         "requests; a killed run resumes via "
                         "'repro recover --journal PATH'; with --shards "
                         "this is a DIRECTORY holding one "
                         "journal-shard-K.jsonl segment per worker")
    sb.add_argument("--kill-after", type=int, default=0, metavar="K",
                    help="with --journal: SIGKILL this process after the "
                         "K-th committed result (crash-recovery testing); "
                         "with --kill-worker: kill after the worker's K-th "
                         "served result (default then: 2)")
    sb.add_argument("--shards", type=int, default=0, metavar="N",
                    help="serve through N supervised worker processes "
                         "partitioned by db_id on a consistent-hash ring "
                         "(0 = in-process engine); requires --journal DIR")
    sb.add_argument("--kill-worker", type=int, default=-1, metavar="K",
                    help="with --shards: SIGKILL worker K mid-run after it "
                         "serves --kill-after results (supervision/"
                         "recovery testing; -1 = no kill)")
    sb.add_argument("--restart-budget", type=int, default=1, metavar="N",
                    help="with --shards: restarts allowed per worker "
                         "before its death is permanent and the ring "
                         "rebalances (default: 1)")
    sb.add_argument("--metrics-out", metavar="PATH",
                    help="dump the final MetricsRegistry snapshot to PATH "
                         "as JSON")
    sb.add_argument("--report-out", metavar="PATH",
                    help="with --journal: finish the journaled run as "
                         "'repro recover' does and write its deterministic "
                         "report JSON to PATH")
    sb.add_argument("--storage-enospc-after", type=int, default=0,
                    metavar="N",
                    help="with --journal: the disk returns ENOSPC after N "
                         "journal appends (brownout testing — the run "
                         "must complete un-journaled with the "
                         "journal_disabled counter set); with --shards "
                         "each worker's segment fails independently")
    sb.add_argument("--mutate-every", type=int, default=0, metavar="N",
                    help="live-mutation mode: after every N served "
                         "requests apply one seeded schema/value mutation "
                         "(epoch bump), invalidate the engine's caches "
                         "and reindex the mutated database; requests are "
                         "served serially so mutations land at request "
                         "boundaries, and 'repro recover' replays the same "
                         "schedule (0 = off; not supported with --shards "
                         "or --async)")

    rc = sub.add_parser(
        "recover",
        help="replay a killed serve-bench journal to completion, "
             "re-running exactly the uncommitted requests",
    )
    rc.add_argument("--journal", required=True, metavar="PATH",
                    help="journal written by 'serve-bench --journal PATH' "
                         "(its header pins workload and pipeline config)")
    rc.add_argument("--report-out", metavar="PATH",
                    help="write the recovered run's deterministic report "
                         "JSON to PATH")
    rc.add_argument("--dry-run", action="store_true",
                    help="inspect only: print committed / pending / "
                         "corrupt counts per segment without rebuilding "
                         "the pipeline or replaying anything")

    fs = sub.add_parser(
        "fsck",
        help="validate a journal file or segment directory: checksums, "
             "record sequence, seals, cross-segment double-serves",
    )
    fs.add_argument("--journal", required=True, metavar="PATH",
                    help="journal file, or a cluster segment directory")
    fs.add_argument("--repair", action="store_true",
                    help="truncate torn tails in place and quarantine "
                         "interior damage to a .quarantine sidecar, "
                         "rewriting the good records")

    cf = sub.add_parser(
        "crash-fuzz",
        help="crash-consistency fuzzer: enumerate simulated power cuts "
             "at every journal append boundary of a sharded routed run "
             "and certify recovery at each one",
    )
    cf.add_argument("--shards", type=int, default=3, metavar="N",
                    help="journal segments in the reference run "
                         "(default: 3)")
    cf.add_argument("--requests", type=int, default=12, metavar="N",
                    help="workload size of the reference run (default: 12)")
    cf.add_argument("--distinct", type=int, default=6, metavar="N",
                    help="distinct questions, spread across databases "
                         "(default: 6)")
    cf.add_argument("--bitflips", type=int, default=3, metavar="N",
                    help="seeded single-bit corruption trials on the "
                         "completed run (default: 3)")
    cf.add_argument("--no-torn", action="store_true",
                    help="skip torn (mid-append) cut variants")
    cf.add_argument("--no-routing", action="store_true",
                    help="fuzz an unrouted pipeline (default routes "
                         "through FAST/FULL/HEAVY tiers)")
    cf.add_argument("--out", metavar="PATH",
                    help="write one JSON line per cut outcome to PATH; "
                         "two runs with the same seed must produce "
                         "byte-identical files")

    df = sub.add_parser(
        "drift-fuzz",
        help="drift-chaos certifier: interleave seeded live mutations at "
             "the request boundaries of a routed serving run, then "
             "enumerate simulated SIGKILLs at every reindex-checkpoint "
             "append boundary and certify zero stale serves, zero "
             "double-reindexes and byte-identical kill/resume",
    )
    df.add_argument("--requests", type=int, default=10, metavar="N",
                    help="workload size of the serve phase (default: 10)")
    df.add_argument("--distinct", type=int, default=5, metavar="N",
                    help="distinct questions, spread across databases "
                         "(default: 5)")
    df.add_argument("--mutate-every", type=int, default=1, metavar="N",
                    help="apply one mutation after every N served "
                         "requests (default: 1)")
    df.add_argument("--no-torn", action="store_true",
                    help="skip torn (mid-append) cut variants")
    df.add_argument("--no-routing", action="store_true",
                    help="serve an unrouted pipeline (default routes "
                         "through FAST/FULL/HEAVY tiers)")
    df.add_argument("--out", metavar="PATH",
                    help="write the full campaign outcome document to "
                         "PATH as JSON; two runs with the same seed must "
                         "produce byte-identical files")

    tr = sub.add_parser(
        "trace",
        help="serve one question with tracing on and print its span tree",
    )
    tr.add_argument("--question-id", help="question id (default: first dev)")
    tr.add_argument("--split", choices=("dev", "test", "train"), default="dev")
    tr.add_argument("--json", action="store_true",
                    help="emit the trace as a JSON document instead of the "
                         "tree view")
    tr.add_argument("--deadline-ms", type=float, default=0.0, metavar="MS",
                    help="per-request deadline in virtual milliseconds "
                         "(0 = none)")
    tr.add_argument("--fault-rate", type=float, default=0.0, metavar="R",
                    help="inject LLM and database faults at rate R; "
                         "injections and retries appear as span events")

    rb = sub.add_parser(
        "route-bench",
        help="score the difficulty router over a workload: tier mix, "
             "per-difficulty routing and (optionally) the tiered-vs-full "
             "token comparison",
    )
    rb.add_argument("--size", type=int, default=100, metavar="N",
                    help="mini-dev sample size (default: 100)")
    rb.add_argument("--answer", action="store_true",
                    help="also answer every request through the tiers and "
                         "report EX + tokens/request against an always-FULL "
                         "run (slow)")
    rb.add_argument("--decisions-out", metavar="PATH",
                    help="write one JSON line per request (question_id, "
                         "tier, score, features) — two runs with the same "
                         "seed must produce byte-identical files")

    mt = sub.add_parser(
        "metrics",
        help="serve a Zipf workload and export the unified metrics registry",
    )
    mt.add_argument("--requests", type=int, default=24, metavar="N",
                    help="requests to serve before the export (default: 24)")
    mt.add_argument("--workers", type=int, default=2, metavar="N",
                    help="serving thread-pool size (default: 2)")
    mt.add_argument("--distinct", type=int, default=8, metavar="N",
                    help="distinct dev questions in the pool (default: 8)")
    mt.add_argument("--zipf", type=float, default=1.2, metavar="S",
                    help="Zipf popularity skew (default: 1.2)")
    mt.add_argument("--format", choices=("text", "json", "jsonl"),
                    default="text",
                    help="export format (default: text)")
    return parser


def _build_pipeline(benchmark, args):
    """The unrouted pipeline of the command line's model, vote and seed."""
    return RunSpec.from_args(args).base_pipeline(benchmark)


def _pick_example(benchmark, args, out):
    """``--question-id`` in ``--split`` (default: its first question), or
    None after writing the error line."""
    examples = benchmark.split(args.split)
    if not args.question_id:
        return examples[0]
    matches = [e for e in examples if e.question_id == args.question_id]
    if not matches:
        out.write(f"error: no question {args.question_id!r} in {args.split}\n")
        return None
    return matches[0]


def _cmd_stats(args, out) -> int:
    rows = []
    for name in ("bird", "spider"):
        stats = resolve_benchmark(name).statistics
        rows.append(
            [stats["name"], stats["train"], stats["dev"], stats["test"],
             stats["databases"], stats["tables"], stats["columns"]]
        )
    out.write(
        format_table(
            ["Dataset", "train", "dev", "test", "databases", "tables", "columns"],
            rows,
        )
        + "\n"
    )
    return 0


def _cmd_run(args, out) -> int:
    benchmark = resolve_benchmark(args.benchmark)
    example = _pick_example(benchmark, args, out)
    if example is None:
        return 2
    pipeline = _build_pipeline(benchmark, args)
    result = pipeline.answer(example)
    out.write(f"question : {example.question}\n")
    if example.evidence:
        out.write(f"evidence : {example.evidence}\n")
    out.write(f"sql      : {result.final_sql}\n")
    outcome = pipeline.executor(example.db_id).execute(result.final_sql)
    gold = pipeline.executor(example.db_id).execute(example.gold_sql)
    verdict = "correct" if outcome.rows == gold.rows else "different-result"
    out.write(f"rows     : {outcome.rows[:5]}\n")
    out.write(f"verdict  : {verdict}\n")
    return 0


def _cmd_evaluate(args, out) -> int:
    from repro.serving import JournalCorruptionError, JournalVersionError

    # The spec's pipeline: --fault-rate is its chaos, LLM and database
    # faults both, bound after preprocessing ran on the clean client.
    stack = build(RunSpec.from_args(args))
    examples = stack.benchmark.split(args.split)
    if args.limit:
        examples = examples[: args.limit]
    try:
        report = evaluate_pipeline(
            stack.pipeline, examples,
            checkpoint_path=args.checkpoint,
            workers=args.workers,
            deadline_ms=args.deadline_ms or None,
        )
    except (ResumeRefusedError, JournalCorruptionError, JournalVersionError) as exc:
        out.write(f"error: {exc}\n")
        return 2
    out.write(f"examples : {report.count}\n")
    if args.workers > 1:
        out.write(f"workers  : {args.workers}\n")
    out.write(f"EX       : {report.ex:.1f}\n")
    out.write(f"EX_G     : {report.ex_g:.1f}\n")
    out.write(f"EX_R     : {report.ex_r:.1f}\n")
    out.write(f"R-VES    : {report.r_ves:.1f}\n")
    latency = report.latency_summary()
    if latency.count:
        out.write(
            f"latency  : p50={latency.p50:.2f}s p95={latency.p95:.2f}s "
            f"p99={latency.p99:.2f}s mean={latency.mean:.2f}s (model)\n"
        )
    stage_costs = report.stage_costs()
    if stage_costs:
        out.write("stage costs (per request):\n")
        for stage, row in stage_costs.items():
            out.write(
                f"  {stage:12s} {row['tokens_per_request']:>8.1f} tok  "
                f"{row['model_seconds_per_request']:.3f}s  "
                f"share={row['tokens_share'] * 100:.0f}%\n"
            )
    for difficulty, value in report.ex_by_difficulty().items():
        out.write(f"  {difficulty:12s} {value:.1f}\n")
    if report.errors or report.degradations:
        out.write(f"errors   : {len(report.errors)}\n")
        out.write(f"degraded : {report.degradation_counts()}\n")
    _write_fault_counts(stack, out)
    return 0


def _write_fault_counts(stack, out) -> None:
    """The chaos lines of a stack built with ``--fault-rate``."""
    if stack.llm_faults is not None:
        out.write(f"llm faults : {stack.llm_faults.stats.fault_counts()}\n")
    if stack.db_faults is not None:
        out.write(f"db faults  : {stack.db_faults.fault_counts()}\n")


_ABLATIONS = [
    ("full", {}),
    ("w/o extraction", {"use_extraction": False}),
    ("w/o few-shot", {"fewshot_style": "none"}),
    ("w/o CoT", {"cot_mode": "none"}),
    ("w/o alignments", {"use_alignments": False}),
    ("w/o refinement", {"use_refinement": False}),
    ("w/o SC & vote", {"use_self_consistency": False}),
]


def _cmd_ablate(args, out) -> int:
    from repro.core.config import PipelineConfig
    from repro.core.pipeline import OpenSearchSQL
    from repro.llm.simulated import SimulatedLLM
    from repro.llm.skills import skill_by_name

    benchmark = resolve_benchmark(args.benchmark)
    examples = mini_dev(benchmark, size=args.size) if args.benchmark == "bird" else benchmark.dev
    rows = []
    for name, changes in _ABLATIONS:
        config = PipelineConfig(
            n_candidates=args.candidates, seed=args.seed
        ).with_(**changes)
        llm = SimulatedLLM(skill_by_name(args.model), seed=args.seed)
        pipeline = OpenSearchSQL(benchmark, llm, config)
        report = evaluate_pipeline(pipeline, examples)
        rows.append([name, report.ex_g, report.ex_r, report.ex])
    out.write(format_table(["Setup", "EX_G", "EX_R", "EX"], rows) + "\n")
    return 0


def _cmd_baselines(args, out) -> int:
    benchmark = resolve_benchmark(args.benchmark)
    examples = (
        mini_dev(benchmark, size=150)
        if args.benchmark == "bird"
        else benchmark.dev
    )
    rows = []
    for system in all_baselines(benchmark, seed=args.seed):
        report = evaluate_system(system, benchmark, examples)
        rows.append([system.name, report.ex, report.r_ves])
    pipeline = _build_pipeline(benchmark, args)
    ours = evaluate_pipeline(pipeline, examples, name="OpenSearch-SQL")
    rows.append([ours.system, ours.ex, ours.r_ves])
    rows.sort(key=lambda row: row[1])
    out.write(format_table(["Method", "EX", "R-VES"], rows) + "\n")
    return 0


def _serve_bench_refusal(args) -> Optional[str]:
    """Why this serve-bench command line cannot run, or None."""
    partners = [
        ("--shards", args.shards > 0, args.journal,
         "--journal DIR (one segment per worker is written inside it)"),
        ("--report-out", args.report_out, args.journal, "--journal"),
        ("--kill-after", args.kill_after > 0, args.journal, "--journal"),
        ("--storage-enospc-after", args.storage_enospc_after > 0,
         args.journal, "--journal"),
        ("--kill-worker", args.kill_worker >= 0, args.shards > 0, "--shards"),
    ]
    for flag, used, partnered, partner in partners:
        if used and not partnered:
            return f"{flag} requires {partner}"
    if args.mutate_every > 0 and (args.shards > 0 or args.use_async):
        return ("--mutate-every serves serially on the in-process sync "
                "engine; not supported with --shards or --async")
    if args.shards > 0:
        unsupported = [
            ("--async", args.use_async),
            ("--mode open", args.mode == "open"),
            ("--no-cache", args.no_cache),
            ("--fault-rate", args.fault_rate > 0),
            ("--hedge-ms", args.hedge_ms > 0),
            ("--backends", args.backends > 0),
            ("--db-max-inflight", args.db_max_inflight > 0),
            ("--health-shed", args.health_shed),
        ]
        bad = [flag for flag, on in unsupported if on]
        if bad:
            return f"{', '.join(bad)} not supported with --shards"
    return None


def _cmd_serve_bench(args, out) -> int:
    import os
    import signal
    import tempfile
    from pathlib import Path

    from repro.serving import (
        ClusterConfig,
        ServingJournal,
        ShardCoordinator,
        ShardedJournalView,
    )

    refusal = _serve_bench_refusal(args)
    if refusal:
        out.write(f"error: {refusal}\n")
        return 2
    spec = RunSpec.from_args(args)
    stack = build(spec)
    storage = {}
    if args.storage_enospc_after > 0:
        storage = {"enospc_after": args.storage_enospc_after}

    journal = None
    if args.shards:
        on_result = None
        if args.kill_worker >= 0:
            kill_after = args.kill_after or 2
            killed = []

            def on_result(worker_id: int, results: int) -> None:
                if worker_id == args.kill_worker and results >= kill_after \
                        and not killed:
                    killed.append(worker_id)
                    runner.kill_worker(worker_id)

        config = ClusterConfig(
            shards=args.shards,
            spec=spec,
            journal_dir=args.journal,
            restart_budget=args.restart_budget,
            storage=storage,
        )
        runner = ShardCoordinator(config, on_result=on_result)
        label = f"{args.shards} shards"
    else:
        if args.journal:
            opener = None
            if storage:
                from repro.storage import FaultyStorage, StorageFaultPlan

                opener = FaultyStorage(
                    StorageFaultPlan(**storage), seed=spec.seed
                ).opener
            journal = ServingJournal(args.journal, opener=opener)
            journal.write_header(stack.header())
            if args.kill_after > 0:

                def _kill(commits: int) -> None:
                    if commits >= args.kill_after:
                        os.kill(os.getpid(), signal.SIGKILL)

                journal.on_commit = _kill
        runner = stack.engine(journal=journal)
        label = "async" if spec.use_async else f"{spec.mode}-loop"

    schedule = None
    if spec.mutate_every > 0:
        if args.journal:
            checkpoint_path = Path(str(args.journal) + ".reindex")
        else:
            _reindex_dir = tempfile.TemporaryDirectory(prefix="repro-reindex-")
            checkpoint_path = Path(_reindex_dir.name) / "reindex.jsonl"
        schedule = stack.live_schedule(checkpoint_path, health=runner.health)
        runner.attach_livedata(schedule.registry)

    with runner:
        if schedule is not None:
            # Live-mutation mode serves serially so every mutation lands
            # on a request boundary; the reindexer catches the mutated
            # database up before the next request is admitted.
            results = []
            for position, example in enumerate(stack.workload):
                results.append(runner.answer(example))
                schedule.after(position, runner.invalidate_db)
        elif spec.mode == "open":
            results = runner.run(stack.workload, block=False)
        else:
            results = runner.run(stack.workload)
        stats = runner.stats()
    served = sum(1 for r in results if r is not None)
    out.write(
        f"workload : {spec.requests} requests over {len(stack.pool)} distinct "
        f"questions (zipf skew {spec.zipf}, {label})\n"
    )
    out.write(f"served   : {served}/{len(stack.workload)}\n")
    out.write(stats.format() + "\n")
    if journal is not None and journal.disabled:
        out.write(
            f"journal  : DISABLED after write error "
            f"({journal.disable_reason}); run completed un-journaled\n"
        )
    if schedule is not None:
        reindexer = schedule.reindexer
        kinds: dict = {}
        for event in schedule.driver.events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        mix = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
        live = runner.livedata_stats
        out.write(f"mutations: {len(schedule.driver.events)} applied ({mix})\n")
        out.write(
            f"livedata : stale_detected={live['stale_detected']} "
            f"stale_retried={live['stale_retried']} "
            f"stale_served={live['stale_served']} "
            f"invalidations={live['invalidations']}\n"
        )
        out.write(
            f"reindex  : {len(reindexer.reports)} reindexes, "
            f"{sum(r.vectors for r in reindexer.reports)} vectors, "
            f"catchup {reindexer.total_catchup_seconds:.3f}s (virtual)\n"
        )
        reindexer.close()
    if spec.routing and not args.shards:
        out.write(f"routing  : {stack.pipeline.routing_stats()}\n")
    _write_fault_counts(stack, out)
    if args.metrics_out:
        metrics = runner.merged_metrics() if args.shards else runner.metrics
        target = Path(args.metrics_out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(metrics.to_json() + "\n")
        out.write(f"metrics  : wrote snapshot to {args.metrics_out}\n")
    if args.report_out:
        # The in-memory journal holds every record, even a browned-out
        # run's; a sharded run is read through the merged view of its
        # segments.  Either is finished as `recover` finishes it.
        if args.shards:
            journal = ShardedJournalView(args.journal)
        report = _finish(spec, journal)
        _write_deterministic_report(report, args.report_out)
        out.write(f"report   : wrote {args.report_out} (EX {report.ex:.1f})\n")
    return 0


def _finish(spec, journal):
    """Finish the journaled run ``spec`` describes, seal it and score it.

    ``serve-bench --report-out`` and ``recover`` both end here, so a
    report is a function of the spec and the journal.  The stack is
    rebuilt from the spec with its chaos, deadline, hedge and live-
    mutation schedule; :func:`~repro.serving.journal.recover_run` replays
    every commit and answers what is missing, and the report is scored
    on the benchmark's own executors after the walk, on the final
    catalog.  Raises :class:`~repro.serving.spec.SpecError` for a routed
    tier mix this process would not route, and
    :class:`~repro.livedata.errors.CrossEpochReplayError` for a stamp the
    schedule contradicts; both before anything runs.
    """
    import tempfile
    from pathlib import Path

    from repro.serving import recover_run
    from repro.serving.hedging import hedge_executors

    stack = build(spec)
    stack.check_tier_mix(journal.config)
    if spec.hedge_seconds:
        # the hedge the run's engine installed (recover_run has no engine)
        hedge_executors(stack.pipeline, spec.hedge_seconds)
    with tempfile.TemporaryDirectory(prefix="repro-finish-") as scratch:
        # the replayed schedule reindexes into a scratch checkpoint; the
        # run's own <journal>.reindex is neither read nor appended
        outcomes = recover_run(
            journal,
            stack.pipeline,
            stack.workload,
            result_cache_size=spec.result_cache_size,
            deadline_seconds=spec.deadline_seconds,
            schedule=stack.live_schedule(Path(scratch) / "reindex.jsonl"),
        )
    journal.seal()
    return assemble_report(outcomes, stack.workload, stack.benchmark)


def _write_deterministic_report(report, path) -> None:
    import json
    from pathlib import Path

    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(report.deterministic_dict(), indent=2, sort_keys=True) + "\n"
    )


def _cmd_recover(args, out) -> int:
    from pathlib import Path

    from repro.livedata.errors import CrossEpochReplayError
    from repro.serving import (
        DoubleServeError,
        JournalCorruptionError,
        JournalVersionError,
        ServingJournal,
        ShardedJournalView,
    )

    if args.dry_run:
        return _recover_dry_run(args.journal, out)

    # A directory is a sharded cluster run: discover every
    # journal-shard-K.jsonl segment and replay them as one merged run.
    # Damage surfaces here as a typed one-line error, never a traceback:
    # interior corruption says which segment and points at fsck, a
    # version from the future refuses cleanly, a double-serve names the
    # seq served twice.
    sharded = Path(args.journal).is_dir()
    try:
        if sharded:
            journal = ShardedJournalView(args.journal)
        else:
            journal = ServingJournal(args.journal)
    except (
        FileNotFoundError,
        JournalCorruptionError,
        JournalVersionError,
        DoubleServeError,
    ) as exc:
        out.write(f"error: {exc}\n")
        return 2
    header = journal.config
    if not header:
        out.write(f"error: {args.journal} has no header record\n")
        return 2
    pending_before = len(journal.pending())
    committed_before = len(journal)
    # The header pins everything needed to rebuild the exact run: the
    # workload, the pipeline's deterministic seeds and every serving
    # setting.  A header this version cannot rebuild, a routed run this
    # process would route differently, or a schema_epoch stamp the live-
    # mutation schedule contradicts is refused before anything runs.
    try:
        spec = RunSpec.from_header(header)
        report = _finish(spec, journal)
    except SpecError as exc:
        out.write(f"error: {exc}\n")
        return 2
    except CrossEpochReplayError as exc:
        out.write(f"error: cross-epoch replay refused — {exc}\n")
        return 2
    if sharded:
        shares = ", ".join(
            f"shard{shard}={count}"
            for shard, count in sorted(journal.committed_by_shard().items())
        )
        out.write(f"segments : {len(journal.segments)} ({shares})\n")
    out.write(
        f"journal  : {committed_before} committed, {pending_before} pending, "
        f"{spec.requests - committed_before} to finish\n"
    )
    out.write(f"recovered: {report.count}/{spec.requests} requests\n")
    hazards = spec.replay_hazards()
    if hazards:
        # Finished exactly once, but not replayable byte for byte: see
        # RunSpec.replay_hazards.
        out.write(f"replay   : not certifiable ({', '.join(hazards)})\n")
    if report.meta.get("tier_mix"):
        out.write(f"tier mix : {report.meta['tier_mix']}\n")
    out.write(f"EX       : {report.ex:.1f}\n")
    out.write(f"EX_G     : {report.ex_g:.1f}\n")
    out.write(f"EX_R     : {report.ex_r:.1f}\n")
    out.write(f"tokens   : {report.cost.total_tokens}\n")
    if args.report_out:
        _write_deterministic_report(report, args.report_out)
        out.write(f"report   : wrote {args.report_out}\n")
    return 0


def _recover_dry_run(journal_path, out) -> int:
    """recover --dry-run: tolerant scan, counts only, no replay."""
    from repro.storage import find_double_serves, scan_path

    try:
        scans = scan_path(journal_path)
    except FileNotFoundError as exc:
        out.write(f"error: {exc}\n")
        return 2
    committed: set = set()
    accepted: set = set()
    corrupt = 0
    for name, scan in sorted(scans.items()):
        committed |= scan.committed
        accepted |= scan.accepted
        corrupt += len(scan.issues)
        state = "sealed" if scan.sealed else "unsealed"
        damage = (
            "clean"
            if not scan.issues
            else ("torn tail" if scan.torn_tail and not scan.interior_issues
                  else f"{len(scan.interior_issues)} corrupt")
        )
        out.write(
            f"{name}: v{scan.header_version or 1} {state}, "
            f"{len(scan.committed)} committed, "
            f"{len(scan.accepted - scan.committed)} pending, {damage}\n"
        )
    doubles = find_double_serves(scans)
    out.write(
        f"total: {len(committed)} committed, "
        f"{len(accepted - committed)} pending, {corrupt} corrupt lines, "
        f"{len(doubles)} double-serves\n"
    )
    return 0


def _cmd_fsck(args, out) -> int:
    """Validate (and optionally repair) a journal file or directory."""
    from repro.storage import find_double_serves, repair_file, scan_path

    try:
        scans = scan_path(args.journal)
    except FileNotFoundError as exc:
        out.write(f"error: {exc}\n")
        return 2
    issues = 0
    for name, scan in sorted(scans.items()):
        if not scan.issues:
            status = "ok"
        elif scan.torn_tail and not scan.interior_issues:
            status = "torn tail (safe to truncate)"
        else:
            reasons = sorted({i.reason for i in scan.interior_issues})
            status = f"CORRUPT ({', '.join(reasons)})"
        issues += len(scan.issues)
        out.write(
            f"{name}: v{scan.header_version or 1}, "
            f"{scan.records} records, "
            f"{len(scan.committed)} committed, "
            f"{'sealed' if scan.sealed else 'unsealed'} — {status}\n"
        )
    doubles = find_double_serves(scans)
    for seq, names in sorted(doubles.items()):
        out.write(f"DOUBLE-SERVE: seq {seq} committed by {', '.join(names)}\n")
    if not issues and not doubles:
        out.write("fsck: clean\n")
        return 0
    if not args.repair:
        out.write(
            f"fsck: {issues} damaged lines, {len(doubles)} double-serves "
            f"(run with --repair to truncate tears and quarantine damage)\n"
        )
        return 1
    from pathlib import Path

    base = Path(args.journal)
    for name, scan in sorted(scans.items()):
        if not scan.issues:
            continue
        target = base / name if base.is_dir() else base
        result = repair_file(target)
        actions = []
        if result.tail_truncated:
            actions.append("truncated torn tail")
        if result.quarantined:
            actions.append(
                f"quarantined {result.quarantined} lines to "
                f"{Path(result.quarantine_path).name}"
            )
        if result.rewritten:
            actions.append(f"rewrote {result.records_kept} records")
        out.write(f"repaired {name}: {'; '.join(actions) or 'no-op'}\n")
    # double-serves are not repairable: both records are well-formed, so
    # dropping either would forge history — recovery refuses instead
    return 1 if doubles else 0


def _cmd_crash_fuzz(args, out) -> int:
    """Enumerate power cuts over a reference run and certify recovery."""
    import json
    import tempfile
    from pathlib import Path

    from repro.storage.crashfuzz import CrashFuzzConfig, run_crash_fuzz

    config = CrashFuzzConfig(
        shards=args.shards,
        requests=args.requests,
        distinct=args.distinct,
        seed=args.seed,
        candidates=args.candidates,
        routing=not args.no_routing,
        torn=not args.no_torn,
        bitflips=args.bitflips,
    )
    with tempfile.TemporaryDirectory(prefix="repro-crashfuzz-") as workdir:
        result = run_crash_fuzz(config, workdir)
    out.write(result.format() + "\n")
    for outcome in result.outcomes:
        if not outcome.ok:
            out.write(f"FAIL {json.dumps(outcome.to_dict(), sort_keys=True)}\n")
    if args.out:
        target = Path(args.out)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", encoding="utf-8") as handle:
            for outcome in result.outcomes:
                handle.write(
                    json.dumps(outcome.to_dict(), sort_keys=True) + "\n"
                )
        out.write(f"outcomes : wrote {args.out}\n")
    return 0 if result.ok else 1


def _cmd_drift_fuzz(args, out) -> int:
    """Certify live-mutation robustness: serve-with-drift + kill/resume."""
    import json
    import tempfile
    from pathlib import Path

    from repro.livedata.driftfuzz import DriftFuzzConfig, run_drift_fuzz

    config = DriftFuzzConfig(
        requests=args.requests,
        distinct=args.distinct,
        seed=args.seed,
        candidates=args.candidates,
        routing=not args.no_routing,
        mutate_every=args.mutate_every,
        torn=not args.no_torn,
    )
    with tempfile.TemporaryDirectory(prefix="repro-driftfuzz-") as workdir:
        result = run_drift_fuzz(config, workdir)
    out.write(result.format() + "\n")
    for outcome in result.outcomes:
        if not outcome.ok:
            out.write(f"FAIL {json.dumps(outcome.to_dict(), sort_keys=True)}\n")
    if args.out:
        target = Path(args.out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        out.write(f"outcomes : wrote {args.out}\n")
    return 0 if result.ok else 1


def _cmd_trace(args, out) -> int:
    stack = build(RunSpec.from_args(args))
    example = _pick_example(stack.benchmark, args, out)
    if example is None:
        return 2
    with stack.engine(workers=1, tracing=True) as engine:
        engine.answer(example)
        trace = engine.last_trace()
    if args.json:
        out.write(trace.to_json() + "\n")
    else:
        out.write(trace.format() + "\n")
        out.write("stage costs:\n")
        for stage, row in trace.stage_costs().items():
            out.write(
                f"  {stage:14s} tokens={row['tokens']:<6d} "
                f"model={row['model_seconds']:.3f}s "
                f"charged={row['charged_seconds']:.3f}s\n"
            )
    return 0


def _cmd_route_bench(args, out) -> int:
    import json
    from pathlib import Path

    from repro.routing import TieredPipeline

    benchmark = resolve_benchmark(args.benchmark)
    examples = (
        mini_dev(benchmark, size=args.size)
        if args.benchmark == "bird"
        else benchmark.dev[: args.size]
    )
    tiered = TieredPipeline(_build_pipeline(benchmark, args))
    decisions = [(example, tiered.route(example)) for example in examples]

    mix: dict = {}
    by_difficulty: dict = {}
    for example, decision in decisions:
        tier = decision.tier.value
        mix[tier] = mix.get(tier, 0) + 1
        row = by_difficulty.setdefault(example.difficulty, {})
        row[tier] = row.get(tier, 0) + 1
    out.write(f"examples : {len(examples)}\n")
    out.write(
        "tier mix : "
        + ", ".join(f"{tier}={count}" for tier, count in sorted(mix.items()))
        + "\n"
    )
    tiers = sorted(mix)
    rows = [
        [difficulty] + [by_difficulty[difficulty].get(tier, 0) for tier in tiers]
        for difficulty in sorted(by_difficulty)
    ]
    out.write(format_table(["Difficulty"] + tiers, rows) + "\n")

    if args.decisions_out:
        target = Path(args.decisions_out)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", encoding="utf-8") as handle:
            for example, decision in decisions:
                handle.write(
                    json.dumps(
                        {
                            "question_id": example.question_id,
                            "tier": decision.tier.value,
                            "score": decision.score,
                            "features": decision.features.to_dict(),
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
        out.write(f"decisions: wrote {args.decisions_out}\n")

    if args.answer:
        full = evaluate_pipeline(
            _build_pipeline(benchmark, args), examples, name="always-full"
        )
        tiered_report = evaluate_pipeline(tiered, examples, name="tiered")
        full_tpr = full.cost.total_tokens / max(1, full.count)
        tiered_tpr = tiered_report.cost.total_tokens / max(1, tiered_report.count)
        reduction = (full_tpr - tiered_tpr) / full_tpr * 100 if full_tpr else 0.0
        out.write(
            format_table(
                ["System", "EX", "tokens/request"],
                [
                    ["always-full", full.ex, round(full_tpr, 1)],
                    ["tiered", tiered_report.ex, round(tiered_tpr, 1)],
                ],
            )
            + "\n"
        )
        out.write(f"reduction: {reduction:.1f}% tokens/request "
                  f"(EX delta {tiered_report.ex - full.ex:+.1f})\n")
        out.write(f"routing  : {tiered.routing_stats()}\n")
    return 0


def _cmd_metrics(args, out) -> int:
    stack = build(RunSpec.from_args(args))
    with stack.engine() as engine:
        engine.run(stack.workload)
    registry = engine.metrics
    if args.format == "json":
        out.write(registry.to_json() + "\n")
    elif args.format == "jsonl":
        out.write(registry.to_jsonl() + "\n")
    else:
        out.write(registry.render() + "\n")
    return 0


_COMMANDS = {
    "stats": _cmd_stats,
    "run": _cmd_run,
    "evaluate": _cmd_evaluate,
    "ablate": _cmd_ablate,
    "baselines": _cmd_baselines,
    "serve-bench": _cmd_serve_bench,
    "recover": _cmd_recover,
    "fsck": _cmd_fsck,
    "crash-fuzz": _cmd_crash_fuzz,
    "drift-fuzz": _cmd_drift_fuzz,
    "trace": _cmd_trace,
    "route-bench": _cmd_route_bench,
    "metrics": _cmd_metrics,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out or sys.stdout)
