"""Workload runners: evaluate a pipeline (with EX_G/EX_R/EX traces) or any
generic text-to-SQL system over a list of examples, and the one scorer
every pipeline report goes through.

An evaluation is a served run.  :func:`evaluate_pipeline` journals the
examples into a :class:`~repro.serving.journal.ServingJournal` whose
header marks it as an evaluation journal, answers them on a cache-less
:class:`~repro.serving.engine.ServingEngine`, finishes the journal with
:func:`~repro.serving.journal.recover_run` and scores the outcomes with
:func:`assemble_report` — the path ``serve-bench --report-out`` and
``repro recover`` take.  So:

* **per-example error isolation** — an example that crashes the pipeline
  is committed as ``failed`` and scores 0 with an ``error`` field
  instead of killing the run;
* **resume** — pass ``checkpoint_path`` and the journal lives there;
  re-running with the same path replays committed examples and answers
  the rest, exactly as ``repro recover`` finishes a killed serve-bench
  run, producing the same :meth:`EvalReport.deterministic_dict`;
* **parallel mode** — ``workers=N`` is the engine's pool size.  Because
  the simulated model derives every draw from per-call hashed seeds, a
  parallel run produces the identical EX/EX_G/EX_R as a serial one;
* **one scorer** — :func:`assemble_report` executes gold and predicted
  SQL on the benchmark's own executors, so no pipeline wrapper (chaos,
  hedging, the epoch guard) ever reaches scoring.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Protocol, Union, runtime_checkable

from repro.caching import GoldResultCache
from repro.core.cost import CostTracker
from repro.core.pipeline import OpenSearchSQL, PipelineResult
from repro.datasets.build import Benchmark
from repro.datasets.types import Example
from repro.evaluation.metrics import (
    ExampleScore,
    execution_accuracy,
    r_ves,
    score_example,
    ves,
)
from repro.execution.executor import SQLExecutor
from repro.reliability.faults import BudgetExceededError, CircuitOpenError
from repro.serving.admission import AdmissionError
from repro.serving.engine import ServingEngine
from repro.serving.journal import ServingJournal, recover_run
from repro.serving.latency import LatencySummary

__all__ = [
    "EvalReport",
    "ResumeRefusedError",
    "TextToSQLSystem",
    "assemble_report",
    "evaluate_pipeline",
    "evaluate_system",
]

#: the header config that marks a journal as an evaluation journal
_EVALUATION_HEADER = {"evaluation": True}


@runtime_checkable
class TextToSQLSystem(Protocol):
    """Anything that maps an Example to a final SQL string."""

    name: str

    def answer(self, example: Example):
        """Return the final SQL (or an object with ``final_sql``)."""
        ...


@dataclass
class EvalReport:
    """Aggregated evaluation of one system over one workload."""

    system: str
    scores: list[ExampleScore] = field(default_factory=list)
    generation_scores: list[ExampleScore] = field(default_factory=list)
    refined_scores: list[ExampleScore] = field(default_factory=list)
    cost: CostTracker = field(default_factory=CostTracker)
    #: one dict per degradation event: question_id + the event's fields
    degradations: list[dict] = field(default_factory=list)
    #: per-example simulated model latency (seconds), aligned with scores;
    #: empty for runners that do not track cost (evaluate_system)
    latencies: list[float] = field(default_factory=list)
    #: question_id → Trace for runs with ``tracing=True`` (else empty)
    traces: dict = field(default_factory=dict)
    #: run-level annotations (e.g. a routed run's tier mix); only
    #: non-empty metas serialize, so unannotated reports keep their
    #: historical byte layout
    meta: dict = field(default_factory=dict)

    @property
    def ex(self) -> float:
        """Final execution accuracy (the paper's EX)."""
        return execution_accuracy(self.scores)

    @property
    def ex_g(self) -> float:
        """Single-SQL accuracy straight out of Generation (EX_G)."""
        return execution_accuracy(self.generation_scores)

    @property
    def ex_r(self) -> float:
        """Single-SQL accuracy after refinement, before vote (EX_R)."""
        return execution_accuracy(self.refined_scores)

    @property
    def r_ves(self) -> float:
        """Reward-based Valid Efficiency Score (BIRD leaderboard metric)."""
        return r_ves(self.scores)

    @property
    def ves(self) -> float:
        """BIRD's original (unbounded) Valid Efficiency Score."""
        return ves(self.scores)

    def ex_by_difficulty(self) -> dict[str, float]:
        """EX per difficulty bucket (the Figure 3 view)."""
        buckets: dict[str, list[ExampleScore]] = {}
        for score in self.scores:
            buckets.setdefault(score.difficulty, []).append(score)
        return {
            difficulty: execution_accuracy(scores)
            for difficulty, scores in sorted(buckets.items())
        }

    @property
    def count(self) -> int:
        """Number of evaluated examples."""
        return len(self.scores)

    @property
    def errors(self) -> list[ExampleScore]:
        """Scores of examples the runner had to isolate."""
        return [score for score in self.scores if score.error]

    def latency_summary(self) -> LatencySummary:
        """p50/p95/p99 + mean over per-example model latency.

        The simulator reports decode latency instead of sleeping it, so
        the numbers are stable across machines.
        """
        return LatencySummary.from_values(self.latencies)

    def stage_costs(self) -> dict[str, dict]:
        """Per-stage cost attribution (the paper's Table 6 view).

        Tokens, simulated model seconds and call counts per agent summed
        over the workload, plus per-request means and each stage's share
        of the total token spend.  Stage totals sum to the report's
        request totals by construction (one CostTracker merged per
        example).
        """
        count = max(1, self.count)
        total_tokens = self.cost.total_tokens
        costs: dict[str, dict] = {}
        for name, stage in sorted(self.cost.stages.items()):
            costs[name] = {
                "tokens": stage.total_tokens,
                "model_seconds": round(stage.model_seconds, 6),
                "calls": stage.calls,
                "tokens_per_request": round(stage.total_tokens / count, 2),
                "model_seconds_per_request": round(stage.model_seconds / count, 6),
                "tokens_share": (
                    round(stage.total_tokens / total_tokens, 4)
                    if total_tokens
                    else 0.0
                ),
            }
        return costs

    def degradation_counts(self) -> dict[str, int]:
        """Occurrences per degradation kind across the workload."""
        counts: dict[str, int] = {}
        for event in self.degradations:
            kind = event.get("kind", "unknown")
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def deterministic_dict(self) -> dict:
        """The report's one serialized form: its run-invariant fields.

        Real wall-clock measurements (gold/predicted execution times,
        per-stage wall seconds, VES time ratios) differ between two
        otherwise identical runs and stay out.  This view keeps only
        what the deterministic simulator pins down — accuracy scores,
        token/call/model-second stage costs, virtual latency, degradation
        and error counts, and per-example outcomes — so two runs over the
        same workload with the same seeds serialize *byte-identically*.
        Crash-recovery certification diffs exactly this document.
        """
        document = {
            "system": self.system,
            "count": self.count,
            "ex": self.ex,
            "ex_g": self.ex_g,
            "ex_r": self.ex_r,
            "ex_by_difficulty": self.ex_by_difficulty(),
            "stage_costs": self.stage_costs(),
            "total_tokens": self.cost.total_tokens,
            "total_model_seconds": round(self.cost.total_model_seconds, 6),
            "latency": LatencySummary.from_values(
                [round(value, 6) for value in self.latencies]
            ).to_dict(),
            "errors": len(self.errors),
            "degradations": self.degradation_counts(),
            "scores": [
                {
                    "question_id": score.question_id,
                    "correct": score.correct,
                    "predicted_status": score.predicted_status,
                    "difficulty": score.difficulty,
                    "error": score.error,
                }
                for score in self.scores
            ],
        }
        if self.meta:
            document["meta"] = dict(sorted(self.meta.items()))
        return document


class ResumeRefusedError(ValueError):
    """A ``checkpoint_path`` file this evaluation cannot resume."""


def _error_score(example: Example, error: str) -> ExampleScore:
    """The zero score an isolated (crashed) example receives."""
    return ExampleScore(
        question_id=example.question_id,
        correct=False,
        gold_time=0.0,
        predicted_status="crashed",
        difficulty=example.difficulty,
        error=error,
    )


def _executors(
    benchmark: Benchmark, timeout_seconds: float = 5.0
) -> Callable[[str], SQLExecutor]:
    """The scorer's executor lookup: one unwrapped executor per database,
    built on first use (5 s is ``PipelineConfig.execution_timeout``)."""
    executors: dict[str, SQLExecutor] = {}

    def executor(db_id: str) -> SQLExecutor:
        if db_id not in executors:
            executors[db_id] = benchmark.database(db_id).executor(timeout_seconds)
        return executors[db_id]

    return executor


def _open_journal(path: Union[str, Path], examples: list[Example]) -> ServingJournal:
    """Open (or resume) the evaluation journal at ``path``.

    Refuses, before any example runs, a non-empty file without the
    evaluation header (an older checkpoint format, a serve-bench journal)
    and a file whose accepted records name other questions than
    ``examples`` at the same positions.  Records past the end of
    ``examples`` are ignored, so a longer run resumes a shorter one's
    journal and a shorter run replays a prefix of a longer one's.
    """
    journal = ServingJournal(path)
    if journal.config != _EVALUATION_HEADER:
        if journal.config or (journal.path.exists() and journal.path.stat().st_size):
            raise ResumeRefusedError(
                f"{path} is not an evaluation journal (no evaluation header); "
                f"refusing to resume from it"
            )
        journal.write_header(_EVALUATION_HEADER)
    for seq in journal.accepted_seqs():
        if seq >= len(examples):
            break
        recorded = journal.accepted(seq)["question_id"]
        if recorded != examples[seq].question_id:
            raise ResumeRefusedError(
                f"{path} accepted question {recorded!r} at position {seq}, "
                f"where this run has {examples[seq].question_id!r}; "
                f"refusing to resume another workload's journal"
            )
    return journal


def evaluate_pipeline(
    pipeline: OpenSearchSQL,
    examples: list[Example],
    name: Optional[str] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    workers: int = 1,
    gold_cache: Optional[GoldResultCache] = None,
    deadline_ms: Optional[float] = None,
    tracing: bool = False,
) -> EvalReport:
    """Run an OpenSearch-SQL pipeline over ``examples``, scoring the three
    observables (EX_G, EX_R, EX) the paper's ablation tables report.

    Example ``i`` is request ``i`` of a served run: it is journaled to
    ``checkpoint_path`` (a temporary file when None), answered on a
    :class:`~repro.serving.engine.ServingEngine` with every cache tier
    off and ``workers`` threads, and scored by :func:`assemble_report` in
    ``examples`` order.  A crashed example never kills the run: it scores
    0 with an ``error`` field.  Rerunning with the same
    ``checkpoint_path`` replays committed examples and answers only the
    rest; a file that is not this workload's evaluation journal raises
    :class:`ResumeRefusedError`.  ``deadline_ms`` bounds each example with
    a per-request :class:`~repro.reliability.deadline.Deadline` (virtual
    time); exhaustion degrades the answer — visible in the report's
    ``deadline_exceeded`` degradation counts — instead of crashing it.
    ``tracing=True`` records one :class:`~repro.observability.trace.Trace`
    per freshly answered example into ``report.traces`` (replayed
    examples carry no trace).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if deadline_ms is not None and deadline_ms <= 0:
        raise ValueError("deadline_ms must be > 0")
    deadline_seconds = deadline_ms / 1000.0 if deadline_ms is not None else None
    with tempfile.TemporaryDirectory(prefix="repro-eval-") as scratch:
        journal = _open_journal(
            checkpoint_path or Path(scratch) / "journal.jsonl", examples
        )
        with ServingEngine(
            pipeline,
            workers=workers,
            result_cache_size=0,
            extraction_cache_size=0,
            fewshot_cache_size=0,
            deadline_seconds=deadline_seconds,
            tracing=tracing,
            journal=journal,
        ) as engine:
            for seq, example in enumerate(examples):
                if journal.committed(seq) is None:
                    try:
                        engine.submit(example, block=True, seq=seq)
                    except (AdmissionError, BudgetExceededError, CircuitOpenError):
                        pass  # refused (e.g. the breaker is open): finished below
        # Leaving the engine drained its pool; recover_run replays every
        # commit and answers what the engine refused, as `repro recover`
        # finishes a killed run.
        outcomes = recover_run(
            journal, pipeline, examples,
            result_cache_size=0, deadline_seconds=deadline_seconds,
        )
        # the engine's shutdown seal precedes what recovery appended
        journal.seal()
    report = assemble_report(
        outcomes, examples, pipeline.benchmark,
        name=name or f"opensearch-sql[{pipeline.llm.model_name}]",
        gold_cache=gold_cache,
    )
    for example in examples:
        trace = engine.trace_for(example.question_id)
        if trace is not None:
            report.traces[example.question_id] = trace
    return report


def assemble_report(
    outcomes: list[tuple[str, Optional[PipelineResult], CostTracker, Optional[str]]],
    workload: list[Example],
    benchmark: Benchmark,
    name: str = "journaled",
    gold_cache: Optional[GoldResultCache] = None,
) -> EvalReport:
    """Score :func:`~repro.serving.journal.recover_run` outcomes into an
    :class:`EvalReport`.

    Every pipeline report is built here: evaluations, ``serve-bench
    --report-out`` and ``repro recover`` (an uninterrupted run's complete
    journal replays without re-running anything), so a crash-recovery
    certification compares two documents produced by identical code.
    Gold and predicted SQL run on ``benchmark``'s own executors, never a
    pipeline's, so chaos, hedging and the epoch guard cannot touch a
    score.  Cached outcomes contribute zero cost — in the original run
    they did no model work, and the journal committed them as such.
    """
    report = EvalReport(system=name)
    gold = gold_cache if gold_cache is not None else GoldResultCache()
    executor_for = _executors(benchmark)
    tier_mix: dict[str, int] = {}
    escalation_mix: dict[str, int] = {}
    for example, (status, result, cost, error) in zip(workload, outcomes):
        routing = getattr(result, "routing", None)
        if routing is not None:
            tier_mix[routing.final_tier] = tier_mix.get(routing.final_tier, 0) + 1
            for event in routing.escalations:
                escalation_mix[event.reason] = (
                    escalation_mix.get(event.reason, 0) + 1
                )
        if status == "failed" or result is None:
            score = _error_score(example, error or "request failed")
            report.scores.append(score)
            report.generation_scores.append(score)
            report.refined_scores.append(score)
            report.latencies.append(0.0)
            continue
        executor = executor_for(example.db_id)
        gold_outcome = gold.outcome(example, executor)
        report.scores.append(
            score_example(example, result.final_sql, executor, gold_outcome)
        )
        report.generation_scores.append(
            score_example(example, result.generation_sql, executor, gold_outcome)
        )
        report.refined_scores.append(
            score_example(example, result.refined_sql, executor, gold_outcome)
        )
        report.latencies.append(cost.total_model_seconds)
        report.cost.merge(cost)
        for event in result.degradations:
            report.degradations.append(
                {"question_id": example.question_id, **event.to_dict()}
            )
    if tier_mix:
        # Routed runs annotate the report; the annotation replays from
        # journal records, so kill/recover keeps it byte-identical.
        report.meta["tier_mix"] = dict(sorted(tier_mix.items()))
        if escalation_mix:
            report.meta["escalations"] = dict(sorted(escalation_mix.items()))
    return report


def evaluate_system(
    system: TextToSQLSystem,
    benchmark: Benchmark,
    examples: list[Example],
    timeout_seconds: float = 5.0,
    gold_cache: Optional[GoldResultCache] = None,
) -> EvalReport:
    """Evaluate any text-to-SQL system (baseline or pipeline wrapper).

    Gold outcomes go through the same shared, lock-protected
    :class:`~repro.caching.GoldResultCache` as :func:`assemble_report`
    (pass one in to share it across runs), SQL runs on the benchmark's
    own executors, and crashed examples are isolated.
    """
    report = EvalReport(system=system.name)
    executor_for = _executors(benchmark, timeout_seconds)
    gold = gold_cache if gold_cache is not None else GoldResultCache()
    for example in examples:
        try:
            executor = executor_for(example.db_id)
            gold_outcome = gold.outcome(example, executor)
            answer = system.answer(example)
            sql = answer if isinstance(answer, str) else getattr(answer, "final_sql", "")
            score = score_example(example, sql, executor, gold_outcome)
        except Exception as exc:
            score = _error_score(example, f"{type(exc).__name__}: {exc}")
        report.scores.append(score)
    return report
