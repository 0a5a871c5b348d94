"""Refinement stage (paper §3.6, Figure 2): alignment → correction →
self-consistency & vote.

Each candidate SQL is (optionally) aligned, executed, and — on execution
errors or empty results — corrected by an LLM call armed with the matching
error-typed few-shot (paper Listing 3).  The final SQL is selected by
Equation 3: majority execution result first, cheapest execution as the
tie-break; error/empty candidates are excluded from the vote.  Execution
cost is the deterministic SQLite step count
(:attr:`~repro.execution.executor.ExecutionOutcome.steps`), so the same
candidates always elect the same SQL text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.alignment import apply_alignments
from repro.core.config import PipelineConfig
from repro.core.cost import CostTracker
from repro.core.extraction import ExtractionResult
from repro.core.generation import parse_sql_from_completion
from repro.core.preprocessing import CORRECTION_FEWSHOTS, PreprocessedDatabase
from repro.datasets.types import Example
from repro.embedding.vectorizer import HashingVectorizer
from repro.execution.executor import ExecutionOutcome, ExecutionStatus, SQLExecutor
from repro.llm.base import LLMClient
from repro.llm.prompts import correction_prompt
from repro.observability.context import use_span
from repro.reliability.deadline import Deadline
from repro.llm.tasks import CorrectionTask, PromptFeatures
from repro.sqlkit.parser import ParseError, parse_select
from repro.sqlkit.render import render
from repro.sqlkit.tokenizer import TokenizeError

__all__ = ["RefinedCandidate", "RefinementResult", "Refiner", "vote", "vote_share"]

#: error statuses caused by the database substrate, not the SQL text;
#: correction prompting is skipped for these (no few-shot can fix them)
_INFRASTRUCTURE_STATUSES = frozenset(
    {
        ExecutionStatus.LOCKED,
        ExecutionStatus.DISK_ERROR,
        ExecutionStatus.CONNECTION_ERROR,
    }
)


@dataclass
class RefinedCandidate:
    """One candidate's journey through refinement."""

    raw_sql: str
    aligned_sql: str
    final_sql: str
    outcome: Optional[ExecutionOutcome] = None
    corrected: bool = False


@dataclass
class RefinementResult:
    """Refinement output: the chosen SQL plus per-candidate traces."""

    final_sql: str
    candidates: list[RefinedCandidate] = field(default_factory=list)
    #: True when a deadline stopped refinement before all candidates ran
    truncated: bool = False

    @property
    def first_refined_sql(self) -> Optional[str]:
        """The first candidate's post-refinement SQL (the paper's EX_R
        observable: a single SQL before self-consistency & vote)."""
        return self.candidates[0].final_sql if self.candidates else None


def _result_key(outcome: ExecutionOutcome) -> tuple:
    """Hashable execution-result identity used for vote grouping.

    Row order is ignored (BIRD's comparison is order-insensitive unless
    the query orders), which keeps equivalent candidates in one bucket.
    """
    return tuple(sorted(
        tuple((cell is None, str(cell)) for cell in row) for row in outcome.rows
    ))


def _result_groups(
    candidates: list[RefinedCandidate],
) -> list[list[RefinedCandidate]]:
    """The valid (OK) candidates grouped by execution result, groups and
    members in candidate order.  Copies that share one outcome object
    share its key, so each distinct outcome is keyed once."""
    groups: dict[tuple, list[RefinedCandidate]] = {}
    keys: dict[int, tuple] = {}
    for candidate in candidates:
        outcome = candidate.outcome
        if outcome is None or outcome.status is not ExecutionStatus.OK:
            continue
        key = keys.get(id(outcome))
        if key is None:
            key = keys[id(outcome)] = _result_key(outcome)
        groups.setdefault(key, []).append(candidate)
    return list(groups.values())


def vote(candidates: list[RefinedCandidate]) -> Optional[RefinedCandidate]:
    """Self-consistency & vote (paper Eq. 3).

    Excludes candidates that errored or returned empty results, groups the
    rest by execution result, picks the largest group, and within it the
    candidate whose execution ran the fewest SQLite steps; equal steps go
    to the first candidate in order.
    """
    groups = _result_groups(candidates)
    if not groups:
        return None
    bucket = max(groups, key=len)
    return min(bucket, key=lambda c: c.outcome.steps)


def vote_share(candidates: list[RefinedCandidate]) -> Optional[float]:
    """Share of valid candidates held by the winning result group.

    The self-consistency confidence signal the routing layer reads: a
    thin winning group means the vote barely agreed on the answer.
    Returns ``None`` when no candidate executed to a valid (OK) result.
    """
    groups = _result_groups(candidates)
    if not groups:
        return None
    return max(map(len, groups)) / sum(map(len, groups))


class Refiner:
    """Runs the Refinement stage for one question's candidate set."""

    def __init__(
        self,
        llm: LLMClient,
        config: Optional[PipelineConfig] = None,
        vectorizer: Optional[HashingVectorizer] = None,
    ):
        self.llm = llm
        self.config = config or PipelineConfig()
        self.vectorizer = vectorizer or HashingVectorizer()

    # ----------------------------------------------------------- alignment

    def align(self, sql: str, pre: PreprocessedDatabase, executor: SQLExecutor) -> str:
        """Apply the post-generation alignments; unparseable SQL passes
        through untouched (the correction step will deal with it)."""
        if not self.config.use_alignments:
            return sql
        try:
            select = parse_select(sql)
        except (ParseError, TokenizeError):
            return sql
        aligned = apply_alignments(
            select, pre, executor, self.vectorizer, self.config.similarity_threshold
        )
        return render(aligned)

    # ---------------------------------------------------------- correction

    def correct(
        self,
        example: Example,
        sql: str,
        outcome: ExecutionOutcome,
        pre: PreprocessedDatabase,
        extraction: ExtractionResult,
        cost: Optional[CostTracker] = None,
    ) -> Optional[str]:
        """One correction round for a failed/empty candidate."""
        error_kind = (
            "empty" if outcome.status is ExecutionStatus.EMPTY else outcome.status.value
        )
        few_shots: list[str] = []
        fewshot_kind = "none"
        if self.config.refinement_fewshot:
            shot = CORRECTION_FEWSHOTS.get(error_kind)
            if shot:
                few_shots.append(shot)
                fewshot_kind = "query_sql"
        features = PromptFeatures(
            provided_values=extraction.provided_values,
            schema_column_count=extraction.schema.column_count() if extraction.schema else 0,
            schema_table_count=len(extraction.schema.tables) if extraction.schema else 0,
            fewshot_kind=fewshot_kind,
            cot_mode="none",
        )
        prompt = correction_prompt(
            question=example.question,
            failed_sql=sql,
            error_kind=error_kind,
            error_message=outcome.error or "Result: None",
            schema_text=extraction.schema_prompt,
            values=extraction.provided_values,
            few_shots=few_shots,
        )
        responses = self.llm.complete(
            prompt,
            temperature=self.config.generation_temperature,
            n=1,
            task=CorrectionTask(
                oracle=example,
                schema=extraction.schema or pre.schema,
                features=features,
                failed_sql=sql,
                error_kind=error_kind,
                error_message=outcome.error or "",
            ),
        )
        if cost is not None:
            cost.record_responses("refinement", responses)
        fixed = parse_sql_from_completion(responses[0].text)
        if fixed and fixed.strip() != sql.strip():
            return fixed
        return None

    # ----------------------------------------------------------------- run

    def run(
        self,
        example: Example,
        sqls: list[str],
        pre: PreprocessedDatabase,
        extraction: ExtractionResult,
        executor: SQLExecutor,
        cost: Optional[CostTracker] = None,
        deadline: Optional["Deadline"] = None,
        span=None,
    ) -> RefinementResult:
        """Refine all candidates and select the final SQL.

        ``deadline`` (when given) is checked before each candidate and each
        correction round, and caps every SQL execution at the remaining
        budget; hitting it stops further refinement (``truncated=True``)
        rather than raising — already-refined candidates still vote.

        ``span`` (when tracing) grows two children — ``alignment`` for the
        post-generation alignments and ``execution`` for the SQL runs of
        the align-execute-correct loop.  The execution span is published
        ambiently around each run, so executors and their wrappers
        (fault injection, hedging) attach their events to it.

        Sampled candidates repeat: each distinct SQL text is aligned and
        executed once per call, and its copies share the result.  A
        transient outcome (timeout, lock, disk or connection fault) is not
        shared; the next copy executes again.  Corrections are still asked
        for once per copy.
        """
        config = self.config
        align_span = span.child("alignment") if span is not None else None
        exec_span = span.child("execution") if span is not None else None
        aligned_by_sql: dict[str, str] = {}
        outcome_by_sql: dict[str, ExecutionOutcome] = {}

        def align_traced(sql: str) -> str:
            aligned = aligned_by_sql.get(sql)
            if aligned is not None:
                return aligned
            # Alignment probes the database (value checks); publishing the
            # alignment span attributes those executions to it.
            with use_span(align_span):
                aligned = aligned_by_sql[sql] = self.align(sql, pre, executor)
            if align_span is not None:
                align_span.event("align", changed=aligned.strip() != sql.strip())
            return aligned

        def execute_traced(sql: str) -> ExecutionOutcome:
            outcome = outcome_by_sql.get(sql)
            if outcome is not None:
                return outcome
            with use_span(exec_span):
                outcome = executor.execute(sql, deadline)
            if not outcome.status.is_transient:
                outcome_by_sql[sql] = outcome
            return outcome

        refined: list[RefinedCandidate] = []
        truncated = False
        for sql in sqls:
            if deadline is not None and deadline.expired:
                truncated = True
                break
            aligned = align_traced(sql)
            candidate = RefinedCandidate(raw_sql=sql, aligned_sql=aligned, final_sql=aligned)
            outcome = execute_traced(aligned)
            if (
                config.use_refinement
                and config.use_correction
                and outcome.status is not ExecutionStatus.OK
                # locked/disk/connection faults are not the SQL's fault —
                # retry, recycling and hedging recover them; an LLM rewrite
                # cannot.  TIMEOUT still corrects: a runaway join is the
                # SQL's fault even though a hedge may also clear it.
                and outcome.status not in _INFRASTRUCTURE_STATUSES
            ):
                current_sql, current = aligned, outcome
                for _round in range(config.max_correction_rounds):
                    if deadline is not None and deadline.expired:
                        truncated = True
                        break
                    fixed = self.correct(
                        example, current_sql, current, pre, extraction, cost
                    )
                    if fixed is None:
                        break
                    fixed = align_traced(fixed)
                    fixed_outcome = execute_traced(fixed)
                    if fixed_outcome.status is ExecutionStatus.OK or (
                        not fixed_outcome.status.is_error and current.status.is_error
                    ):
                        candidate.corrected = True
                        current_sql, current = fixed, fixed_outcome
                        break
                    current_sql, current = fixed, fixed_outcome
                candidate.final_sql, outcome = current_sql, current
            candidate.outcome = outcome
            refined.append(candidate)

        winner = None
        if config.use_refinement and config.use_self_consistency and len(refined) > 1:
            winner = vote(refined)
        if winner is None and refined:
            # Without self-consistency (or when every candidate failed) the
            # paper's single-SQL setting applies: take the first candidate.
            winner = refined[0]
        if winner is not None:
            final_sql = winner.final_sql
        else:
            # Deadline hit before any candidate ran: the first raw
            # candidate stands in unrefined.
            final_sql = sqls[0] if sqls else ""
        if span is not None:
            span.set("candidates", len(refined))
            span.set("corrected", sum(1 for c in refined if c.corrected))
            span.set("truncated", truncated)
            align_span.finish(deadline)
            exec_span.finish(deadline)
        return RefinementResult(
            final_sql=final_sql, candidates=refined, truncated=truncated
        )
