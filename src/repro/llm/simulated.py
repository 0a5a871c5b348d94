"""The simulated LLM: a deterministic model with explicit error channels.

``SimulatedLLM`` stands in for GPT-4o.  Given a task payload it derives the
*intended* answer from the hidden oracle (the benchmark's gold SQL), then
degrades it through the hallucination channels of its
:class:`~repro.llm.skills.SkillProfile`.  Crucially, each channel's firing
probability is a function of what the prompt honestly contains
(:class:`~repro.llm.tasks.PromptFeatures`): retrieved values suppress the
value channel, a pruned schema shrinks the distractor set, few-shot and CoT
modes scale the structural channels.  Removing a pipeline module therefore
re-opens exactly the failure mode the paper's ablations attribute to it.

Determinism: all draws come from FNV-hashed keys of (seed, question,
channel, candidate), so identical configurations reproduce identical
benchmark tables.  Corruption *content* is keyed by question+channel only,
so a channel that fires on two candidates yields the same wrong SQL —
the property that shapes the self-consistency curves in Figure 4.

Concurrency: because every draw is derived per call from those hashed
keys (no shared mutable RNG), completions are order-independent — the
serving engine may interleave questions across worker threads and each
question still gets byte-identical output.  The parsed-gold cache is a
bounded, thread-safe :class:`~repro.caching.LRUCache`, so long serving
runs do not grow memory without limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.caching import LRUCache
from repro.datasets.types import Example, ValueMention
from repro.llm import noise
from repro.llm._noise_wrongcol import wrong_filter_column
from repro.llm.base import LLMResponse, TokenUsage, count_tokens
from repro.llm.skills import GPT_4O, SkillProfile
from repro.llm.tasks import (
    ColumnSelectionTask,
    CorrectionTask,
    CoTAugmentTask,
    EntityExtractionTask,
    GenerationTask,
    PromptFeatures,
    SelectAlignmentTask,
)
from repro.schema.joins import JoinPathError, assemble_select
from repro.schema.model import Database
from repro.sqlkit.ast import ColumnRef, FuncCall, Literal, Select, TableRef
from repro.sqlkit.parser import ParseError, parse_select
from repro.sqlkit.render import render, render_expr
from repro.sqlkit.sql_like import SQLLike, render_sql_like, select_to_sql_like
from repro.sqlkit.tokenizer import TokenizeError
from repro.sqlkit.transform import collect_column_refs

__all__ = ["SimulatedLLM", "hard_fail_scale", "CALL_OVERHEAD_SECONDS"]

#: Fixed per-invocation API overhead in the simulated latency model.  A
#: micro-batched invocation pays this once for the whole batch while the
#: per-token decode cost of its members overlaps (continuous batching),
#: which is what makes batching a throughput lever at all.
CALL_OVERHEAD_SECONDS = 0.4

def hard_fail_scale(example: Example, gold_like: SQLLike) -> float:
    """Structural complexity multiplier for the hard-fail channel.

    Dataset-agnostic: a one-table, trick-free, clean-value question (the
    Spider profile) scales low; a multi-join, evidence-dependent dirty
    question (BIRD's challenging bucket) scales past 2x.  Trick-family
    traits (semantic pitfalls) weigh more than style-family traits (which
    only affect surface form).
    """
    tables = len(gold_like.tables())
    dirty = any(m.is_dirty for m in example.value_mentions)
    tricks = sum(1 for t in example.traits if t in _TRICK_TRAITS)
    styles = sum(1 for t in example.traits if t in _STYLE_TRAITS)
    return (
        0.5
        + 0.40 * max(0, tables - 1)
        + 0.50 * tricks
        + 0.15 * styles
        + (0.50 if example.evidence else 0.0)
        + (0.35 if dirty else 0.0)
    )


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1

#: trick-family traits handled by the trick_miss channel
_TRICK_TRAITS = ("needs_distinct", "date_format", "evidence_formula")
#: style-family traits handled by the style_break channel
_STYLE_TRAITS = ("nullable_min", "max_vs_limit")


@dataclass(frozen=True)
class _GenerationPlan:
    """What one generation call decides once for all its candidates.

    ``statement`` is the gold SQL-Like after the hard-fail channel, and the
    other per-question channels are settled: ``mentions`` pairs each value
    mention with the wrong stored value it is confused with (or None), and
    ``tricks`` pairs each trick trait with its correlated miss.  A
    per-candidate channel fires when its draw falls under its ``*_rate``
    (0 closes it); a dirty mention's value is corrupted when its draw
    exceeds its rate in ``value_ok_rates``.
    """

    task: GenerationTask
    qid: str
    temperature: float
    statement: SQLLike
    mentions: list[tuple[ValueMention, Optional[str]]]
    value_ok_rates: list[tuple[str, float]]
    tricks: list[tuple[str, bool]]
    trick_rate: float
    style: bool
    agg_rate: float
    shape: bool
    column_rate: float
    wrongcol: bool
    join_rate: float
    syntax_base: bool
    syntax_rate: float


class SimulatedLLM:
    """A deterministic LLM stand-in with configurable hallucination.

    ``complete`` dispatches on the attached task type; calling it without a
    recognized task raises, because a simulation cannot answer free text.
    """

    def __init__(
        self,
        skill: SkillProfile = GPT_4O,
        seed: int = 0,
        gold_cache_size: int = 4096,
    ):
        self.skill = skill
        self.seed = seed
        self.model_name = skill.name
        # Bounded: eviction only costs a deterministic re-parse, so long
        # serving runs stay flat in memory without changing any output.
        self._gold_cache = LRUCache(maxsize=gold_cache_size)
        self._syntax_cache: dict[str, str] = {}

    # ------------------------------------------------------------- helpers

    def _hash(self, *parts: object) -> int:
        value = _FNV_OFFSET
        data = "|".join([str(self.seed), self.skill.name, *map(str, parts)]).encode()
        for byte in data:
            value ^= byte
            value = (value * _FNV_PRIME) & _MASK
        # FNV-1a avalanches poorly on trailing-byte changes (candidate
        # indexes land at the end of the key), so finalize murmur3-style.
        value ^= value >> 33
        value = (value * 0xFF51AFD7ED558CCD) & _MASK
        value ^= value >> 33
        value = (value * 0xC4CEB9FE1A85EC53) & _MASK
        value ^= value >> 33
        return value

    def _uniform(self, *parts: object) -> float:
        return self._hash(*parts) / float(_MASK)

    def _content_rng(self, *parts: object) -> np.random.Generator:
        return np.random.default_rng(self._hash("content", *parts))

    def _gold(self, example: Example) -> tuple[Select, SQLLike]:
        cached = self._gold_cache.get(example.question_id)
        if cached is None:
            select = parse_select(example.gold_sql)
            cached = (select, select_to_sql_like(select))
            self._gold_cache.put(example.question_id, cached)
        return cached

    @staticmethod
    def _latency(prompt_tokens: int, completion_tokens: int) -> float:
        # Simulated wall-clock cost of an API call: fixed overhead plus
        # per-token decode time (reported, never slept).
        return (
            CALL_OVERHEAD_SECONDS + prompt_tokens * 4e-4 + completion_tokens * 0.02
        )

    def _respond(self, prompt: str, texts: list[str]) -> list[LLMResponse]:
        prompt_tokens = count_tokens(prompt)
        counted: dict[str, int] = {}
        responses = []
        for index, text in enumerate(texts):
            completion_tokens = counted.get(text)
            if completion_tokens is None:
                completion_tokens = counted[text] = count_tokens(text)
            # The prompt is charged once per call (beam search shares it).
            charged = prompt_tokens if index == 0 else 0
            responses.append(
                LLMResponse(
                    text=text,
                    usage=TokenUsage(charged, completion_tokens),
                    model=self.model_name,
                    latency_seconds=self._latency(charged, completion_tokens),
                )
            )
        return responses

    # ----------------------------------------------------------------- API

    def complete(
        self,
        prompt: str,
        *,
        temperature: float = 0.0,
        n: int = 1,
        task: Optional[object] = None,
    ) -> list[LLMResponse]:
        """Produce ``n`` completions for the task attached to the prompt."""
        if isinstance(task, GenerationTask):
            # Candidates collapse onto a few outcome tuples, and a tuple
            # fixes the text: build each distinct one once.
            plan = self._plan(task, temperature)
            built: dict[tuple, str] = {}
            texts = []
            for index in range(n):
                outcomes = self._outcomes(plan, index)
                text = built.get(outcomes)
                if text is None:
                    text = built[outcomes] = self._build(plan, outcomes)
                texts.append(text)
            return self._respond(prompt, texts)
        if isinstance(task, CoTAugmentTask):
            return self._respond(prompt, [self._cot_augment(task)])
        if isinstance(task, EntityExtractionTask):
            return self._respond(prompt, [self._extract_entities(task)])
        if isinstance(task, ColumnSelectionTask):
            return self._respond(prompt, [self._select_columns(task)])
        if isinstance(task, CorrectionTask):
            return self._respond(prompt, [self._correct(task, temperature)])
        if isinstance(task, SelectAlignmentTask):
            return self._respond(prompt, [self._align_select(task)])
        raise TypeError(
            "SimulatedLLM requires a structured task payload; got "
            f"{type(task).__name__}"
        )

    def complete_batch(
        self, calls: "list[dict]"
    ) -> "list[list[LLMResponse]]":
        """Answer several calls in one simulated backend invocation.

        Each element of ``calls`` is the keyword form of one
        :meth:`complete` call: ``{"prompt", "temperature", "n", "task"}``.
        Because every draw is keyed by (seed, question, channel,
        candidate) — never by call order — each member's responses are
        byte-identical to what a lone ``complete()`` would return, so
        per-request costs and answers are independent of how the micro-
        batcher happened to group concurrent traffic.  The batching win
        is purely temporal and is accounted by the caller: one
        :data:`CALL_OVERHEAD_SECONDS` for the invocation plus the
        *slowest* member's decode time (members decode in parallel).
        """
        return [
            self.complete(
                call["prompt"],
                temperature=call.get("temperature", 0.0),
                n=call.get("n", 1),
                task=call.get("task"),
            )
            for call in calls
        ]

    # ------------------------------------------------------ generation core

    def _generate_one(self, task: GenerationTask, temperature: float, index: int) -> str:
        """Candidate ``index`` of a generation call, built on its own."""
        plan = self._plan(task, temperature)
        return self._build(plan, self._outcomes(plan, index))

    def _plan(self, task: GenerationTask, temperature: float) -> "_GenerationPlan":
        """The per-call part of a generation: every per-question draw and
        every channel threshold.  Only the per-candidate draws are left to
        :meth:`_outcomes`."""
        example = task.oracle
        features = task.features
        skill = self.skill
        _gold_select, gold_like = self._gold(example)
        qid = example.question_id

        difficulty = skill.difficulty_scale(example.difficulty)
        fewshot = skill.fewshot_factor(features.fewshot_kind)
        if (
            features.fewshot_kind != "none"
            and example.template_id
            and example.template_id not in features.fewshot_template_ids
        ):
            # Few-shot from a different question family helps, but less.
            fewshot = math.sqrt(fewshot)
        cot = skill.cot_factor(features.cot_mode)

        statement = gold_like

        # Irreducible hard failure: drawn once per question, immune to
        # temperature; Query-CoT-SQL few-shot softens it slightly (the paper
        # credits few-shot with raising the model's ceiling).  The rate
        # scales with the question's *structural* complexity — join width,
        # trick count, evidence dependence, value dirtiness — which is what
        # separates BIRD-profile data from Spider-profile data.
        hard_p = min(
            0.9, skill.hard_fail_rate * hard_fail_scale(example, gold_like)
        ) * (0.88 if features.fewshot_kind == "query_cot_sql" else 1.0)
        if self._uniform(qid, "hard_fail") < hard_p:
            statement = self._hard_fail(statement, qid)

        # Value channel: one per-candidate draw per dirty mention.
        mentions = []
        value_ok_rates = []
        for mention in example.value_mentions:
            provided = any(
                mention.stored in value for value in features.provided_values
            )
            if mention.is_dirty:
                value_ok_rates.append(
                    (
                        f"value:{mention.stored}",
                        skill.value_follow_rate if provided else skill.value_guess_rate,
                    )
                )
            # Value confusion: resolving the mention to a plausible-but-WRONG
            # stored value.  Correlated across candidates (the model misreads
            # consistently) and invisible to agent alignment because the
            # wrong value genuinely exists in the column; values retrieval
            # pins the right value and suppresses this almost entirely.
            confuse_p = (0.1 if provided else 1.0) * skill.value_confuse_rate
            wrong = None
            if self._uniform(qid, f"vconf:{mention.stored}") < confuse_p * difficulty:
                wrong = self._confusable_value(task.schema, mention)
            mentions.append((mention, wrong))

        # Trick channels: a skill-dependent share of the miss probability
        # is correlated (the model consistently misreads the trick); the
        # rest is per-candidate sampling noise.  Voting fixes the noise —
        # unless the per-candidate rate crosses 0.5, in which case a large
        # vote locks the (identical-content) error in.
        share = skill.trick_correlated_share
        p = min(0.95, skill.trick_miss_rate * difficulty * fewshot * cot)
        tricks = [
            (trait, self._uniform(qid, f"trickc:{trait}") < share * p)
            for trait in example.traits
            if trait in _TRICK_TRAITS
        ]
        trick_rate = (1.0 - share) * p

        # Style channel — correlated: a model with a style drift drifts
        # consistently across samples, which is why Style Alignment (a rule,
        # not a vote) is the fix the paper reaches for.
        style = False
        if any(trait in _STYLE_TRAITS for trait in example.traits):
            p = min(0.95, skill.style_break_rate * difficulty * fewshot)
            style = self._uniform(qid, "style") < p

        # Aggregate misuse.
        agg_rate = 0.0
        if gold_like.order_by and not gold_like.group_by:
            agg_rate = min(0.9, skill.agg_misuse_rate * difficulty * cot)

        # SELECT shape — correlated: the model's reading of "what outputs
        # does the question want" is stable across samples, which is why the
        # paper fixes it with Info Alignment hints rather than voting.
        shape = False
        if len(gold_like.items) > 1 or "max_vs_limit" in example.traits:
            p = skill.select_shape_rate * difficulty * cot
            if features.select_hints:
                p *= skill.select_hint_factor
            shape = self._uniform(qid, "shape") < min(0.9, p)

        # Column confusion driven by same-name distractors in the prompt.
        column_rate = 0.0
        distractors = self._distractor_count(gold_like, task.schema)
        if distractors:
            p = 1.0 - (1.0 - skill.column_confusion_per_distractor) ** distractors
            column_rate = min(0.9, p * difficulty)

        # Wrong filter column: scales with how much irrelevant schema the
        # prompt shows — this is the channel column filtering exists to close.
        excess = max(0, features.schema_column_count - 10)
        p_wrong = min(0.5, skill.wrong_column_rate * excess / 100.0) * difficulty
        wrongcol = p_wrong > 0 and self._uniform(qid, "wrongcol") < p_wrong

        # Join corruption, applied only to a statement assembled with joins.
        extra_tables = max(0, features.schema_table_count - 1)
        join_rate = min(0.6, skill.join_error_per_table * extra_tables * difficulty)

        # Syntax channel: the base component is correlated (a query shape
        # the model consistently fumbles — only Correction can fix it); the
        # temperature component is per-candidate sampling noise.
        syntax_base = self._uniform(qid, "syntax_base") < skill.syntax_error_base * 2
        syntax_rate = skill.syntax_error_temp_slope * temperature

        return _GenerationPlan(
            task=task,
            qid=qid,
            temperature=temperature,
            statement=statement,
            mentions=mentions,
            value_ok_rates=value_ok_rates,
            tricks=tricks,
            trick_rate=trick_rate,
            style=style,
            agg_rate=agg_rate,
            shape=shape,
            column_rate=column_rate,
            wrongcol=wrongcol,
            join_rate=join_rate,
            syntax_base=syntax_base,
            syntax_rate=syntax_rate,
        )

    def _outcomes(self, plan: "_GenerationPlan", index: int) -> tuple:
        """Candidate ``index``'s per-candidate channel flags.

        The only part of a completion that depends on the candidate: two
        candidates with equal outcomes get equal text."""
        # At temperature 0 every candidate shares one draw; above it the
        # draws are independent per candidate.
        candidate = index if plan.temperature > 0 else "t0"
        qid = plan.qid

        def fired(channel: str, rate: float) -> bool:
            return rate > 0 and self._uniform(qid, channel, candidate) < rate

        return (
            tuple(
                self._uniform(qid, channel, candidate) > ok_rate
                for channel, ok_rate in plan.value_ok_rates
            ),
            tuple(
                correlated or fired(f"trick:{trait}", plan.trick_rate)
                for trait, correlated in plan.tricks
            ),
            fired("agg", plan.agg_rate),
            fired("column", plan.column_rate),
            fired("join", plan.join_rate),
            plan.syntax_base or fired("syntax", plan.syntax_rate),
        )

    def _build(self, plan: "_GenerationPlan", outcomes: tuple) -> str:
        """The completion text for one tuple of channel outcomes."""
        values, tricks, agg, column, join, syntax = outcomes
        task = plan.task
        qid = plan.qid
        statement = plan.statement

        dirty = iter(values)
        for mention, wrong in plan.mentions:
            if mention.is_dirty and next(dirty):
                statement = noise.corrupt_value(statement, mention)
            if wrong is not None:
                statement = self._swap_literal(statement, mention.stored, wrong)
        for (trait, _correlated), missed in zip(plan.tricks, tricks):
            if missed:
                statement = noise.miss_trick(
                    statement, trait, self._content_rng(qid, "trick", trait)
                )
        if plan.style:
            statement = noise.break_style(statement, self._content_rng(qid, "style"))
        if agg:
            statement = noise.inject_agg_misuse(statement)
        if plan.shape:
            statement = noise.break_select_shape(
                statement, self._content_rng(qid, "shape")
            )
        if column:
            statement = noise.misqualify_column(
                statement, task.schema, self._content_rng(qid, "column")
            )
        if plan.wrongcol:
            statement = wrong_filter_column(
                statement, task.schema, self._content_rng(qid, "wrongcol")
            )

        # Assemble the full SQL through the prompt schema's FK graph.
        sql_text, assembled = self._assemble(statement, task.schema, qid)

        if join and assembled is not None and assembled.joins:
            assembled = noise.corrupt_join(
                assembled, task.schema, self._content_rng(qid, "join")
            )
            sql_text = render(assembled)

        if syntax:
            broken = noise.corrupt_syntax(sql_text, self._content_rng(qid, "syntax"))
            if broken != sql_text:
                self._syntax_cache[broken] = sql_text
                sql_text = broken

        return self._render_cot(
            task.oracle, statement, sql_text, task.features.cot_mode
        )

    def _hard_fail(self, statement: SQLLike, qid: str) -> SQLLike:
        """A semantically wrong — but executable — misreading of the
        question: drop a filter, swap the aggregate, flip a comparison or
        sort direction.  Tries mutations in an rng-chosen order and returns
        the first one that actually changes the statement, so a hard-fail
        draw always produces a wrong query."""
        from repro.sqlkit.ast import BinaryOp, Star

        rng = self._content_rng(qid, "hard_fail")

        def drop_filter(stmt: SQLLike) -> SQLLike:
            from repro.sqlkit.ast import IsNull

            conjuncts = [
                c
                for c in noise._where_conjuncts(stmt.where)
                if not isinstance(c, IsNull)  # NULL guards rarely change results
            ]
            if not conjuncts:
                return stmt
            victim = conjuncts[int(rng.integers(len(conjuncts)))]
            return stmt.with_(where=noise._drop_conjunct(stmt.where, victim))

        def swap_agg(stmt: SQLLike) -> SQLLike:
            swaps = {"COUNT": "SUM", "SUM": "COUNT", "AVG": "SUM", "MAX": "MIN", "MIN": "MAX"}
            state = {"done": False}

            def swap(expr):
                if (
                    not state["done"]
                    and isinstance(expr, FuncCall)
                    and expr.name in swaps
                    and not any(isinstance(arg, Star) for arg in expr.args)
                ):
                    state["done"] = True
                    return FuncCall(swaps[expr.name], expr.args, distinct=expr.distinct)
                return None

            return noise.map_sql_like(stmt, swap)

        def flip_comparison(stmt: SQLLike) -> SQLLike:
            flips = {">": "<", "<": ">", ">=": "<=", "<=": ">=", "=": "<>"}
            state = {"done": False}

            def flip(expr):
                if (
                    not state["done"]
                    and isinstance(expr, BinaryOp)
                    and expr.op in flips
                ):
                    state["done"] = True
                    return BinaryOp(flips[expr.op], expr.left, expr.right)
                return None

            return noise.map_sql_like(stmt, flip)

        def flip_order(stmt: SQLLike) -> SQLLike:
            if not stmt.order_by:
                return stmt
            first = stmt.order_by[0]
            flipped = first.__class__(expr=first.expr, desc=not first.desc)
            return stmt.with_(order_by=(flipped,) + stmt.order_by[1:])

        # Prefer mutations that reliably change the result set: flipping
        # the sort direction of a LIMIT query, dropping a real filter, or
        # flipping a comparison; aggregate swaps go last.
        preferred = []
        if statement.order_by and statement.limit is not None:
            preferred.append(flip_order)
        preferred.extend([drop_filter, flip_comparison, swap_agg])
        start = int(rng.integers(2)) if len(preferred) > 2 else 0
        mutations = preferred[start:] + preferred[:start]
        for mutation in mutations:
            mutated = mutation(statement)
            if mutated != statement:
                return mutated
        return statement

    def _confusable_value(self, schema: Database, mention) -> Optional[str]:
        """A different stored value of the mention's column (from the schema
        prompt's value examples), or None when none is known."""
        if not schema.has_table(mention.table):
            return None
        table = schema.table(mention.table)
        if not table.has_column(mention.column):
            return None
        examples = [
            v
            for v in table.column(mention.column).value_examples
            if v != mention.stored
        ]
        if not examples:
            return None
        rng = self._content_rng(mention.table, mention.column, mention.stored, "vconf")
        return examples[int(rng.integers(len(examples)))]

    @staticmethod
    def _swap_literal(statement: SQLLike, old_value: str, new_value: str) -> SQLLike:
        def swap(expr):
            if (
                isinstance(expr, Literal)
                and expr.kind == "string"
                and expr.value == old_value
            ):
                return Literal.string(new_value)
            return None

        return noise.map_sql_like(statement, swap)

    def _distractor_count(self, statement: SQLLike, schema: Database) -> int:
        total = 0
        seen: set[str] = set()
        for table_name in statement.tables():
            pass  # tables handled through column refs below
        for item in statement.items:
            for ref in collect_column_refs(item.expr):
                seen.add(ref.column.lower())
        for part in (statement.where, statement.having):
            if part is not None:
                for ref in collect_column_refs(part):
                    seen.add(ref.column.lower())
        for column_name in seen:
            matches = schema.same_name_columns(column_name)
            if len(matches) > 1:
                total += len(matches) - 1
        return total

    def _assemble(
        self, statement: SQLLike, schema: Database, qid: str
    ) -> tuple[str, Optional[Select]]:
        """Assemble SQL-Like into SQL through the prompt schema; when the
        schema cannot support it (over-pruned), emit the broken single-table
        query a confused model would produce."""
        try:
            assembled = assemble_select(schema, statement)
            return render(assembled), assembled
        except (JoinPathError, KeyError):
            tables = statement.tables()
            anchor = None
            for name in tables:
                if schema.has_table(name):
                    anchor = schema.table(name).name
                    break
            if anchor is None and schema.tables:
                anchor = schema.tables[0].name
            broken = Select(
                items=statement.items,
                from_table=TableRef(name=anchor or "missing_table"),
                where=statement.where,
                group_by=statement.group_by,
                having=statement.having,
                order_by=statement.order_by,
                limit=statement.limit,
                distinct=statement.distinct,
            )
            return render(broken), None

    # --------------------------------------------------------- CoT rendering

    def _render_cot(
        self, example: Example, statement: SQLLike, sql_text: str, cot_mode: str
    ) -> str:
        if cot_mode == "none":
            return f"#SQL: {sql_text}"
        if cot_mode == "unstructured":
            return (
                f"Let's think step by step. The question asks: {example.question} "
                f"We look up the relevant tables and columns, apply the filters, "
                f"and write the query.\n#SQL: {sql_text}"
            )
        columns = sorted(
            {
                ref.qualified
                for item in statement.items
                for ref in collect_column_refs(item.expr)
            }
            | {
                ref.qualified
                for part in (statement.where, statement.having)
                if part is not None
                for ref in collect_column_refs(part)
            }
        )
        values = (
            render_expr(statement.where) if statement.where is not None else "none"
        )
        select_text = ", ".join(render_expr(item.expr) for item in statement.items)
        return "\n".join(
            [
                f"#reason: The question asks: {example.question} "
                "We identify the needed tables, columns and filters, then build "
                "the SQL from the SQL-like skeleton.",
                f"#columns: {', '.join(columns) if columns else 'none'}",
                f"#values: {values}",
                f"#SELECT: {select_text}",
                f"#SQL-like: {render_sql_like(statement)}",
                f"#SQL: {sql_text}",
            ]
        )

    # ------------------------------------------------------------- other tasks

    def _cot_augment(self, task: CoTAugmentTask) -> str:
        """Self-taught CoT for a train pair: derived from the gold SQL, so
        it is faithful (the paper trusts the LLM with gold SQL in hand)."""
        example = task.example
        _select, statement = self._gold(example)
        return self._render_cot(example, statement, example.gold_sql, "structured")

    def _extract_entities(self, task: EntityExtractionTask) -> str:
        example = task.example
        lines: list[str] = []
        for mention in example.value_mentions:
            if self._uniform(example.question_id, "entity", mention.surface) < (
                1.0 - self.skill.entity_miss_rate
            ):
                lines.append(mention.surface)
        # Generic noun-ish phrases: longest words of the question (the model
        # would also extract concepts used for column retrieval).
        words = [w.strip(",.?!'\"") for w in example.question.split()]
        interesting = [w for w in words if len(w) >= 5][:4]
        lines.extend(interesting)
        if example.evidence:
            lines.extend(w for w in example.evidence.split() if len(w) >= 7)
        deduped: dict[str, None] = {}
        for line in lines:
            if line and line not in deduped:
                deduped[line] = None
        return "\n".join(deduped)

    def _select_columns(self, task: ColumnSelectionTask) -> str:
        example = task.example
        _select, statement = self._gold(example)
        qid = example.question_id
        needed: dict[str, None] = {}
        for part in (
            [i.expr for i in statement.items],
            [statement.where, statement.having],
            list(statement.group_by),
            [o.expr for o in statement.order_by],
        ):
            for node in part:
                if node is None:
                    continue
                for ref in collect_column_refs(node):
                    if ref.table:
                        needed[f"{ref.table}.{ref.column}"] = None

        lines: list[str] = []
        for qualified in needed:
            if self._uniform(qid, "colsel", qualified) < self.skill.column_recall:
                lines.append(qualified)
        # Spurious extras the model also selects.
        rng = self._content_rng(qid, "colsel_extra")
        extra_count = int(rng.poisson(self.skill.column_extra_mean))
        all_columns = [
            f"{table.name}.{column.name}" for table, column in task.schema.iter_columns()
        ]
        for _ in range(extra_count):
            if not all_columns:
                break
            candidate = all_columns[int(rng.integers(len(all_columns)))]
            if candidate not in lines:
                lines.append(candidate)
        return "\n".join(lines)

    def _align_select(self, task: SelectAlignmentTask) -> str:
        example = task.oracle
        _select, statement = self._gold(example)
        lines = []
        for index, item in enumerate(statement.items, start=1):
            lines.append(f"{index}. {render_expr(item.expr)}")
        return "\n".join(lines)

    # -------------------------------------------------------------- correction

    def _correct(self, task: CorrectionTask, temperature: float) -> str:
        example = task.oracle
        skill = self.skill
        qid = example.question_id
        fix_rate = skill.correction_fix_rate.get(task.error_kind, 0.4)
        if task.features.fewshot_kind == "none":
            fix_rate *= skill.correction_no_fewshot_factor

        def fixed(channel: str) -> bool:
            return self._uniform(qid, "fix", channel, task.failed_sql[:40]) < fix_rate

        # Syntax errors: the model "remembers" what it meant.
        clean = self._syntax_cache.get(task.failed_sql)
        if clean is not None:
            if fixed("syntax"):
                return f"#SQL: {clean}"
            return f"#SQL: {task.failed_sql}"

        try:
            failed = parse_select(task.failed_sql)
        except (ParseError, TokenizeError):
            return f"#SQL: {task.failed_sql}"

        statement = select_to_sql_like(failed)
        _gold_select, gold_like = self._gold(example)
        changed = False

        # Dirty-value repair: needs the stored values in the prompt.
        if task.error_kind in ("empty", "other_error"):
            for mention in example.value_mentions:
                if not mention.is_dirty:
                    continue
                provided = any(
                    mention.stored in value for value in task.features.provided_values
                )
                rate = fix_rate if provided else fix_rate * 0.3
                if self._uniform(qid, "fixval", mention.stored) < rate:
                    reverse = noise.corrupt_value  # surface -> stored via swap
                    from repro.datasets.types import ValueMention

                    back = ValueMention(
                        surface=mention.stored,
                        stored=mention.surface,
                        table=mention.table,
                        column=mention.column,
                    )
                    repaired = noise.corrupt_value(statement, back)
                    if repaired != statement:
                        statement = repaired
                        changed = True

        # Unknown function (YEAR) or missing column repair.
        if task.error_kind in ("missing_column", "other_error", "ambiguous_column"):
            if fixed("structure"):
                statement = self._repair_structure(statement, gold_like, task.schema)
                changed = True

        # Join/timeout repair happens by re-assembling through the FK graph;
        # semantic misreadings (the hard-fail channel) are untouched — no
        # amount of execution feedback reveals them.
        try:
            assembled = assemble_select(task.schema, statement)
            sql_text = render(assembled)
        except (JoinPathError, KeyError):
            sql_text = task.failed_sql
        return f"#SQL: {sql_text}"

    def _repair_structure(
        self, statement: SQLLike, gold_like: SQLLike, schema: Database
    ) -> SQLLike:
        """Fix YEAR() calls and mis-qualified columns against the schema."""

        def fix(expr):
            if isinstance(expr, FuncCall) and expr.name == "YEAR" and len(expr.args) == 1:
                return FuncCall(
                    "STRFTIME", (Literal.string("%Y"), expr.args[0])
                )
            if isinstance(expr, ColumnRef) and expr.table:
                if schema.has_table(expr.table) and schema.table(expr.table).has_column(
                    expr.column
                ):
                    return None
                # Re-qualify to the gold table for this column if possible.
                for ref in _gold_refs(gold_like):
                    if ref.column.lower() == expr.column.lower() and ref.table:
                        return ColumnRef(column=ref.column, table=ref.table)
            return None

        return noise.map_sql_like(statement, fix)


def _gold_refs(statement: SQLLike) -> list[ColumnRef]:
    refs: list[ColumnRef] = []
    for part in (
        [i.expr for i in statement.items],
        [statement.where, statement.having],
        list(statement.group_by),
        [o.expr for o in statement.order_by],
    ):
        for node in part:
            if node is not None:
                refs.extend(collect_column_refs(node))
    return refs
