"""Benchmark assembly machinery.

A domain contributes a :class:`DomainSpec` (schema, row population, question
templates); :func:`build_benchmark` builds the SQLite database, draws
questions from each template, validates every gold SQL (it must parse in
our dialect AND execute to a non-empty result), and splits examples into
train/dev/test with disjoint parameterizations.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.datasets.types import Example, ValueMention
from repro.execution.executor import ExecutionStatus, SQLExecutor, connect_in_memory
from repro.schema.model import Database
from repro.schema.serialize import schema_to_ddl
from repro.sqlkit.parser import ParseError, parse_select
from repro.sqlkit.tokenizer import TokenizeError

__all__ = [
    "DomainContext",
    "QuestionDraft",
    "TemplateSpec",
    "DomainSpec",
    "BuiltDatabase",
    "Benchmark",
    "build_benchmark",
    "surface_variant",
]


@dataclass
class DomainContext:
    """What a question template can see: the schema and the actual rows."""

    schema: Database
    rows: dict[str, list[tuple]]
    executor: SQLExecutor

    def column_index(self, table: str, column: str) -> int:
        """Position of ``column`` within its table's row tuples."""
        names = [c.name.lower() for c in self.schema.table(table).columns]
        return names.index(column.lower())

    def column_values(self, table: str, column: str) -> list:
        """Distinct non-null values of a column, in first-seen order."""
        index = self.column_index(table, column)
        seen: dict = {}
        for row in self.rows[table]:
            value = row[index]
            if value is not None and value not in seen:
                seen[value] = None
        return list(seen)

    def sample_value(self, table: str, column: str, rng: np.random.Generator):
        """Uniformly sample one distinct non-null value of a column."""
        values = self.column_values(table, column)
        if not values:
            raise ValueError(f"no values to sample in {table}.{column}")
        return values[int(rng.integers(len(values)))]


@dataclass(frozen=True)
class QuestionDraft:
    """One concrete question produced by a template."""

    question: str
    sql: str
    evidence: str = ""
    mentions: tuple[ValueMention, ...] = ()


@dataclass(frozen=True)
class TemplateSpec:
    """A question family: difficulty, traits, and a draft maker.

    ``maker(ctx, rng)`` returns a :class:`QuestionDraft` with freshly drawn
    parameters, or ``None`` when it could not produce one this draw.
    """

    template_id: str
    difficulty: str
    maker: Callable[[DomainContext, np.random.Generator], Optional[QuestionDraft]]
    traits: tuple[str, ...] = ()


@dataclass(frozen=True)
class DomainSpec:
    """One synthetic domain: schema, data population and templates."""

    name: str
    schema: Database
    populate: Callable[[np.random.Generator], dict[str, list[tuple]]]
    templates: tuple[TemplateSpec, ...]
    description: str = ""


@dataclass
class BuiltDatabase:
    """A constructed SQLite database plus its schema model.

    ``rebuild`` recreates an identical connection from the materialized
    DDL + rows; executors wire it as their ``reconnect`` recipe so a
    dropped connection (real or chaos-injected) is recoverable.
    """

    schema: Database
    connection: sqlite3.Connection
    rebuild: Optional[Callable[[], sqlite3.Connection]] = None

    def executor(self, timeout_seconds: float = 5.0) -> SQLExecutor:
        """A fresh executor over this database's connection."""
        return SQLExecutor(
            self.connection,
            timeout_seconds=timeout_seconds,
            reconnect=self.rebuild,
        )


@dataclass
class Benchmark:
    """A full benchmark: databases and split example lists."""

    name: str
    databases: dict[str, BuiltDatabase]
    train: list[Example] = field(default_factory=list)
    dev: list[Example] = field(default_factory=list)
    test: list[Example] = field(default_factory=list)

    def database(self, db_id: str) -> BuiltDatabase:
        """Look up a built database by id (KeyError when absent)."""
        return self.databases[db_id]

    def split(self, name: str) -> list[Example]:
        """The example list for ``train``/``dev``/``test``."""
        if name not in ("train", "dev", "test"):
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)

    @property
    def statistics(self) -> dict:
        """Dataset statistics for the Table 1 bench."""
        return {
            "name": self.name,
            "train": len(self.train),
            "dev": len(self.dev),
            "test": len(self.test),
            "databases": len(self.databases),
            "tables": sum(len(b.schema.tables) for b in self.databases.values()),
            "columns": sum(b.schema.column_count() for b in self.databases.values()),
        }


def _enrich_schema(schema: Database, rows: dict[str, list[tuple]]) -> Database:
    """Fill each text column's ``value_examples`` from the actual data —
    the prompt-facing schema should show real stored values, exactly like
    BIRD's description files (and the simulated model's value-confusion
    channel draws its plausible-but-wrong values from them)."""
    from dataclasses import replace as _replace

    new_tables = []
    for table in schema.tables:
        data = rows.get(table.name, [])
        new_columns = []
        for index, column in enumerate(table.columns):
            if column.is_text and not column.is_primary:
                seen: dict[str, None] = {}
                for row in data:
                    value = row[index]
                    if value is not None and str(value) not in seen:
                        seen[str(value)] = None
                    if len(seen) >= 4:
                        break
                new_columns.append(_replace(column, value_examples=tuple(seen)))
            else:
                new_columns.append(column)
        new_tables.append(_replace(table, columns=tuple(new_columns)))
    return _replace(schema, tables=tuple(new_tables))


def build_database(spec: DomainSpec, rng: np.random.Generator) -> tuple[BuiltDatabase, DomainContext]:
    """Create and populate an in-memory SQLite database for ``spec``."""
    ddl = schema_to_ddl(spec.schema)
    rows = spec.populate(rng)

    def _open() -> sqlite3.Connection:
        conn = connect_in_memory()
        conn.executescript(ddl)
        for table in spec.schema.tables:
            data = rows.get(table.name, [])
            if not data:
                continue
            width = len(table.columns)
            for row in data:
                if len(row) != width:
                    raise ValueError(
                        f"row width {len(row)} != {width} columns "
                        f"in {spec.name}.{table.name}"
                    )
            placeholders = ", ".join("?" * width)
            conn.executemany(
                f'INSERT INTO "{table.name}" VALUES ({placeholders})', data
            )
        conn.commit()
        return conn

    connection = _open()
    schema = _enrich_schema(spec.schema, rows)
    built = BuiltDatabase(schema=schema, connection=connection)

    def _rebuild() -> sqlite3.Connection:
        # Recreate identical content and republish it so later executors
        # over this BuiltDatabase see the live connection.
        built.connection = _open()
        return built.connection

    built.rebuild = _rebuild
    context = DomainContext(schema=schema, rows=rows, executor=built.executor())
    return built, context


def _validate(draft: QuestionDraft, context: DomainContext) -> bool:
    """A draft is usable when its SQL parses in our dialect, executes to a
    non-empty result, and its filters are *discriminative* — removing the
    WHERE filters must change the result, otherwise the question is
    degenerate (any SQL that ignores the filter would score correct)."""
    try:
        select = parse_select(draft.sql)
    except (ParseError, TokenizeError):
        raise ValueError(f"template produced unparseable gold SQL: {draft.sql}")
    outcome = context.executor.execute(draft.sql)
    if outcome.status is not ExecutionStatus.OK:
        return False
    if select.where is not None:
        from repro.sqlkit.ast import IsNull
        from repro.sqlkit.render import render
        from repro.llm.noise import _drop_conjunct, _where_conjuncts

        where = select.where
        for conjunct in _where_conjuncts(select.where):
            if not isinstance(conjunct, IsNull):
                where = _drop_conjunct(where, conjunct)
        if where != select.where:
            unfiltered = context.executor.execute(render(select.with_(where=where)))
            if unfiltered.rows == outcome.rows:
                return False
    return True


def build_benchmark(
    name: str,
    domains: list[DomainSpec],
    per_template_train: int = 3,
    per_template_dev: int = 2,
    per_template_test: int = 2,
    seed: int = 7,
    max_attempts: int = 40,
) -> Benchmark:
    """Build all domain databases and draw examples from every template.

    Parameter draws are disjoint across splits (each accepted draft's
    question text is deduplicated), mirroring how BIRD's train and dev sets
    share question *styles* but not literal questions.
    """
    benchmark = Benchmark(name=name, databases={})
    rng = np.random.default_rng(seed)
    want = (
        ("train", per_template_train),
        ("dev", per_template_dev),
        ("test", per_template_test),
    )
    for spec in domains:
        built, context = build_database(spec, rng)
        benchmark.databases[spec.name] = built
        for template in spec.templates:
            seen_questions: set[str] = set()
            counter = 0
            for split, quota in want:
                produced = 0
                attempts = 0
                while produced < quota and attempts < max_attempts * quota:
                    attempts += 1
                    draft = template.maker(context, rng)
                    if draft is None:
                        continue
                    dedup_key = f"{draft.question}\x00{draft.evidence}"
                    if dedup_key in seen_questions:
                        continue
                    if not _validate(draft, context):
                        continue
                    seen_questions.add(dedup_key)
                    counter += 1
                    example = Example(
                        question_id=f"{spec.name}:{template.template_id}:{counter}",
                        db_id=spec.name,
                        question=draft.question,
                        gold_sql=draft.sql,
                        evidence=draft.evidence,
                        difficulty=template.difficulty,
                        traits=template.traits,
                        value_mentions=draft.mentions,
                        template_id=f"{spec.name}:{template.template_id}",
                        split=split,
                    )
                    benchmark.split(split).append(example)
                    produced += 1
    return benchmark


# --------------------------------------------------------------- dirtiness


def surface_variant(
    stored: str, rng: np.random.Generator, dirty_prob: float = 0.35
) -> str:
    """Produce the natural-language surface form of a stored value.

    BIRD questions sometimes spell values differently from storage (case,
    punctuation, spacing); pipeline value retrieval exists to bridge this.
    A fraction ``dirty_prob`` of draws get a differing surface — BIRD's
    dirtiness affects a minority of questions, not all of them.
    """
    if rng.random() >= dirty_prob:
        return stored
    choices = []
    if stored != stored.title():
        choices.append(stored.title())
    if stored != stored.lower():
        choices.append(stored.lower())
    if stored != stored.capitalize():
        choices.append(stored.capitalize())
    no_punct = stored.replace("_", " ").replace("-", " ")
    if no_punct != stored and no_punct.title() != stored:
        choices.append(no_punct.title())
    if not choices:
        return stored
    return choices[int(rng.integers(len(choices)))]
