"""Simulated LLM tests: determinism, feature-sensitivity of every channel,
task dispatch, correction behaviour.

These tests pin the causal contract in DESIGN.md: each prompt feature must
*reduce* the firing rate of its channel, measured over many questions.
"""

import hashlib

import pytest

from repro.datasets.types import Example, ValueMention
from repro.llm.simulated import SimulatedLLM
from repro.llm.skills import GPT_4O, GPT_4O_MINI
from repro.llm.tasks import (
    ColumnSelectionTask,
    CorrectionTask,
    CoTAugmentTask,
    EntityExtractionTask,
    GenerationTask,
    PromptFeatures,
    SelectAlignmentTask,
)
from repro.schema.model import Column, Database, ForeignKey, Table

SCHEMA = Database(
    name="clinic",
    tables=(
        Table(
            "Patient",
            (
                Column("ID", "INTEGER", is_primary=True),
                Column("Name", "TEXT", value_examples=("JOHN", "MARY", "OMAR")),
                Column("City", "TEXT", value_examples=("OSLO", "LIMA")),
                Column("Score", "REAL"),
            ),
        ),
        Table(
            "Visit",
            (
                Column("VisitID", "INTEGER", is_primary=True),
                Column("ID", "INTEGER"),
                Column("Name", "TEXT"),
                Column("Date", "DATE"),
            ),
        ),
    ),
    foreign_keys=(ForeignKey("Visit", "ID", "Patient", "ID"),),
)


def example(qid="q1", **kwargs):
    defaults = dict(
        question_id=qid,
        db_id="clinic",
        question="How many patients are called John?",
        gold_sql="SELECT COUNT(*) FROM Patient WHERE Patient.Name = 'JOHN'",
        difficulty="moderate",
        value_mentions=(ValueMention("John", "JOHN", "Patient", "Name"),),
        template_id="clinic:count",
    )
    defaults.update(kwargs)
    return Example(**defaults)


def features(**kwargs):
    defaults = dict(
        provided_values=(),
        schema_column_count=8,
        schema_table_count=2,
        fewshot_kind="none",
        cot_mode="structured",
    )
    defaults.update(kwargs)
    return PromptFeatures(**defaults)


def gen_task(ex, **feat):
    return GenerationTask(oracle=ex, schema=SCHEMA, features=features(**feat))


def extract_sql(text):
    for line in reversed(text.splitlines()):
        if line.startswith("#SQL:"):
            return line[len("#SQL:"):].strip()
    return text


def sql_of(llm, task, temperature=0.0, index=0):
    return extract_sql(llm._generate_one(task, temperature, index))


class TestDispatch:
    def test_requires_task(self):
        with pytest.raises(TypeError):
            SimulatedLLM().complete("hello")

    def test_generation_returns_n(self):
        llm = SimulatedLLM(seed=1)
        responses = llm.complete(
            "prompt", temperature=0.7, n=5, task=gen_task(example())
        )
        assert len(responses) == 5

    def test_prompt_tokens_charged_once(self):
        llm = SimulatedLLM()
        responses = llm.complete(
            "a prompt with several tokens", n=3, task=gen_task(example())
        )
        assert responses[0].usage.prompt_tokens > 0
        assert all(r.usage.prompt_tokens == 0 for r in responses[1:])

    def test_latency_reported(self):
        llm = SimulatedLLM()
        (response,) = llm.complete("p", task=gen_task(example()))
        assert response.latency_seconds > 0


class TestDeterminism:
    def test_same_seed_same_output(self):
        a = SimulatedLLM(seed=5)
        b = SimulatedLLM(seed=5)
        task = gen_task(example())
        assert a._generate_one(task, 0.7, 3) == b._generate_one(task, 0.7, 3)

    def test_different_seed_can_differ(self):
        task = gen_task(example())
        outs = {
            SimulatedLLM(seed=s)._generate_one(task, 0.7, 0) for s in range(12)
        }
        assert len(outs) > 1

    def test_temperature_zero_candidates_identical(self):
        llm = SimulatedLLM(seed=2)
        task = gen_task(example())
        outs = {llm._generate_one(task, 0.0, i) for i in range(6)}
        assert len(outs) == 1

    def test_temperature_creates_candidate_variation(self):
        llm = SimulatedLLM(GPT_4O_MINI, seed=2)
        examples = [example(qid=f"q{i}") for i in range(30)]
        varied = 0
        for ex in examples:
            task = gen_task(ex)
            outs = {llm._generate_one(task, 0.7, i) for i in range(8)}
            varied += len(outs) > 1
        assert varied > 0


def channel_rate(llm, make_task, n_questions=300, wrong_test=None):
    """Fraction of questions whose candidate-0 SQL differs from gold."""
    wrong = 0
    for i in range(n_questions):
        ex = example(qid=f"q{i}")
        sql = sql_of(llm, make_task(ex), temperature=0.7)
        if sql != ex.gold_sql and (wrong_test is None or wrong_test(sql)):
            wrong += 1
    return wrong / n_questions


class TestValueChannel:
    def test_provided_values_suppress_value_errors(self):
        llm = SimulatedLLM(seed=0)

        def with_values(ex):
            return gen_task(ex, provided_values=("Patient.Name = 'JOHN'",))

        def without_values(ex):
            return gen_task(ex)

        rate_with = channel_rate(llm, with_values, wrong_test=lambda s: "'John'" in s)
        rate_without = channel_rate(
            llm, without_values, wrong_test=lambda s: "'John'" in s
        )
        assert rate_with < rate_without

    def test_value_confusion_suppressed_by_retrieval(self):
        llm = SimulatedLLM(seed=0)

        def confused(sql):
            return "'MARY'" in sql or "'OMAR'" in sql

        rate_without = channel_rate(llm, lambda ex: gen_task(ex), wrong_test=confused)
        rate_with = channel_rate(
            llm,
            lambda ex: gen_task(ex, provided_values=("Patient.Name = 'JOHN'",)),
            wrong_test=confused,
        )
        assert rate_with < rate_without


class TestFewshotAndCoT:
    def test_fewshot_reduces_trick_misses(self):
        llm = SimulatedLLM(seed=0)

        def make(fewshot_kind, templates=()):
            def f(ex):
                return gen_task(
                    ex, fewshot_kind=fewshot_kind, fewshot_template_ids=templates
                )
            return f

        def distinct_ex(qid):
            return example(
                qid=qid,
                gold_sql="SELECT COUNT(DISTINCT Patient.Name) FROM Patient",
                traits=("needs_distinct",),
                value_mentions=(),
            )

        def rate(kind, templates=()):
            wrong = 0
            for i in range(300):
                ex = distinct_ex(f"q{i}")
                sql = sql_of(llm, make(kind, templates)(ex), temperature=0.7)
                if "DISTINCT" not in sql:
                    wrong += 1
            return wrong / 300

        none = rate("none")
        plain = rate("query_sql", ("clinic:count",))
        cot = rate("query_cot_sql", ("clinic:count",))
        assert cot < plain < none

    def test_cot_mode_reduces_structural_errors(self):
        llm = SimulatedLLM(seed=0)

        def superlative(qid):
            return example(
                qid=qid,
                gold_sql=(
                    "SELECT Patient.Name FROM Patient WHERE Patient.Score IS NOT NULL "
                    "ORDER BY Patient.Score DESC LIMIT 1"
                ),
                value_mentions=(),
                traits=(),
            )

        def rate(mode):
            wrong = 0
            for i in range(300):
                ex = superlative(f"q{i}")
                sql = sql_of(llm, gen_task(ex, cot_mode=mode), temperature=0.7)
                if "MAX(" in sql:
                    wrong += 1
            return wrong / 300

        assert rate("structured") < rate("none")


class TestSchemaChannels:
    def test_bigger_schema_more_wrong_columns(self):
        llm = SimulatedLLM(seed=0)
        small = channel_rate(
            llm, lambda ex: gen_task(ex, schema_column_count=8), n_questions=400
        )
        big = channel_rate(
            llm, lambda ex: gen_task(ex, schema_column_count=40), n_questions=400
        )
        assert big > small

    def test_missing_table_falls_back_to_broken_sql(self):
        llm = SimulatedLLM(seed=0)
        pruned = SCHEMA.subset({"Visit": ["Name", "Date"]})
        ex = example()
        task = GenerationTask(oracle=ex, schema=pruned, features=features())
        sql = sql_of(llm, task)
        # Patient is gone: the model writes something ungrounded.
        assert "FROM Visit" in sql or "missing_table" in sql


class TestHardFail:
    def test_hard_fail_immune_to_features(self):
        """Questions the model hard-fails stay wrong regardless of prompt
        quality (the ceiling no module can lift)."""
        from repro.llm.simulated import hard_fail_scale
        from repro.sqlkit.parser import parse_select
        from repro.sqlkit.sql_like import select_to_sql_like

        llm = SimulatedLLM(seed=0)
        probe = example()
        scale = hard_fail_scale(
            probe, select_to_sql_like(parse_select(probe.gold_sql))
        )
        hard_ids = [
            f"q{i}"
            for i in range(400)
            if llm._uniform(f"q{i}", "hard_fail")
            < llm.skill.hard_fail_rate * scale * 0.88
        ]
        assert hard_ids, "expected some hard-fail questions"
        for qid in hard_ids[:10]:
            ex = example(qid=qid)
            rich = gen_task(
                ex,
                provided_values=("Patient.Name = 'JOHN'",),
                fewshot_kind="query_cot_sql",
                fewshot_template_ids=("clinic:count",),
                select_hints=True,
            )
            assert sql_of(llm, rich) != ex.gold_sql

    def test_hard_fail_consistent_across_candidates(self):
        llm = SimulatedLLM(seed=0)
        ex = example(qid="q7")  # arbitrary
        task = gen_task(ex)
        sqls = {sql_of(llm, task, temperature=0.7, index=i) for i in range(8)}
        gold_variants = {s for s in sqls if s == ex.gold_sql}
        # Either always gold-ish or the hard-fail variant is stable: no more
        # than a handful of distinct outputs driven by per-candidate noise.
        assert len(sqls) <= 4


class TestOtherTasks:
    def test_cot_augment_sections(self):
        llm = SimulatedLLM()
        (response,) = llm.complete(
            "p", task=CoTAugmentTask(example=example(), schema=SCHEMA)
        )
        for section in ("#reason:", "#columns:", "#SELECT:", "#SQL-like:", "#SQL:"):
            assert section in response.text

    def test_entity_extraction_contains_surface(self):
        llm = SimulatedLLM(seed=1)
        found = 0
        for i in range(50):
            (response,) = llm.complete(
                "p", task=EntityExtractionTask(example=example(f"q{i}"), schema=SCHEMA)
            )
            if "John" in response.text:
                found += 1
        assert found > 40  # entity_miss_rate is small

    def test_column_selection_returns_qualified(self):
        llm = SimulatedLLM(seed=1)
        (response,) = llm.complete(
            "p", task=ColumnSelectionTask(example=example(), schema=SCHEMA)
        )
        lines = response.text.splitlines()
        assert any("." in line for line in lines)

    def test_select_alignment_matches_item_count(self):
        llm = SimulatedLLM()
        ex = example(
            gold_sql="SELECT Patient.Name, Patient.City FROM Patient",
            value_mentions=(),
        )
        (response,) = llm.complete(
            "p", task=SelectAlignmentTask(oracle=ex, schema=SCHEMA)
        )
        assert len(response.text.splitlines()) == 2


class TestCorrection:
    def make_correction(self, failed_sql, error_kind, provided=(), fewshot="query_sql"):
        ex = example()
        return CorrectionTask(
            oracle=ex,
            schema=SCHEMA,
            features=features(provided_values=provided, fewshot_kind=fewshot),
            failed_sql=failed_sql,
            error_kind=error_kind,
        )

    def test_unparseable_sql_returned_as_is(self):
        llm = SimulatedLLM()
        task = self.make_correction("SELECT SELECT broken", "syntax_error")
        (response,) = llm.complete("p", task=task)
        assert "SELECT SELECT broken" in response.text

    def test_syntax_cache_repair(self):
        llm = SimulatedLLM(seed=0)
        clean = "SELECT COUNT(*) FROM Patient"
        broken = clean + " WHERE"
        llm._syntax_cache[broken] = clean
        fixed = 0
        for i in range(50):
            task = self.make_correction(broken, "syntax_error")
            task = CorrectionTask(
                oracle=example(f"q{i}"),
                schema=SCHEMA,
                features=features(fewshot_kind="query_sql"),
                failed_sql=broken,
                error_kind="syntax_error",
            )
            (response,) = llm.complete("p", task=task)
            if clean in response.text and "WHERE" not in response.text:
                fixed += 1
        assert fixed > 25  # fix rate is 0.80

    def test_empty_repair_uses_provided_values(self):
        llm = SimulatedLLM(seed=0)
        failed = "SELECT COUNT(*) FROM Patient WHERE Patient.Name = 'John'"
        with_values = without_values = 0
        for i in range(120):
            for provided, counter in (
                (("Patient.Name = 'JOHN'",), "with"),
                ((), "without"),
            ):
                task = CorrectionTask(
                    oracle=example(f"q{i}"),
                    schema=SCHEMA,
                    features=features(
                        provided_values=provided, fewshot_kind="query_sql"
                    ),
                    failed_sql=failed,
                    error_kind="empty",
                )
                (response,) = llm.complete("p", task=task)
                if "'JOHN'" in response.text:
                    if counter == "with":
                        with_values += 1
                    else:
                        without_values += 1
        assert with_values > without_values

    def test_year_function_repaired(self):
        llm = SimulatedLLM(seed=0)
        failed = "SELECT COUNT(*) FROM Visit WHERE YEAR(Visit.Date) >= 1990"
        repaired = 0
        for i in range(80):
            task = CorrectionTask(
                oracle=example(
                    f"q{i}",
                    gold_sql=(
                        "SELECT COUNT(*) FROM Visit "
                        "WHERE STRFTIME('%Y', Visit.Date) >= '1990'"
                    ),
                    value_mentions=(),
                ),
                schema=SCHEMA,
                features=features(fewshot_kind="query_sql"),
                failed_sql=failed,
                error_kind="other_error",
            )
            (response,) = llm.complete("p", task=task)
            if "STRFTIME" in response.text.upper():
                repaired += 1
        assert repaired > 20


#: SHA-256 of :func:`generation_digest` over the paper configuration's
#: answers to the BIRD-like dev split (the ``bird_dev_run`` fixture)
DEV_GENERATION_SHA256 = (
    "d472afbce8d1cc2e9916923e7fefc44224d42773a9c10fb6be343f93a0af46cd"
)


def generation_digest(calls) -> str:
    """Hash every generation completion, in call order, with its token
    counts."""
    digest = hashlib.sha256()
    for call in calls:
        if not isinstance(call.task, GenerationTask):
            continue
        for response in call.responses:
            usage = response.usage
            digest.update(
                f"{usage.prompt_tokens} {usage.completion_tokens} "
                f"{response.text}\n".encode()
            )
    return digest.hexdigest()


class TestDevSplitReference:
    """``complete`` builds each distinct candidate once per call; building
    every candidate on its own with ``_generate_one`` is the reference."""

    def test_complete_equals_per_candidate_loop(self, bird_dev_run):
        results, calls = bird_dev_run
        llm = SimulatedLLM(GPT_4O, seed=0)
        generations = [c for c in calls if isinstance(c.task, GenerationTask)]
        assert len(generations) >= len(results)
        for call in generations:
            for temperature in (call.temperature, 0.0):
                responses = llm.complete(
                    call.prompt, temperature=temperature, n=call.n, task=call.task
                )
                assert [r.text for r in responses] == [
                    llm._generate_one(call.task, temperature, index)
                    for index in range(call.n)
                ]

    def test_dev_completions_and_token_counts_are_pinned(self, bird_dev_run):
        _results, calls = bird_dev_run
        assert generation_digest(calls) == DEV_GENERATION_SHA256
