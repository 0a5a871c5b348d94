"""Shared fixtures: session-scoped benchmarks so the expensive builds run
once per test session.  Also hosts the dependency-free per-test timeout
guard (``REPRO_TEST_TIMEOUT``)."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import OpenSearchSQL
from repro.datasets.bird import build_bird_like
from repro.datasets.build import build_benchmark
from repro.datasets.domains.healthcare import DOMAIN as HEALTHCARE
from repro.datasets.domains.hockey import DOMAIN as HOCKEY
from repro.datasets.spider import build_spider_like
from repro.llm.simulated import SimulatedLLM
from repro.llm.skills import GPT_4O


#: per-test wall-clock budget in seconds; 0 / unset disables the guard.
_TEST_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "0") or 0)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Fail any test whose call phase exceeds ``REPRO_TEST_TIMEOUT``.

    Dependency-free (no pytest-timeout in the image): the test body is
    timed, and a breach fails the test *after* it returns rather than
    interrupting it mid-flight.  That still turns a runaway test into a
    named failure with its duration instead of a silent slow suite, and
    the CI job's own timeout remains the backstop for a true hang.
    """
    started = time.monotonic()
    result = yield
    elapsed = time.monotonic() - started
    if _TEST_TIMEOUT and elapsed > _TEST_TIMEOUT:
        pytest.fail(
            f"{item.nodeid} took {elapsed:.1f}s, over the "
            f"REPRO_TEST_TIMEOUT={_TEST_TIMEOUT:.0f}s per-test budget",
            pytrace=False,
        )
    return result


@pytest.fixture(scope="session")
def tiny_benchmark():
    """Two domains, minimal quotas — fast enough for unit tests."""
    return build_benchmark(
        name="tiny",
        domains=[HEALTHCARE, HOCKEY],
        per_template_train=2,
        per_template_dev=1,
        per_template_test=1,
        seed=3,
    )


@pytest.fixture(scope="session")
def bird_benchmark():
    """The full BIRD-like suite (shared, read-only)."""
    return build_bird_like()


@pytest.fixture(scope="session")
def spider_benchmark():
    return build_spider_like()


@pytest.fixture(scope="session")
def llm():
    return SimulatedLLM(GPT_4O, seed=0)


@dataclass
class RecordedCall:
    """One ``complete`` call: its arguments and the responses it got."""

    prompt: str
    temperature: float
    n: int
    task: object
    responses: list


class _Recorder:
    """Delegates to a client and keeps every call in memory."""

    def __init__(self, inner):
        self.inner = inner
        self.model_name = inner.model_name
        self.calls: list[RecordedCall] = []

    def complete(self, prompt, *, temperature=0.0, n=1, task=None):
        responses = self.inner.complete(
            prompt, temperature=temperature, n=n, task=task
        )
        self.calls.append(RecordedCall(prompt, temperature, n, task, responses))
        return responses


@pytest.fixture(scope="session")
def bird_dev_run(bird_benchmark):
    """The paper configuration answering the whole BIRD-like dev split:
    ``(results, calls)``, with every LLM call made while answering."""
    pipeline = OpenSearchSQL(bird_benchmark, SimulatedLLM(GPT_4O, seed=0))
    recorder = _Recorder(pipeline.llm)
    pipeline.rebind_llm(recorder)
    results = [pipeline.answer(example) for example in bird_benchmark.dev]
    return results, recorder.calls


@pytest.fixture(scope="session")
def tiny_pipeline(tiny_benchmark, llm):
    """A full pipeline over the tiny benchmark with a small vote."""
    return OpenSearchSQL(tiny_benchmark, llm, PipelineConfig(n_candidates=5))
