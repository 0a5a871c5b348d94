"""HealthMonitor, graceful drain, and hedged execution tests."""

import threading

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import OpenSearchSQL
from repro.execution.chaos import DbFaultPlan, FaultInjectingExecutor
from repro.execution.executor import ExecutionOutcome, ExecutionStatus
from repro.llm.simulated import SimulatedLLM
from repro.llm.skills import GPT_4O
from repro.reliability.deadline import Deadline
from repro.serving import (
    AdmissionController,
    DrainingError,
    HealthMonitor,
    HedgedExecutor,
    HedgeStats,
    ServingEngine,
)


@pytest.fixture
def fresh_pipeline(tiny_benchmark):
    llm = SimulatedLLM(GPT_4O, seed=0)
    return OpenSearchSQL(tiny_benchmark, llm, PipelineConfig(n_candidates=3))


class TestHealthMonitor:
    def test_all_success_is_healthy(self):
        monitor = HealthMonitor()
        for _ in range(10):
            monitor.record("pipeline", True)
        snapshot = monitor.snapshot()
        assert snapshot["status"] == "healthy"
        assert snapshot["components"]["pipeline"]["failure_rate"] == 0.0

    def test_grades_follow_failure_rate(self):
        monitor = HealthMonitor(window=10, degraded_at=0.2, unhealthy_at=0.5)
        for ok in [True] * 7 + [False] * 3:
            monitor.record("pipeline", ok, detail="boom")
        assert monitor.component_status("pipeline")["status"] == "degraded"
        for _ in range(3):
            monitor.record("pipeline", False)
        status = monitor.component_status("pipeline")
        assert status["status"] == "unhealthy"
        assert status["last_failure"] == "boom"

    def test_window_forgets_old_failures(self):
        monitor = HealthMonitor(window=4)
        for _ in range(4):
            monitor.record("db", False)
        assert monitor.component_status("db")["status"] == "unhealthy"
        for _ in range(4):
            monitor.record("db", True)
        assert monitor.component_status("db")["status"] == "healthy"

    def test_worst_component_sets_overall(self):
        monitor = HealthMonitor()
        monitor.record("a", True)
        monitor.record("b", False)
        assert monitor.snapshot()["status"] == "unhealthy"

    def test_probes_sampled_at_snapshot(self):
        monitor = HealthMonitor()
        monitor.register_probe("breaker", lambda: {"state": "closed"})
        snapshot = monitor.snapshot()
        assert snapshot["probes"]["breaker"] == {"state": "closed"}
        assert snapshot["status"] == "healthy"

    def test_raising_probe_is_unhealthy(self):
        monitor = HealthMonitor()
        monitor.register_probe("boom", lambda: 1 / 0)
        snapshot = monitor.snapshot()
        assert "ZeroDivisionError" in snapshot["probes"]["boom"]["error"]
        assert snapshot["status"] == "unhealthy"

    def test_falsy_scalar_probe_degrades(self):
        monitor = HealthMonitor()
        monitor.register_probe("ready", lambda: False)
        assert monitor.snapshot()["status"] == "degraded"


class TestDrain:
    def test_admission_close_rejects_new_requests(self):
        controller = AdmissionController(capacity=4)
        controller.admit()
        controller.close()
        with pytest.raises(DrainingError):
            controller.admit()
        assert controller.rejected_draining == 1
        assert controller.to_dict()["closed"] is True
        controller.release()  # in-flight work still releases normally

    def test_close_wakes_blocked_waiters(self):
        controller = AdmissionController(capacity=1)
        controller.admit()
        outcome = {}

        def waiter():
            try:
                controller.admit(block=True)
                outcome["result"] = "admitted"
            except DrainingError:
                outcome["result"] = "draining"

        thread = threading.Thread(target=waiter)
        thread.start()
        # let the waiter reach the condition wait, then close the gate
        import time

        time.sleep(0.05)
        controller.close()
        thread.join(timeout=2.0)
        assert outcome["result"] == "draining"

    def test_drain_finishes_inflight_and_rejects_new(
        self, fresh_pipeline, tiny_benchmark
    ):
        engine = ServingEngine(fresh_pipeline, workers=2)
        futures = [engine.submit(e, block=True) for e in tiny_benchmark.dev[:3]]
        engine.shutdown(drain=True)
        for future in futures:
            assert future.result().final_sql  # in-flight ran to completion
        with pytest.raises(DrainingError):
            engine.submit(tiny_benchmark.dev[0])
        stats = engine.stats()
        assert stats.completed == 3
        assert stats.rejected_draining == 1

    def test_plain_shutdown_contract_unchanged(self, fresh_pipeline, tiny_benchmark):
        engine = ServingEngine(fresh_pipeline, workers=1)
        engine.shutdown()
        with pytest.raises(RuntimeError):
            engine.submit(tiny_benchmark.dev[0])


class _ScriptedExecutor:
    """Attempt-aware fake: outcomes[attempt] per execution."""

    def __init__(self, outcomes):
        self.outcomes = outcomes
        self.calls = []

    def execute(self, sql, deadline=None, attempt=0):
        self.calls.append(attempt)
        return self.outcomes[min(attempt, len(self.outcomes) - 1)]


class _PlainExecutor:
    """No attempt parameter: the hedge must still work."""

    def __init__(self, outcome):
        self.outcome = outcome
        self.calls = 0

    def execute(self, sql, deadline=None):
        self.calls += 1
        return self.outcome


def ok(elapsed=0.1, rows=((1,),)):
    return ExecutionOutcome(
        status=ExecutionStatus.OK, rows=rows, columns=("v",), elapsed_seconds=elapsed
    )


def locked():
    return ExecutionOutcome(status=ExecutionStatus.LOCKED, error="database is locked")


class TestHedgedExecutor:
    def test_fast_success_not_hedged(self):
        inner = _ScriptedExecutor([ok(0.1)])
        hedged = HedgedExecutor(inner, threshold_seconds=2.0)
        assert hedged.execute("SELECT 1").status is ExecutionStatus.OK
        assert inner.calls == [0]
        assert hedged.stats.launched == 0

    def test_transient_error_recovered(self):
        inner = _ScriptedExecutor([locked(), ok(0.1)])
        hedged = HedgedExecutor(inner, threshold_seconds=2.0)
        outcome = hedged.execute("SELECT 1")
        assert outcome.status is ExecutionStatus.OK
        assert inner.calls == [0, 1]  # hedge used the attempt salt
        assert hedged.stats.recovered_error == 1
        assert hedged.stats.wins == 1

    def test_both_attempts_transient_keeps_primary(self):
        inner = _ScriptedExecutor([locked(), locked()])
        hedged = HedgedExecutor(inner, threshold_seconds=2.0)
        assert hedged.execute("SELECT 1").status is ExecutionStatus.LOCKED
        assert hedged.stats.wins == 0

    def test_slow_primary_race_won_by_hedge(self):
        inner = _ScriptedExecutor([ok(10.0), ok(0.5)])
        hedged = HedgedExecutor(inner, threshold_seconds=2.0)
        outcome = hedged.execute("SELECT 1")
        # race latency: hedge launched at the threshold, finished 0.5s later
        assert outcome.elapsed_seconds == pytest.approx(2.5)
        assert hedged.stats.recovered_slow == 1
        assert hedged.stats.primary_slow == 1

    def test_slow_primary_race_lost_keeps_primary(self):
        inner = _ScriptedExecutor([ok(2.5), ok(1.0)])
        hedged = HedgedExecutor(inner, threshold_seconds=2.0)
        # hedge would land at 2.0 + 1.0 = 3.0 > 2.5: primary wins
        assert hedged.execute("SELECT 1").elapsed_seconds == pytest.approx(2.5)
        assert hedged.stats.wins == 0

    def test_expired_deadline_suppresses_hedge(self):
        inner = _ScriptedExecutor([locked(), ok(0.1)])
        hedged = HedgedExecutor(inner, threshold_seconds=2.0)
        deadline = Deadline(1.0, clock=lambda: 0.0)
        deadline.charge(2.0)
        assert hedged.execute("SELECT 1", deadline).status is ExecutionStatus.LOCKED
        assert hedged.stats.suppressed_deadline == 1
        assert hedged.stats.launched == 0

    def test_plain_executor_without_attempt_still_hedges(self):
        inner = _PlainExecutor(locked())
        hedged = HedgedExecutor(inner, threshold_seconds=2.0)
        assert hedged.execute("SELECT 1").status is ExecutionStatus.LOCKED
        assert inner.calls == 2

    def test_recovers_injected_faults_end_to_end(self):
        import sqlite3

        def _open():
            conn = sqlite3.connect(":memory:", check_same_thread=False)
            conn.executescript("CREATE TABLE t (v INTEGER); INSERT INTO t VALUES (1);")
            return conn

        from repro.execution.executor import SQLExecutor

        chaos = FaultInjectingExecutor(
            SQLExecutor(_open(), reconnect=_open), DbFaultPlan(locked=0.5), seed=3
        )
        hedged = HedgedExecutor(chaos, threshold_seconds=2.0)
        statements = [f"SELECT v FROM t WHERE v <= {i}" for i in range(40)]
        failures = sum(
            1 for sql in statements if hedged.execute(sql).status.is_error
        )
        # unhedged, ~half would fail; the independent hedge draw clears
        # most of them (p(fail) drops from 0.5 to 0.25)
        assert hedged.stats.launched > 0
        assert hedged.stats.recovered_error > 0
        assert failures < 0.5 * len(statements)

    def test_shared_stats_count_exactly_across_executors(self):
        """The per-database executors share one HedgeStats; no increment
        may be lost to a race between them."""
        threads, calls = 4, 20_000
        stats = HedgeStats()
        executors = [
            HedgedExecutor(_PlainExecutor(ok()), threshold_seconds=2.0, stats=stats)
            for _ in range(threads)
        ]

        def hammer(executor):
            for _ in range(calls):
                executor.execute("SELECT 1")

        workers = [threading.Thread(target=hammer, args=(e,)) for e in executors]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
        assert stats.calls == threads * calls
        assert stats.launched == 0

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            HedgedExecutor(_PlainExecutor(ok()), threshold_seconds=0.0)


class TestEngineHealthWiring:
    def test_engine_reports_health_and_hedge_stats(
        self, fresh_pipeline, tiny_benchmark
    ):
        engine = ServingEngine(fresh_pipeline, workers=2, hedge_threshold=2.0)
        with engine:
            engine.run(tiny_benchmark.dev[:3])
            stats = engine.stats()
        assert stats.health["status"] == "healthy"
        assert stats.health["components"]["pipeline"]["failure_rate"] == 0.0
        assert stats.breaker_state == "closed"
        assert stats.hedge["calls"] > 0
        assert "hedging" in stats.format()
