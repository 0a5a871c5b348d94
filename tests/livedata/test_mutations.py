"""MutationDriver: seeded replayable drift that never breaks old SQL.

Each test builds its own benchmark — the driver mutates databases in
place, so the session-scoped fixtures must stay untouched.
"""

import pytest

from repro.datasets.build import build_benchmark
from repro.datasets.domains.healthcare import DOMAIN as HEALTHCARE
from repro.datasets.domains.hockey import DOMAIN as HOCKEY
from repro.livedata.epoch import EpochRegistry
from repro.livedata.mutations import MutationDriver


def fresh_benchmark():
    return build_benchmark(
        name="tiny",
        domains=[HEALTHCARE, HOCKEY],
        per_template_train=2,
        per_template_dev=1,
        per_template_test=1,
        seed=3,
    )


@pytest.fixture
def mutable_benchmark():
    return fresh_benchmark()


def drive(mutable_benchmark, count, seed=0):
    registry = EpochRegistry()
    driver = MutationDriver(mutable_benchmark, registry, seed=seed)
    for _ in range(count):
        driver.mutate()
    return driver, registry


class TestDeterminism:
    def test_same_seed_same_mutation_log(self, mutable_benchmark):
        first, _ = drive(mutable_benchmark, 8, seed=5)
        second, _ = drive(fresh_benchmark(), 8, seed=5)
        assert first.log_dict() == second.log_dict()

    def test_different_seed_different_log(self, mutable_benchmark):
        first, _ = drive(mutable_benchmark, 8, seed=5)
        second, _ = drive(fresh_benchmark(), 8, seed=6)
        assert first.log_dict() != second.log_dict()

    def test_every_mutation_bumps_the_epoch(self, mutable_benchmark):
        driver, registry = drive(mutable_benchmark, 6)
        assert driver.events
        total = sum(registry.epoch(db_id) for db_id in mutable_benchmark.databases)
        assert total == len(driver.events)
        for event in driver.events:
            assert event.epoch >= 1


class TestPipelineSurvivable:
    def test_gold_sql_executes_at_every_later_epoch(self, mutable_benchmark):
        """Renames leave compatibility views; drops only take drift
        columns — so SQL valid at epoch 0 stays valid forever."""
        golds = [
            (e.db_id, e.gold_sql)
            for e in mutable_benchmark.dev
        ]
        driver, _ = drive(mutable_benchmark, 12)
        assert {e.kind for e in driver.events} >= {"value_churn"}
        for db_id, sql in golds:
            mutable_benchmark.databases[db_id].connection.execute(sql).fetchall()

    def test_schema_model_tracks_the_live_database(self, mutable_benchmark):
        """After any mix of mutations, the published schema model and the
        SQLite reality agree: every modeled table and column SELECTs."""
        driver, _ = drive(mutable_benchmark, 12)
        for db_id in {e.db_id for e in driver.events}:
            built = mutable_benchmark.databases[db_id]
            for table in built.schema.tables:
                columns = ", ".join(f'"{c.name}"' for c in table.columns)
                built.connection.execute(
                    f'SELECT {columns} FROM "{table.name}" LIMIT 1'
                ).fetchall()


class TestRebuildReplay:
    def test_reconnect_replays_the_mutation_log(self, mutable_benchmark):
        driver, _ = drive(mutable_benchmark, 10)
        mutated = {e.db_id for e in driver.events}
        for db_id in mutated:
            built = mutable_benchmark.databases[db_id]
            # counts per table before the reconnect
            before = {
                t.name: built.connection.execute(
                    f'SELECT COUNT(*) FROM "{t.name}"'
                ).fetchone()[0]
                for t in built.schema.tables
            }
            connection = built.rebuild()
            after = {
                name: connection.execute(
                    f'SELECT COUNT(*) FROM "{name}"'
                ).fetchone()[0]
                for name in before
            }
            # a chaos-recycled connection must not time-travel to epoch 0:
            # churned rows, added columns and renamed tables all survive
            assert after == before
