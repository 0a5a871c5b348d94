"""RunSpec: the one description of a served run.

A spec goes from serve-bench's flags to the journal header and back to a
rebuilt stack.  These tests pin the header round trip, the headers
written before the spec existed, the refusals, and what ``build`` binds.
"""

import json
from dataclasses import fields

import pytest

from repro.cli import build_parser
from repro.serving.spec import RunSpec, SpecError, build

EVERY_FIELD_SET = RunSpec(
    benchmark="spider",
    model="gpt-4",
    candidates=5,
    seed=7,
    requests=33,
    distinct=9,
    pool="spread",
    zipf=0.8,
    workers=2,
    queue_capacity=16,
    mode="open",
    no_cache=True,
    use_async=True,
    routing=True,
    fault_rate=0.3,
    deadline_ms=60000.0,
    hedge_ms=500.0,
    backends=2,
    db_max_inflight=3,
    health_shed=True,
    mutate_every=4,
)

#: headers exactly as the serve-bench and cluster code wrote them before
#: the spec existed (taken from journals of those runs)
PLAIN_HEADER = {
    "benchmark": "bird", "candidates": 3, "distinct": 6, "model": "gpt-4o",
    "pool": "prefix", "requests": 12, "result_cache_size": 512, "seed": 0,
    "skill_profile": "gpt-4o", "zipf": 1.2,
}
ROUTED_HEADER = {
    "benchmark": "bird", "candidates": 5, "distinct": 6, "model": "gpt-4o",
    "pool": "prefix", "requests": 12, "result_cache_size": 512,
    "routing": True,
    "routing_config": {
        "fast_candidates": 2, "fast_max": 0.3, "fast_model": "gpt-4o-mini",
        "heavy_min": 0.9, "heavy_model": "gpt-4", "jitter": 0.02,
        "neighbor_k": 3, "seed": None, "vote_floor": 0.34,
    },
    "seed": 0, "skill_profile": "gpt-4o",
    "tier_mix": {"fast": 12, "full": 0, "heavy": 0}, "zipf": 1.2,
}
SEGMENT_HEADER = {
    "benchmark": "bird", "candidates": 3, "distinct": 8, "model": "gpt-4o",
    "pool": "spread", "requests": 14, "result_cache_size": 512,
    "ring_vnodes": 128, "seed": 0, "shard": 0, "shards": 3,
    "skill_profile": "gpt-4o", "zipf": 1.2,
}


class TestHeader:
    def test_every_field_round_trips(self):
        # the fixture really exercises every field
        for spec_field in fields(RunSpec):
            assert getattr(EVERY_FIELD_SET, spec_field.name) != spec_field.default
        header = json.loads(json.dumps(EVERY_FIELD_SET.to_header()))
        assert set(header) == {f.name for f in fields(RunSpec)}
        assert RunSpec.from_header(header) == EVERY_FIELD_SET

    def test_fields_are_serve_bench_flags_with_their_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert RunSpec.from_args(args) == RunSpec()
        for spec_field in fields(RunSpec):
            assert hasattr(args, spec_field.name)

    @pytest.mark.parametrize(
        "header, expected",
        [
            (PLAIN_HEADER, RunSpec(candidates=3, distinct=6, requests=12)),
            ({**PLAIN_HEADER, "async": True, "result_cache_size": 0},
             RunSpec(candidates=3, distinct=6, requests=12, use_async=True,
                     no_cache=True)),
            (ROUTED_HEADER,
             RunSpec(candidates=5, distinct=6, requests=12, routing=True)),
            (SEGMENT_HEADER,
             RunSpec(candidates=3, distinct=8, requests=14, pool="spread")),
        ],
        ids=["plain", "async-no-cache", "routed", "segment"],
    )
    def test_headers_written_before_the_spec_load(self, header, expected):
        assert RunSpec.from_header(header) == expected

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"skill_profile": "gpt-4"}, "skill_profile"),
            ({"result_cache_size": 256}, "result_cache_size"),
            ({"routing_config": {**ROUTED_HEADER["routing_config"],
                                 "fast_max": 0.5}}, "routing_config"),
            ({"fault_plan": {"timeout": 0.4}}, "fault_plan"),
            # nothing rebuilds a live catalog for a cluster segment
            ({"livedata": True, "schema_epochs": {"a": 2}},
             "livedata, schema_epochs"),
        ],
        ids=["skill-profile", "cache-size", "routing-config", "unknown-key",
             "livedata-segment"],
    )
    def test_headers_it_cannot_rebuild_are_refused(self, edit, message):
        with pytest.raises(SpecError, match=message):
            RunSpec.from_header({**ROUTED_HEADER, **edit})


class TestDerived:
    def test_chaos_turns_hedging_on(self):
        assert RunSpec().hedge_seconds is None
        assert RunSpec(fault_rate=0.1).hedge_seconds == 2.0
        assert RunSpec(fault_rate=0.1, hedge_ms=500).hedge_seconds == 0.5

    def test_replay_hazards_name_the_uncertifiable_settings(self):
        assert RunSpec(hedge_ms=500, backends=2, routing=True).replay_hazards() == []
        # a live-mutation schedule replays, so mutate_every is no hazard
        assert EVERY_FIELD_SET.replay_hazards() == [
            "fault_rate=0.3", "deadline_ms=60000.0",
        ]


class TestBuild:
    def test_chaos_binds_to_the_full_tier_only(self):
        stack = build(
            RunSpec(benchmark="cluster-smoke", candidates=3, routing=True,
                    fault_rate=0.3, requests=6, distinct=3, pool="spread")
        )
        assert len(stack.workload) == 6
        assert len({example.db_id for example in stack.pool}) == 3
        assert stack.base is None  # the pipeline is built on first use
        pipeline = stack.pipeline
        assert pipeline.base is stack.base
        assert stack.llm_faults is not None and stack.db_faults is not None
        assert stack.base.executor_wrapper is not None
        # FAST and HEAVY keep their own clean clients
        assert type(pipeline.fast_llm).__name__ == "SimulatedLLM"
        assert type(pipeline.heavy_llm).__name__ == "SimulatedLLM"
        assert set(stack.header()) == {f.name for f in fields(RunSpec)} | {
            "tier_mix"
        }

    def test_backends_put_chaos_on_the_primary_replica(self):
        stack = build(
            RunSpec(benchmark="cluster-smoke", candidates=3, fault_rate=0.3,
                    backends=3, requests=2, distinct=2)
        )
        assert stack.pipeline.llm is stack.backends
        assert stack.llm_faults is None  # the pool reports its own faults
        with stack.engine(workers=1) as engine:
            assert engine.backends is stack.backends
            assert engine.hedge_stats is not None
            assert engine.admission.capacity == 64

    def test_unknown_benchmark_is_a_spec_error(self):
        with pytest.raises(SpecError, match="unknown benchmark"):
            build(RunSpec(benchmark="nope"))


class TestLiveSchedule:
    def test_only_a_mutate_every_spec_has_one(self, tmp_path):
        stack = build(RunSpec(benchmark="cluster-smoke", requests=2, distinct=2))
        assert stack.live_schedule(tmp_path / "reindex.jsonl") is None

    def test_mutations_fall_after_the_spec_positions(self, tmp_path):
        stack = build(
            RunSpec(benchmark="cluster-smoke", candidates=3, requests=7,
                    distinct=3, pool="spread", mutate_every=3)
        )
        schedule = stack.live_schedule(tmp_path / "reindex.jsonl")
        assert stack.live_schedule(tmp_path / "other.jsonl") is schedule
        databases = sorted(stack.benchmark.databases)
        invalidated, steps = [], []
        for position in range(7):
            # the epochs follow from the spec alone, before any mutation
            assert {db: schedule.registry.epoch(db) for db in databases} == {
                db: schedule.epoch_at(db, position) for db in databases
            }
            if schedule.after(position, invalidated.append) is not None:
                steps.append(position)
        # never after the last position
        assert steps == [2, 5]
        assert invalidated == [event.db_id for event in schedule.driver.events]
        assert [(r.db_id, r.epoch) for r in schedule.reindexer.reports] == [
            (event.db_id, event.epoch) for event in schedule.driver.events
        ]
