"""One description of a served run, from flags to journal header to stack.

:class:`RunSpec` holds every ``serve-bench`` setting that shapes what a
run serves, one field per flag under the flag's own name.  Flags that say
where output goes or how a run is disturbed (``--journal``,
``--kill-after`` ...) stay out: ``repro recover`` must not replay them.
:func:`build` turns a spec into a :class:`Stack`, and every served stack
comes from it: serve-bench in-process and sharded, ``recover``,
``evaluate``, ``trace``, ``metrics``, cluster workers and both fuzz
campaigns.  The journal header is ``spec.to_header()`` and ``recover``
rebuilds from :meth:`RunSpec.from_header`, so a setting goes from flag to
header to rebuilt stack in one place.  A ``mutate_every`` spec's stack
also owns its :class:`LiveSchedule`, the one place that says which
mutation falls after which request.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import cached_property
from typing import Callable, Optional

__all__ = [
    "LiveSchedule",
    "RunSpec",
    "SpecError",
    "Stack",
    "build",
    "resolve_benchmark",
]


class SpecError(ValueError):
    """A journal header or benchmark name no stack can be rebuilt from."""


#: header keys beside the spec's: the routed tier mix (see
#: :meth:`Stack.check_tier_mix`) and a cluster segment's placement keys
_PLACEMENT_KEYS = ("tier_mix", "shards", "shard", "ring_vnodes", "livedata",
                   "schema_epochs")


@dataclass(frozen=True)
class RunSpec:
    """Everything that shapes what a served run serves.

    Field names and defaults are serve-bench's flag ``dest`` names and
    defaults, so a parsed command line maps onto a spec one to one.
    """

    benchmark: str = "bird"
    model: str = "gpt-4o"
    candidates: int = 21
    seed: int = 0
    requests: int = 120
    distinct: int = 0
    pool: str = "prefix"
    zipf: float = 1.2
    workers: int = 4
    queue_capacity: int = 64
    mode: str = "closed"
    no_cache: bool = False
    use_async: bool = False
    routing: bool = False
    fault_rate: float = 0.0
    deadline_ms: float = 0.0
    hedge_ms: float = 0.0
    backends: int = 0
    db_max_inflight: int = 0
    health_shed: bool = False
    mutate_every: int = 0

    @classmethod
    def from_args(cls, args) -> "RunSpec":
        """The spec a parsed command line describes; absent flags default."""
        names = [f.name for f in fields(cls) if hasattr(args, f.name)]
        return cls(**{name: getattr(args, name) for name in names})

    def to_header(self) -> dict:
        """The journal header: every field under its own name."""
        return asdict(self)

    @classmethod
    def from_header(cls, header: dict) -> "RunSpec":
        """The spec a journal header records.

        Older headers load too: ``async`` meant ``use_async``,
        ``result_cache_size`` 0 or 512 meant ``no_cache``, ``skill_profile``
        repeated ``model`` and ``routing_config`` held the default routing.
        Placement keys are skipped.  Any other key raises
        :class:`SpecError` instead of being dropped from the rebuilt stack.
        """
        values = {k: v for k, v in header.items() if k not in _PLACEMENT_KEYS}
        if "async" in values:
            values["use_async"] = values.pop("async")
        if "result_cache_size" in values:
            size = values.pop("result_cache_size")
            if size not in (0, 512):
                raise SpecError(f"journal header result_cache_size {size!r} "
                                f"is neither 0 nor 512")
            values["no_cache"] = size == 0
        model = values.get("model", cls.model)
        profile = values.pop("skill_profile", model)
        if profile != model:
            raise SpecError(
                f"journal header is inconsistent — skill_profile {profile!r} "
                f"!= model {model!r}; refusing to replay under a different "
                f"model tier"
            )
        if "routing_config" in values:
            from repro.routing import RoutingConfig

            if RoutingConfig.from_dict(values.pop("routing_config")) != RoutingConfig():
                raise SpecError("journal header routing_config is not the "
                                "default routing config")
        unknown = sorted(set(values) - {f.name for f in fields(cls)})
        if unknown:
            raise SpecError(f"journal header key(s) {', '.join(unknown)} "
                            f"cannot be rebuilt; refusing to replay without them")
        return cls(**values)

    @property
    def result_cache_size(self) -> int:
        return 0 if self.no_cache else 512

    @property
    def deadline_seconds(self) -> Optional[float]:
        return self.deadline_ms / 1000.0 or None

    @property
    def hedge_seconds(self) -> Optional[float]:
        """The hedge threshold; chaos turns hedging on at 2 s when unset."""
        hedge_ms = self.hedge_ms or (2000.0 if self.fault_rate > 0 else 0.0)
        return hedge_ms / 1000.0 or None

    def replay_hazards(self) -> list[str]:
        """The settings that keep a recovered run from matching an
        uninterrupted one: chaos draws faults in call order and carries
        retry and breaker state across requests, and a deadline reads the
        clock."""
        return [
            f"{name}={getattr(self, name)}"
            for name in ("fault_rate", "deadline_ms")
            if getattr(self, name) > 0
        ]

    def base_pipeline(self, benchmark):
        """A fresh unrouted, unwrapped pipeline of this model, vote and seed."""
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import OpenSearchSQL
        from repro.llm.simulated import SimulatedLLM
        from repro.llm.skills import skill_by_name

        return OpenSearchSQL(
            benchmark,
            SimulatedLLM(skill_by_name(self.model), seed=self.seed),
            PipelineConfig(n_candidates=self.candidates, seed=self.seed),
        )


def resolve_benchmark(name: str):
    """Build the named benchmark.

    ``"cluster-smoke"`` is a deterministic five-domain profile (~0.5 s to
    build, five distinct ``db_id``s) used by the cluster and fuzz suites so
    spawned workers do not pay the full BIRD build on every test.
    """
    if name == "bird":
        from repro.datasets.bird import build_bird_like

        return build_bird_like()
    if name == "spider":
        from repro.datasets.spider import build_spider_like

        return build_spider_like()
    if name == "cluster-smoke":
        from repro.datasets.build import build_benchmark
        from repro.datasets.domains.finance import DOMAIN as FINANCE
        from repro.datasets.domains.healthcare import DOMAIN as HEALTHCARE
        from repro.datasets.domains.hockey import DOMAIN as HOCKEY
        from repro.datasets.domains.music import DOMAIN as MUSIC
        from repro.datasets.domains.retail import DOMAIN as RETAIL

        return build_benchmark(
            name="cluster-smoke",
            domains=[HEALTHCARE, HOCKEY, FINANCE, MUSIC, RETAIL],
            per_template_train=2,
            per_template_dev=1,
            per_template_test=1,
            seed=3,
        )
    raise SpecError(f"unknown benchmark {name!r}")


class Stack:
    """The served run a :class:`RunSpec` describes (see :func:`build`)."""

    def __init__(self, spec: RunSpec, benchmark, pool: list, workload: list):
        self.spec = spec
        self.benchmark = benchmark
        self.pool = pool
        self.workload = workload
        #: set with :attr:`pipeline`: the FULL-tier pipeline under any
        #: routing, the single-backend LLM fault injector, the database
        #: fault counters and the backend pool
        self.base = self.llm_faults = self.db_faults = self.backends = None
        self._schedule: Optional[LiveSchedule] = None

    @cached_property
    def pipeline(self):
        """The served pipeline, built on first use.

        Chaos and backends rebind the base pipeline's LLM and executors,
        which is the FULL tier of a routed pipeline; the FAST and HEAVY
        tiers keep their own clean clients.
        """
        from repro.execution import DbFaultPlan, FaultInjectingExecutor
        from repro.reliability import (
            FaultInjectingLLM,
            FaultPlan,
            ReliabilityStats,
            ResilientLLM,
        )
        from repro.serving.backends import BackendPool

        spec = self.spec
        self.base = base = spec.base_pipeline(self.benchmark)
        served = base
        if spec.routing:
            from repro.routing import TieredPipeline

            served = TieredPipeline(base)
        clean_llm = llm = base.llm
        if spec.fault_rate > 0:
            plan = FaultPlan.chaos(spec.fault_rate)
            llm = FaultInjectingLLM(llm, plan, seed=spec.seed)
            self.db_faults = ReliabilityStats()
            db_plan = DbFaultPlan.chaos(spec.fault_rate)
            base.set_executor_wrapper(
                lambda executor, db_id: FaultInjectingExecutor(
                    executor, db_plan, seed=spec.seed, stats=self.db_faults
                )
            )
        if spec.backends > 0:
            # replica 0 is the primary, and the only one chaos reaches
            self.backends = BackendPool([
                ResilientLLM(llm if index == 0 else clean_llm, seed=spec.seed + index)
                for index in range(spec.backends)
            ])
            base.rebind_llm(self.backends)
        elif spec.fault_rate > 0:
            self.llm_faults = llm
            base.rebind_llm(ResilientLLM(llm, seed=spec.seed))
        return served

    def engine(self, **overrides):
        """An in-process engine serving :attr:`pipeline` with the spec's
        settings; ``overrides`` go to the engine constructor as they are."""
        from repro.serving.admission import DEFAULT_HEALTH_SHED
        from repro.serving.aio import AsyncServingEngine
        from repro.serving.engine import ServingEngine

        spec = self.spec
        pipeline = self.pipeline
        queue_capacity = spec.queue_capacity
        if spec.use_async:
            # The async engine admits non-blocking (a blocking admit would
            # stall the event loop), so the queue must cover the workload.
            queue_capacity = max(queue_capacity, spec.requests)
        settings = dict(
            workers=spec.workers,
            queue_capacity=queue_capacity,
            result_cache_size=spec.result_cache_size,
            extraction_cache_size=0 if spec.no_cache else 1024,
            fewshot_cache_size=0 if spec.no_cache else 1024,
            deadline_seconds=spec.deadline_seconds,
            hedge_threshold=spec.hedge_seconds,
            db_max_inflight=spec.db_max_inflight or None,
            backends=self.backends,
            health_shed=DEFAULT_HEALTH_SHED if spec.health_shed else None,
        )
        engine_cls = AsyncServingEngine if spec.use_async else ServingEngine
        return engine_cls(pipeline, **{**settings, **overrides})

    def live_schedule(self, checkpoint_path, health=None) -> Optional["LiveSchedule"]:
        """This stack's live-mutation schedule, built on first use; None
        unless the spec sets ``mutate_every``.

        ``checkpoint_path`` is where its reindexer checkpoints, and
        ``health`` the serving engine's monitor the reindexer reports to
        (both are read only by the first call).
        """
        if self._schedule is None and self.spec.mutate_every > 0:
            self._schedule = LiveSchedule(self, checkpoint_path, health)
        return self._schedule

    def header(self) -> dict:
        """The journal header: the spec, plus the routed tier mix."""
        header = self.spec.to_header()
        if self.spec.routing:
            header["tier_mix"] = self.pipeline.tier_mix(self.workload)
        return header

    def check_tier_mix(self, header: dict) -> None:
        """Refuse a header whose recorded tier mix this process would not
        route (the router changed, or the header was edited)."""
        recorded = header.get("tier_mix")
        routed = self.header().get("tier_mix")
        if recorded is not None and recorded != routed:
            raise SpecError(
                f"routed tier mix diverged — journal recorded {recorded}, "
                f"this process routes {routed}; refusing to replay under a "
                f"different tier mix"
            )


class LiveSchedule:
    """The live-mutation schedule of a ``mutate_every`` spec, on one stack.

    It holds the stack's :class:`~repro.livedata.EpochRegistry`, its
    seeded :class:`~repro.livedata.MutationDriver` and a
    :class:`~repro.livedata.ReindexWorker` on the FULL-tier pipeline, and
    the one rule for where a mutation falls: after position ``p`` when
    ``(p + 1) % mutate_every == 0`` and ``p + 1 < requests``.
    serve-bench, drift-fuzz and :func:`~repro.serving.journal.recover_run`
    all step through :meth:`after`, so a recovered live run moves its
    catalog after the same positions as the run it finishes.
    """

    def __init__(self, stack: Stack, checkpoint_path, health=None):
        from repro.livedata import EpochRegistry, MutationDriver, ReindexWorker

        self.every = stack.spec.mutate_every
        self.requests = len(stack.workload)
        self.registry = EpochRegistry()
        self.driver = MutationDriver(
            stack.benchmark, self.registry, seed=stack.spec.seed
        )
        stack.pipeline  # builds stack.base, the FULL tier
        self.reindexer = ReindexWorker(
            stack.base, checkpoint_path, registry=self.registry, health=health
        )
        #: the database each scheduled mutation draws, in order
        self._draws = [
            self.driver.database(counter)
            for counter in range((self.requests - 1) // self.every)
        ]

    def after(self, position: int, invalidate: Callable[[str], object]):
        """Apply the mutation that falls after ``position``, if one does:
        mutate, ``invalidate(db_id)``, then reindex.  Returns the
        :class:`~repro.livedata.MutationEvent`, or None."""
        if (position + 1) % self.every or position + 1 >= self.requests:
            return None
        event = self.driver.mutate()
        invalidate(event.db_id)
        self.reindexer.reindex(event.db_id, epoch=event.epoch)
        return event

    def epoch_at(self, db_id: str, position: int) -> int:
        """``db_id``'s ``schema_epoch`` while ``position`` is served: how
        many of the mutations after earlier positions drew it."""
        return self._draws[: position // self.every].count(db_id)


def build(spec: RunSpec) -> Stack:
    """The stack ``spec`` describes.  The pipeline is built on first use,
    so a sharded run's coordinator, which serves nothing, never builds one."""
    from repro.serving.workload import spread_pool, zipf_workload

    benchmark = resolve_benchmark(spec.benchmark)
    pool = benchmark.dev
    if spec.distinct:
        if spec.pool == "spread":
            pool = spread_pool(pool, spec.distinct)
        else:
            pool = pool[: spec.distinct]
    workload = zipf_workload(
        pool, requests=spec.requests, skew=spec.zipf, seed=spec.seed
    )
    return Stack(spec, benchmark, pool, workload)
