"""The tiered pipeline: route → answer → escalate, as one drop-in unit.

:class:`TieredPipeline` wraps a fully-constructed ``OpenSearchSQL`` and
presents the same ``answer(example, deadline=, trace=)`` surface, so the
serving engine, the journal replay and the evaluation runner can use it
unchanged.  Per request it:

1. routes via :class:`~repro.routing.router.DifficultyRouter` (pure,
   deterministic by seed — ``route_tier`` is also what tier-aware cache
   keys call);
2. answers on the routed tier — FAST (single no-CoT mini call), FULL
   (the wrapped pipeline), or HEAVY (the full pipeline on the large
   skill profile, sharing every preprocessing artifact);
3. escalates up the ladder when the
   :class:`~repro.routing.escalation.EscalationPolicy` finds the answer
   unconfident, charging the abandoned attempt against the request's
   ``Deadline`` and recording a typed
   :class:`~repro.routing.escalation.EscalationEvent`.

The returned ``PipelineResult`` carries merged cost/degradations across
all attempts plus a :class:`RoutingInfo` — the journal serializes it so
kill/recover replay is tier-faithful.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

from repro.core.cost import CostTracker
from repro.core.generation import Generator
from repro.core.pipeline import FALLBACK_SQL, OpenSearchSQL, PipelineResult
from repro.core.refinement import Refiner, vote_share
from repro.datasets.types import Example
from repro.llm.simulated import SimulatedLLM
from repro.llm.skills import skill_by_name
from repro.observability.trace import Trace
from repro.reliability.deadline import Deadline
from repro.reliability.degradation import DegradationEvent, DegradationKind
from repro.routing.escalation import EscalationEvent, EscalationPolicy
from repro.routing.fastpath import FastPathPipeline
from repro.routing.router import DifficultyRouter, RouteDecision, RoutingConfig, Tier

__all__ = ["TierAttempt", "RoutingInfo", "TieredPipeline"]


@dataclass
class TierAttempt:
    """Cost attribution for one tier attempt of a routed request."""

    tier: str
    tokens: int = 0
    model_seconds: float = 0.0
    #: True when the escalation policy promoted past this attempt
    escalated: bool = False

    def to_dict(self) -> dict:
        return {
            "tier": self.tier,
            "tokens": self.tokens,
            "model_seconds": round(self.model_seconds, 6),
            "escalated": self.escalated,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TierAttempt":
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in names})


@dataclass
class RoutingInfo:
    """Everything the routing layer decided and spent for one request."""

    initial_tier: str
    final_tier: str
    score: float
    features: dict = field(default_factory=dict)
    attempts: list[TierAttempt] = field(default_factory=list)
    escalations: list[EscalationEvent] = field(default_factory=list)

    @property
    def escalated(self) -> bool:
        return bool(self.escalations)

    def to_dict(self) -> dict:
        """JSON-ready view — the journal's tier-faithful record."""
        return {
            "initial_tier": self.initial_tier,
            "final_tier": self.final_tier,
            "score": self.score,
            "features": dict(self.features),
            "attempts": [attempt.to_dict() for attempt in self.attempts],
            "escalations": [event.to_dict() for event in self.escalations],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RoutingInfo":
        """Inverse of :meth:`to_dict` (journal decode)."""
        return cls(
            initial_tier=payload["initial_tier"],
            final_tier=payload["final_tier"],
            score=payload["score"],
            features=dict(payload.get("features", {})),
            attempts=[
                TierAttempt.from_dict(a) for a in payload.get("attempts", [])
            ],
            escalations=[
                EscalationEvent.from_dict(e)
                for e in payload.get("escalations", [])
            ],
        )


class _SiblingPipeline(OpenSearchSQL):
    """An ``OpenSearchSQL`` bound to a different LLM that shares every
    preprocessing artifact, executor and cache wrapper with the base.

    ``extractor`` and ``library`` delegate to the base *dynamically*, so
    the serving layer's caching wrappers (installed on the base after
    construction) apply here too — an escalated request re-uses the
    extraction the cheaper tier already paid for.
    """

    # OpenSearchSQL.__init__ runs preprocessing; skip it entirely.
    def __init__(self, base: OpenSearchSQL, llm):  # noqa: D107
        self.base = base
        self.benchmark = base.benchmark
        self.llm = llm
        self.config = base.config
        self.vectorizer = base.vectorizer
        self.preprocessing_cost = base.preprocessing_cost
        self.databases = base.databases
        self.generator = Generator(llm, base.config)
        self.refiner = Refiner(llm, base.config, base.vectorizer)

    @property
    def extractor(self):
        return self.base.extractor

    @property
    def library(self):
        return self.base.library

    def executor(self, db_id: str):
        return self.base.executor(db_id)

    def set_executor_wrapper(self, wrapper) -> None:
        self.base.set_executor_wrapper(wrapper)


class TieredPipeline:
    """Route/answer/escalate wrapper with the ``OpenSearchSQL`` surface."""

    def __init__(
        self,
        base: OpenSearchSQL,
        config: Optional[RoutingConfig] = None,
    ):
        self.base = base
        self.routing_config = config or RoutingConfig()
        seed = getattr(base.llm, "seed", base.config.seed)
        self.router = DifficultyRouter(
            lambda: self.base.library, self.routing_config, seed=seed
        )
        self.policy = EscalationPolicy(vote_floor=self.routing_config.vote_floor)
        self.fast_llm = SimulatedLLM(
            skill_by_name(self.routing_config.fast_model), seed=seed
        )
        self.heavy_llm = SimulatedLLM(
            skill_by_name(self.routing_config.heavy_model), seed=seed
        )
        self.fastpath = FastPathPipeline(
            base, self.fast_llm, n_candidates=self.routing_config.fast_candidates
        )
        self._heavy: Optional[_SiblingPipeline] = None
        self._stats_lock = threading.Lock()
        self._decisions: dict[str, int] = {}
        self._finals: dict[str, int] = {}
        self._escalation_reasons: dict[str, int] = {}
        self._tier_tokens: dict[str, int] = {}
        self._requests = 0

    # ------------------------------------------------- pipeline delegation

    @property
    def benchmark(self):
        return self.base.benchmark

    @property
    def llm(self):
        return self.base.llm

    @property
    def config(self):
        return self.base.config

    @property
    def vectorizer(self):
        return self.base.vectorizer

    @property
    def preprocessing_cost(self):
        return self.base.preprocessing_cost

    @property
    def databases(self):
        return self.base.databases

    # The serving engine installs its caching wrappers by *assigning*
    # ``pipeline.extractor`` / ``pipeline.library`` after construction;
    # delegating setters land those wrappers on the base so every tier
    # (fast path, heavy sibling) picks them up dynamically.

    @property
    def extractor(self):
        return self.base.extractor

    @extractor.setter
    def extractor(self, value) -> None:
        self.base.extractor = value

    @property
    def library(self):
        return self.base.library

    @library.setter
    def library(self, value) -> None:
        self.base.library = value

    def executor(self, db_id: str):
        return self.base.executor(db_id)

    @property
    def executor_wrapper(self):
        return self.base.executor_wrapper

    def set_executor_wrapper(self, wrapper) -> None:
        self.base.set_executor_wrapper(wrapper)

    def preprocessed(self, db_id: str):
        return self.base.preprocessed(db_id)

    # ----------------------------------------------------------- routing

    @property
    def heavy_pipeline(self) -> _SiblingPipeline:
        """The lazily-built HEAVY-tier sibling pipeline."""
        if self._heavy is None:
            self._heavy = _SiblingPipeline(self.base, self.heavy_llm)
        return self._heavy

    def wrap_llms(self, wrap) -> "TieredPipeline":
        """Route every tier's transport through ``wrap``.

        Covers the base (FULL) client plus the fast and heavy siblings —
        each tier keeps its own skill profile/seed, only the transport
        seam changes.  The heavy sibling is rebuilt eagerly so a lazily
        built ``_heavy`` cannot resurrect the unwrapped client later.
        """
        self.base.wrap_llms(wrap)
        self.fast_llm = wrap(self.fast_llm)
        self.fastpath.rebind_llm(self.fast_llm)
        self.heavy_llm = wrap(self.heavy_llm)
        self._heavy = _SiblingPipeline(self.base, self.heavy_llm)
        return self

    def route(self, example: Example) -> RouteDecision:
        """The pure, deterministic tier decision for one request."""
        return self.router.route(example, self.base.preprocessed(example.db_id))

    def route_tier(self, example: Example) -> str:
        """The routed tier name — the hook tier-aware cache keys call."""
        return self.route(example).tier.value

    def tier_mix(self, examples) -> dict[str, int]:
        """Routed-tier histogram over a workload (pure; no answering)."""
        mix = {tier.value: 0 for tier in Tier}
        for example in examples:
            mix[self.route_tier(example)] += 1
        return mix

    def routing_stats(self) -> dict:
        """Live counters: decisions, finals, escalations, tokens by tier."""
        with self._stats_lock:
            return {
                "requests": self._requests,
                "decisions": dict(sorted(self._decisions.items())),
                "final_tiers": dict(sorted(self._finals.items())),
                "escalations": dict(sorted(self._escalation_reasons.items())),
                "tokens_by_tier": dict(sorted(self._tier_tokens.items())),
            }

    # ------------------------------------------------------------- answer

    def _run_tier(
        self, tier: Tier, example: Example, deadline: Optional[Deadline]
    ) -> tuple[PipelineResult, Optional[tuple[str, str]]]:
        """Answer on one tier; returns (result, escalation signal)."""
        if tier is Tier.FAST:
            try:
                attempt = self.fastpath.answer(example, deadline=deadline)
            except Exception as exc:
                stub = PipelineResult(
                    question_id=example.question_id,
                    final_sql=FALLBACK_SQL,
                    degradations=[
                        DegradationEvent(
                            kind=DegradationKind.ANSWER_FAILED,
                            stage="routing",
                            cause=type(exc).__name__,
                            detail=f"fast path raised: {exc}",
                        )
                    ],
                )
                return stub, ("fast_failed", str(exc))
            return attempt.result, self.policy.assess_fast(attempt)
        if tier is Tier.FULL:
            result = self.base.answer(example, deadline=deadline)
            return result, self.policy.assess_full(result)
        return self.heavy_pipeline.answer(example, deadline=deadline), None

    @staticmethod
    def _confidence(result: PipelineResult) -> float:
        """Vote-share confidence of a full-pipeline result (-1 = none)."""
        refinement = result.refinement
        if refinement is None or not refinement.candidates:
            return -1.0
        share = vote_share(refinement.candidates)
        return -1.0 if share is None else share

    def answer(
        self,
        example: Example,
        deadline: Optional[Deadline] = None,
        trace: Optional[Trace] = None,
    ) -> PipelineResult:
        """Route, answer, escalate — one request end to end.

        Every attempt attaches its own cost meter to ``deadline``, so
        escalations are charged against the request's existing budget; an
        expired deadline stops the ladder and serves the current answer.
        Tier spans (``tier:fast`` …) carry exact cost deltas in the trace
        tree, and the merged result's :class:`RoutingInfo` makes journal
        replay tier-faithful.
        """
        decision = self.route(example)
        cost = CostTracker()
        degradations: list[DegradationEvent] = []
        escalations: list[EscalationEvent] = []
        attempts: list[TierAttempt] = []
        results: dict[Tier, PipelineResult] = {}

        if trace is not None:
            pre_span = trace.root.child("preprocessing")
            pre_span.set("amortized", True)
            pre_span.set("shared_tokens", self.preprocessing_cost.total_tokens)
            pre_span.set(
                "shared_model_seconds",
                round(self.preprocessing_cost.total_model_seconds, 6),
            )
            pre_span.finish(deadline)
            route_span = trace.root.child("routing")
            route_span.set("tier", decision.tier.value)
            route_span.set("score", decision.score)
            for key, value in decision.features.to_dict().items():
                route_span.set(key, value)
            route_span.finish(deadline)

        tier: Optional[Tier] = decision.tier
        current = decision.tier
        while tier is not None:
            current = tier
            cm = (
                trace.stage(f"tier:{tier.value}", cost=cost, deadline=deadline)
                if trace is not None
                else nullcontext(None)
            )
            with cm as span:
                tokens_before = cost.total_tokens
                seconds_before = cost.total_model_seconds
                result, signal = self._run_tier(tier, example, deadline)
                cost.merge(result.cost)
                degradations.extend(result.degradations)
                results[tier] = result
                tokens = cost.total_tokens - tokens_before
                seconds = cost.total_model_seconds - seconds_before

                next_tier = tier.next_tier
                out_of_budget = deadline is not None and deadline.expired
                escalate = signal is not None and next_tier is not None and not out_of_budget
                attempts.append(
                    TierAttempt(
                        tier=tier.value,
                        tokens=tokens,
                        model_seconds=round(seconds, 6),
                        escalated=escalate,
                    )
                )
                if span is not None:
                    for event in result.degradations:
                        span.event(
                            "degradation",
                            kind=event.kind.value,
                            cause=event.cause,
                            detail=event.detail,
                        )
                    if result.degradations:
                        span.status = "degraded"
                        trace.root.status = "degraded"
                if escalate:
                    event = EscalationEvent(
                        from_tier=tier.value,
                        to_tier=next_tier.value,
                        reason=signal[0],
                        detail=signal[1],
                        tokens_spent=tokens,
                        model_seconds_spent=round(seconds, 6),
                    )
                    escalations.append(event)
                    if span is not None:
                        span.status = "escalated"
                        span.event(
                            "escalation",
                            reason=event.reason,
                            to_tier=event.to_tier,
                            detail=event.detail,
                        )
                elif signal is not None and span is not None:
                    # Signal fired but the ladder could not promote
                    # (deadline spent or already at the top tier).
                    span.event(
                        "escalation_suppressed",
                        reason=signal[0],
                        cause="deadline" if out_of_budget else "top_tier",
                    )
            tier = next_tier if escalate else None

        # HEAVY is not strictly stronger than FULL: when both ran, serve
        # whichever answer the self-consistency vote trusts more.
        chosen_tier = current
        chosen = results[current]
        if current is Tier.HEAVY and Tier.FULL in results:
            if self._confidence(results[Tier.FULL]) >= self._confidence(chosen):
                chosen_tier = Tier.FULL
                chosen = results[Tier.FULL]

        routing = RoutingInfo(
            initial_tier=decision.tier.value,
            final_tier=chosen_tier.value,
            score=decision.score,
            features=decision.features.to_dict(),
            attempts=attempts,
            escalations=escalations,
        )
        self._record_stats(routing)
        if trace is not None:
            trace.root.set("initial_tier", routing.initial_tier)
            trace.root.set("final_tier", routing.final_tier)
            trace.finish(cost=cost, deadline=deadline)
        return PipelineResult(
            question_id=chosen.question_id,
            final_sql=chosen.final_sql,
            generation_sql=chosen.generation_sql,
            refined_sql=chosen.refined_sql,
            extraction=chosen.extraction,
            refinement=chosen.refinement,
            cost=cost,
            degradations=degradations,
            routing=routing,
        )

    def answer_many(self, examples: list[Example]) -> list[PipelineResult]:
        """Answer a batch of questions."""
        return [self.answer(example) for example in examples]

    def _record_stats(self, routing: RoutingInfo) -> None:
        with self._stats_lock:
            self._requests += 1
            self._decisions[routing.initial_tier] = (
                self._decisions.get(routing.initial_tier, 0) + 1
            )
            self._finals[routing.final_tier] = (
                self._finals.get(routing.final_tier, 0) + 1
            )
            for event in routing.escalations:
                self._escalation_reasons[event.reason] = (
                    self._escalation_reasons.get(event.reason, 0) + 1
                )
            for attempt in routing.attempts:
                self._tier_tokens[attempt.tier] = (
                    self._tier_tokens.get(attempt.tier, 0) + attempt.tokens
                )
