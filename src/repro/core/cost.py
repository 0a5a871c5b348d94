"""Per-module cost accounting (paper Table 6).

Every stage reports wall-clock time, simulated model latency and token
usage into a :class:`CostTracker`; the Table 6 bench aggregates trackers
across a workload into the same rows the paper prints.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.llm.base import TokenUsage

__all__ = ["StageCost", "CostTracker", "encode_cost", "decode_cost"]


@dataclass
class StageCost:
    """Accumulated cost of one pipeline stage."""

    wall_seconds: float = 0.0
    model_seconds: float = 0.0
    usage: TokenUsage = field(default_factory=TokenUsage)
    calls: int = 0

    def add_usage(self, usage: TokenUsage, model_seconds: float = 0.0) -> None:
        """Accumulate one call's token usage and model latency."""
        self.usage = self.usage + usage
        self.model_seconds += model_seconds
        self.calls += 1

    @property
    def total_tokens(self) -> int:
        """Prompt plus completion tokens across all recorded calls."""
        return self.usage.total_tokens

    @property
    def total_seconds(self) -> float:
        """Wall time of the stage plus the simulated model decode time
        (the simulator reports latency instead of sleeping it)."""
        return self.wall_seconds + self.model_seconds


class CostTracker:
    """Collects :class:`StageCost` per named stage."""

    def __init__(self):
        self._stages: dict[str, StageCost] = {}

    def stage(self, name: str) -> StageCost:
        """The (auto-created) accumulator for stage ``name``."""
        if name not in self._stages:
            self._stages[name] = StageCost()
        return self._stages[name]

    @contextmanager
    def timed(self, name: str):
        """Context manager accumulating wall time into stage ``name``."""
        start = time.perf_counter()
        try:
            yield self.stage(name)
        finally:
            self.stage(name).wall_seconds += time.perf_counter() - start

    def record_responses(self, name: str, responses) -> None:
        """Account a list of LLMResponse objects to stage ``name``."""
        stage = self.stage(name)
        usage = TokenUsage()
        model_seconds = 0.0
        for response in responses:
            usage = usage + response.usage
            model_seconds += response.latency_seconds
        stage.add_usage(usage, model_seconds)

    @property
    def stages(self) -> dict[str, StageCost]:
        """A copy of the per-stage accumulators."""
        return dict(self._stages)

    @property
    def total_model_seconds(self) -> float:
        """Simulated model decode latency summed over every stage — the
        per-request latency observable the serving layer aggregates."""
        return sum(stage.model_seconds for stage in self._stages.values())

    @property
    def total_tokens(self) -> int:
        """Prompt + completion tokens summed over every stage — with
        :attr:`total_model_seconds` the pair the tracing layer snapshots
        around each stage to attribute per-span cost deltas."""
        return sum(stage.total_tokens for stage in self._stages.values())

    def merge(self, other: "CostTracker") -> None:
        """Fold another tracker's totals into this one."""
        for name, cost in other._stages.items():
            stage = self.stage(name)
            stage.wall_seconds += cost.wall_seconds
            stage.model_seconds += cost.model_seconds
            stage.usage = stage.usage + cost.usage
            stage.calls += cost.calls

    def summary(self) -> dict[str, dict]:
        """Plain-dict view used by the Table 6 bench."""
        return {
            name: {
                "seconds": round(cost.total_seconds, 3),
                "model_seconds": round(cost.model_seconds, 3),
                "tokens": cost.total_tokens,
                "calls": cost.calls,
            }
            for name, cost in sorted(self._stages.items())
        }


def encode_cost(cost: CostTracker) -> dict:
    """Lossless per-stage cost serialization (unlike ``summary()``)."""
    return {
        name: {
            "wall_seconds": stage.wall_seconds,
            "model_seconds": stage.model_seconds,
            "prompt_tokens": stage.usage.prompt_tokens,
            "completion_tokens": stage.usage.completion_tokens,
            "calls": stage.calls,
        }
        for name, stage in cost.stages.items()
    }


def decode_cost(payload: dict) -> CostTracker:
    """Inverse of :func:`encode_cost`."""
    cost = CostTracker()
    for name, fields in payload.items():
        stage = cost.stage(name)
        stage.wall_seconds = fields.get("wall_seconds", 0.0)
        stage.model_seconds = fields.get("model_seconds", 0.0)
        stage.usage = TokenUsage(
            fields.get("prompt_tokens", 0), fields.get("completion_tokens", 0)
        )
        stage.calls = fields.get("calls", 0)
    return cost
