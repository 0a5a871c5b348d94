"""Cluster configuration and the JSON wire codec shared by both sides.

Workers run in *spawned* processes: nothing is inherited, so everything a
worker needs to rebuild its half of the system — the run's
:class:`~repro.serving.spec.RunSpec`, the journal segment location, the
supervision settings — must cross the process boundary as plain
JSON-ready data.  :class:`ClusterConfig` is that contract;
:func:`example_to_wire` / :func:`example_from_wire` carry individual
requests the same way (no pickled live objects).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.datasets.types import Example, ValueMention
from repro.serving.spec import RunSpec

__all__ = [
    "ClusterConfig",
    "SEGMENT_PREFIX",
    "segment_name",
    "example_to_wire",
    "example_from_wire",
]

#: journal segment filename stem; shard K journals to
#: ``<journal_dir>/journal-shard-K.jsonl``
SEGMENT_PREFIX = "journal-shard-"


def segment_name(shard: int) -> str:
    """Filename of shard ``shard``'s journal segment."""
    return f"{SEGMENT_PREFIX}{shard}.jsonl"


@dataclass
class ClusterConfig:
    """Everything a coordinator and its workers agree on up front."""

    #: number of worker processes / journal segments
    shards: int = 2
    #: the served run: every worker rebuilds its stack with
    #: ``build(spec)``, and every segment header records it
    spec: RunSpec = field(default_factory=RunSpec)
    #: journal directory; each shard appends to its own segment inside it
    journal_dir: str = ""
    #: virtual nodes per shard on the consistent-hash ring
    ring_vnodes: int = 128
    #: threads inside each worker's ServingEngine; 1 keeps per-shard
    #: processing serial, which the byte-identical recovery cert relies on
    engine_workers: int = 1
    #: worker → coordinator heartbeat period (seconds)
    heartbeat_interval: float = 0.2
    #: missing heartbeats for this long marks a worker dead even if its
    #: process object still reports alive (hung-worker detection)
    heartbeat_timeout: float = 10.0
    #: restarts allowed per worker before its death is permanent
    restart_budget: int = 1
    #: restart delay: backoff_base * 2**restarts_used seconds
    backoff_base: float = 0.05
    #: times one request may be re-routed after shard deaths before the
    #: typed ShardUnavailableError escapes to the caller
    max_reroutes: int = 2
    #: wall-clock ceiling for one request end to end (safety net so a
    #: supervision bug degrades to a typed failure, never a hang)
    request_timeout: float = 120.0
    #: storage fault-injection plan for each worker's journal segment
    #: (:class:`repro.storage.StorageFaultPlan` fields, plus an optional
    #: ``seed``); empty dict = real, fault-free filesystem
    storage: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if not self.journal_dir:
            raise ValueError("cluster serving requires a journal_dir")
        if self.restart_budget < 0:
            raise ValueError("restart_budget must be >= 0")

    def segment_path(self, shard: int) -> Path:
        return Path(self.journal_dir) / segment_name(shard)

    def header_config(self, shard: int) -> dict:
        """The header record shard ``shard`` writes to its segment: the
        spec plus the placement keys."""
        header = self.spec.to_header()
        header.update(shards=self.shards, ring_vnodes=self.ring_vnodes, shard=shard)
        return header

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ClusterConfig":
        return cls(**{**payload, "spec": RunSpec(**payload["spec"])})


# ------------------------------------------------------------- wire codec


def example_to_wire(example: Example) -> dict:
    """One Example as a JSON-ready dict (tuples become lists)."""
    payload = asdict(example)
    payload["traits"] = list(example.traits)
    payload["value_mentions"] = [asdict(m) for m in example.value_mentions]
    return payload


def example_from_wire(payload: dict) -> Example:
    """Rebuild an Example from :func:`example_to_wire` output."""
    fields = dict(payload)
    fields["traits"] = tuple(fields.get("traits", ()))
    fields["value_mentions"] = tuple(
        ValueMention(**mention) for mention in fields.get("value_mentions", ())
    )
    return Example(**fields)
