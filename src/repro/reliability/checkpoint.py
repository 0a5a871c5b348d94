"""JSONL checkpointing for evaluation runs.

A checkpointed run appends one JSON line per finished example — its three
stage scores, per-stage cost, degradation events and (when the example
crashed) the error.  Resuming with the same path replays finished examples
from disk and continues with the rest, so an interrupted run reaches the
identical final :class:`~repro.evaluation.runner.EvalReport` as an
uninterrupted one.

Every line carries the :mod:`repro.storage.format` CRC frame and is
written by one :class:`~repro.storage.format.AppendLog`.  The file has no
header, so the log keeps the tolerant policy: a damaged line — torn by a
kill mid-write, or failing its CRC anywhere in the file — is skipped on
load and its example simply re-runs; damage is never fatal.  A torn tail
is also truncated on load, so the next record starts on a clean line.
Bare unframed lines, written before the frame existed, still load.  The
opt-in ``fsync_every_n`` flag adds power-loss durability: every n appends
the file is fsync'd, bounding how many records a power cut (which can
drop data the OS already buffered) may lose.
"""

from __future__ import annotations

import threading
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro.core.cost import CostTracker
from repro.llm.base import TokenUsage
from repro.reliability.degradation import DegradationEvent
from repro.storage.format import AppendLog

if TYPE_CHECKING:  # runtime import would cycle through repro.evaluation
    from repro.evaluation.metrics import ExampleScore

__all__ = [
    "CHECKPOINT_VERSION",
    "EvalCheckpoint",
    "encode_score",
    "decode_score",
    "encode_cost",
    "decode_cost",
]

CHECKPOINT_VERSION = 1


def encode_score(score: Optional[ExampleScore]) -> Optional[dict]:
    """ExampleScore → JSON-ready dict (None passes through)."""
    return None if score is None else asdict(score)


def decode_score(payload: Optional[dict]) -> Optional[ExampleScore]:
    """Inverse of :func:`encode_score`."""
    from repro.evaluation.metrics import ExampleScore

    return None if payload is None else ExampleScore(**payload)


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


class EvalCheckpoint:
    """Append-only JSONL store of per-example evaluation records."""

    def __init__(
        self,
        path: Union[str, Path],
        fsync_every_n: int = 0,
        opener=None,
    ):
        #: 0 (default) flushes to the OS only — kill-resilient; n > 0 also
        #: fsyncs every n appends — power-loss-resilient at write cost.
        #: ``opener(path, "a")`` returns the append handle — the storage
        #: fault-injection seam (:class:`repro.storage.FaultyStorage`)
        self._log = AppendLog(path, fsync_every_n=fsync_every_n, opener=opener)
        self.path = self._log.path
        self._records: dict[str, dict] = {}
        # Parallel evaluation workers append concurrently; the lock keeps
        # each JSONL line intact (no interleaved partial writes).
        self._lock = threading.Lock()
        for record in self._log.load().parsed:
            qid = record.get("question_id")
            if qid:
                self._records[qid] = record

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, question_id: str) -> bool:
        return question_id in self._records

    def get(self, question_id: str) -> Optional[dict]:
        """The stored record for one example, or None."""
        return self._records.get(question_id)

    def record_example(
        self,
        question_id: str,
        *,
        score: Optional[ExampleScore] = None,
        generation_score: Optional[ExampleScore] = None,
        refined_score: Optional[ExampleScore] = None,
        cost: Optional[CostTracker] = None,
        degradations: Optional[list[DegradationEvent]] = None,
        error: Optional[str] = None,
    ) -> dict:
        """Append one finished example and return the stored record."""
        record = {
            "version": CHECKPOINT_VERSION,
            "question_id": question_id,
            "score": encode_score(score),
            "generation_score": encode_score(generation_score),
            "refined_score": encode_score(refined_score),
            "cost": encode_cost(cost) if cost is not None else None,
            "degradations": [e.to_dict() for e in (degradations or [])],
            "error": error,
        }
        with self._lock:
            self._records[question_id] = record
            self._log.append(record)
        return record

    def close(self) -> None:
        """fsync the final partial batch (idempotent, crash-safe to skip).

        ``fsync_every_n`` syncs every n appends; without this, the last
        ``appends % n`` records are droppable on power cut even after a
        *clean* run.  Call when the evaluation finishes.
        """
        with self._lock:
            try:
                self._log.sync()
            except OSError:
                pass  # best-effort: close() must not fail a finished run

    @staticmethod
    def decode(record: dict) -> tuple[
        Optional[ExampleScore],
        Optional[ExampleScore],
        Optional[ExampleScore],
        Optional[CostTracker],
        list[DegradationEvent],
    ]:
        """Unpack a stored record into runner-ready pieces."""
        cost = decode_cost(record["cost"]) if record.get("cost") else None
        degradations = [
            DegradationEvent.from_dict(d) for d in record.get("degradations", [])
        ]
        return (
            decode_score(record.get("score")),
            decode_score(record.get("generation_score")),
            decode_score(record.get("refined_score")),
            cost,
            degradations,
        )
