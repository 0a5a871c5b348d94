"""Durable write-ahead journal for the serving path.

A serving process can die at any instruction — OOM-killed, SIGKILLed by an
orchestrator, power loss.  The journal makes a serve-bench run — and an
evaluation, which is served and journaled the same way — *crash
recoverable*: the engine appends one JSONL record when a request is
**accepted** (before any work) and one when its result is **committed**
(after the pipeline answered), so after a crash :func:`recover_run` can
replay committed results from disk and re-run exactly the uncommitted
requests — and, because every pipeline draw derives from per-call hashed
seeds, the recovered run is *bit-identical* to an uninterrupted one.

Record grammar v2 (one JSON object per line, append-only; every line
additionally carries the :mod:`repro.storage.format` integrity frame —
a ``crc`` CRC32 over the canonical body and a monotone ``rec`` record
sequence — and a clean shutdown appends an epoch-stamped ``seal``)::

    {"type": "header", "version": 2, "config": {...workload parameters...}}
    {"type": "accepted",  "seq": 7, "question_id": ..., "db_id": ...}
    {"type": "committed", "seq": 7, "status": "ok"|"cached"|"coalesced"|"failed",
     "result": {final_sql, generation_sql, refined_sql, degradations,
                routing?},
     "cost": {stage: {...}}, "error": null, "schema_epoch": 0}
    {"type": "seal", "epoch": 1, "committed": 12}

(``schema_epoch`` appears only on runs with a live-mutation catalog
attached — see ``epoch_provider`` — and records the database's
catalog epoch at commit time.  It is unrelated to the seal ``epoch``,
which counts journal *sessions*.  :func:`recover_run` replays a live
run's mutation schedule after the same positions, and refuses, before
anything runs, a record whose ``schema_epoch`` differs from the epoch
the schedule gives its database at that position.)

v1 journals (no ``crc`` fields, ``version: 1`` header) load unchanged:
lines without a CRC are accepted unverified, and strict interior-damage
detection only applies to files whose header declares v2.

The optional ``routing`` payload (present only when a
:class:`~repro.routing.TieredPipeline` answered the request) stores the
tier decision, attempts and escalation events, so a kill/recover replay
is *tier-faithful*: replayed requests keep their original tier
accounting and re-run requests route identically by seed.

Durability properties:

* **torn-tail tolerance, interior strictness** — a line truncated by a
  kill mid-write at the *tail* is truncated away on load and its request
  re-runs; damage in the *interior* of a v2 journal (bit flip, lost
  line) raises a typed
  :class:`~repro.storage.format.JournalCorruptionError` with scoped
  loss accounting instead of silently skipping — ``repro fsck --repair``
  quarantines it offline (v1 journals keep the old skip semantics);
* **write-error brownout** — an ``ENOSPC``/``EIO`` on the append path
  disables disk writes (``journal_disabled``) but keeps the in-memory
  bookkeeping, so serving continues un-journaled instead of crashing;
  storage listeners (engine health/metrics, cluster worker) are told
  once;
* **exactly-once replay** — a committed seq is never re-run, an
  uncommitted seq is re-run exactly once per recovery (and committing it
  makes later recoveries no-ops), so repeated ``repro recover`` calls are
  idempotent;
* **double-count-proof costs** — each seq contributes its cost to the
  recovered report exactly once: committed seqs from their stored
  :class:`~repro.core.cost.CostTracker`, re-run seqs from the fresh
  execution, cache-hit seqs as zero (in the original run *and* in
  recovery, which warms its result cache from committed records so the
  hit pattern matches).

Every line goes through one :class:`~repro.storage.format.AppendLog`,
which owns the open/append/fsync/torn-tail mechanics.
``fsync_every_n`` forces an fsync every n appends for power-loss
semantics (0 = flush only, the default — kill-resilient, not
power-loss-resilient); :meth:`ServingJournal.seal` / ``close()`` always
fsync, so the final partial batch of a clean shutdown is never
droppable.  The ``opener`` hook swaps the filesystem out from under the
journal — :class:`repro.storage.FaultyStorage` plugs in there.
"""

from __future__ import annotations

import errno
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.caching import LRUCache, result_cache_key
from repro.core.cost import CostTracker, decode_cost, encode_cost
from repro.core.pipeline import OpenSearchSQL, PipelineResult
from repro.datasets.types import Example
from repro.reliability.deadline import Deadline
from repro.reliability.degradation import DegradationEvent
from repro.storage.format import (
    JOURNAL_VERSION,
    AppendLog,
    JournalCorruptionError,
    JournalVersionError,
)

if TYPE_CHECKING:
    from repro.serving.spec import LiveSchedule

__all__ = [
    "JOURNAL_VERSION",
    "ServingJournal",
    "recover_run",
    "epoch_stamps",
    "check_epoch_stamps",
    "JournalCorruptionError",
    "JournalVersionError",
]


def _classify_errno(exc: OSError) -> str:
    if exc.errno == errno.ENOSPC:
        return "enospc"
    if exc.errno == errno.EIO:
        return "eio"
    return "other"


class ServingJournal:
    """Append-only JSONL journal of accepted/committed serving requests."""

    def __init__(
        self,
        path: Union[str, Path],
        fsync_every_n: int = 0,
        on_commit: Optional[Callable[[int], None]] = None,
        opener: Optional[Callable] = None,
        on_storage_error: Optional[Callable[[OSError], None]] = None,
        epoch_provider: Optional[Callable[[str], int]] = None,
    ):
        #: ``opener(path, "a")`` must return a writable text-file-shaped
        #: handle (write/flush/fileno/close, optionally ``sync()``) —
        #: the storage fault-injection seam
        self._log = AppendLog(path, fsync_every_n=fsync_every_n, opener=opener)
        self.path = self._log.path
        #: ``epoch_provider(db_id)`` → current catalog ``schema_epoch``;
        #: when set, every committed record is stamped with the epoch of
        #: its request's database (the live-mutation harness wires the
        #: EpochRegistry here)
        self.epoch_provider = epoch_provider
        #: called with the cumulative commit count after each commit line
        #: reaches the OS — the hook the kill-after harness uses to
        #: SIGKILL the process at a deterministic journal position
        self.on_commit = on_commit
        self._storage_listeners: list[Callable[[OSError], None]] = []
        if on_storage_error is not None:
            self._storage_listeners.append(on_storage_error)
        self._lock = threading.Lock()
        self._commits = 0
        self._next_seq = 0
        #: brownout flag: a write-path OSError permanently disables disk
        #: appends for this journal instance (memory bookkeeping continues)
        self.disabled = False
        self.disable_reason: Optional[str] = None
        self.write_errors: dict[str, int] = {}
        #: this session's last append was a seal
        self._session_sealed = False
        self.config: dict = {}
        self._accepted: dict[int, dict] = {}
        self._committed: dict[int, dict] = {}
        scan = self._log.load()
        #: this session's seal epoch (1 + highest epoch already on disk)
        self.epoch = scan.epoch + 1
        #: the loaded file ended with a seal (clean shutdown last time)
        self.sealed = scan.sealed
        for record in scan.parsed:
            kind = record.get("type")
            if kind == "header":
                if not self.config:
                    self.config = record.get("config", {}) or {}
            elif kind == "accepted":
                self._accepted[record["seq"]] = record
            elif kind == "committed":
                self._committed[record["seq"]] = record
        if self._accepted or self._committed:
            self._next_seq = 1 + max([*self._accepted, *self._committed])

    # ------------------------------------------------------------ appending

    def _disable(self, exc: OSError) -> None:
        """Brown out: stop touching the disk, keep serving from memory."""
        kind = _classify_errno(exc)
        self.write_errors[kind] = self.write_errors.get(kind, 0) + 1
        if self.disabled:
            return
        self.disabled = True
        self.disable_reason = f"{kind}: {exc}"
        for listener in list(self._storage_listeners):
            listener(exc)

    def add_storage_listener(self, listener: Callable[[OSError], None]) -> None:
        """Subscribe to the (one-shot) journal_disabled brownout event."""
        self._storage_listeners.append(listener)

    def _append(self, record: dict, sync: bool = False) -> None:
        """Write one CRC-framed line; must be called with the lock held.

        A storage ``OSError`` trips the brownout instead of propagating:
        the caller's in-memory state is already updated and serving must
        outlive a full disk.
        """
        if self.disabled:
            return
        try:
            self._log.append(record, sync=sync)
        except OSError as exc:
            self._disable(exc)
            return
        if record.get("type") != "seal":
            # any new record past a seal re-opens the file's history
            self.sealed = self._session_sealed = False

    def write_header(self, config: dict) -> None:
        """Record the run's workload parameters (idempotent per journal)."""
        with self._lock:
            if self.config:
                return
            self.config = dict(config)
            self._append(
                {"type": "header", "version": JOURNAL_VERSION, "config": self.config}
            )

    def accept(self, example: Example, seq: Optional[int] = None) -> int:
        """Journal one accepted request and return its sequence number.

        Without ``seq`` the journal assigns the next monotone number —
        which equals the workload index when one client thread submits the
        workload in order.  Recovery passes explicit seqs so re-run
        requests land on their original positions.
        """
        with self._lock:
            if seq is None:
                seq = self._next_seq
            record = {
                "type": "accepted",
                "seq": seq,
                "question_id": example.question_id,
                "db_id": example.db_id,
            }
            self._accepted[seq] = record
            self._next_seq = max(self._next_seq, seq + 1)
            self._append(record)
            return seq

    def commit(
        self,
        seq: int,
        status: str,
        result: Optional[PipelineResult] = None,
        error: Optional[str] = None,
    ) -> None:
        """Journal one request's terminal outcome.

        ``status="cached"`` commits with zero cost (a result-tier hit did
        no model work); ``"coalesced"`` likewise (the async engine served
        the request from an in-flight leader's result); ``"ok"`` stores
        the SQL observables + the request's cost; ``"failed"`` stores the
        error (the request will *not* be re-run on recovery — its failure
        is part of the run's history).
        """
        record: dict = {"type": "committed", "seq": seq, "status": status,
                        "error": error}
        if status == "ok" and result is not None:
            record["result"] = {
                "question_id": result.question_id,
                "final_sql": result.final_sql,
                "generation_sql": result.generation_sql,
                "refined_sql": result.refined_sql,
                "degradations": [e.to_dict() for e in result.degradations],
            }
            routing = getattr(result, "routing", None)
            if routing is not None:
                record["result"]["routing"] = routing.to_dict()
            record["cost"] = encode_cost(result.cost)
        with self._lock:
            if self.epoch_provider is not None:
                accepted = self._accepted.get(seq)
                db_id = accepted.get("db_id") if accepted else None
                if db_id is not None:
                    record["schema_epoch"] = self.epoch_provider(db_id)
            self._committed[seq] = record
            self._append(record)
            self._commits += 1
            commits = self._commits
        if self.on_commit is not None:
            self.on_commit(commits)

    # -------------------------------------------------------------- sealing

    def seal(self) -> None:
        """Append an epoch-stamped seal and fsync — the clean-shutdown mark.

        Always syncs, even when the append count isn't a multiple of
        ``fsync_every_n``: a sealed journal's final batch must never be
        droppable on power cut.  A no-op when this session's last append
        was already a seal; records appended after one (recovery finishing
        requests the engine refused after its shutdown seal) are sealed by
        the next call.  A browned-out journal skips sealing (the disk
        already rejected us).
        """
        with self._lock:
            if self._session_sealed or self.disabled:
                return
            self._session_sealed = True
            self._append(
                {
                    "type": "seal",
                    "epoch": self.epoch,
                    "committed": len(self._committed),
                },
                sync=True,
            )
            if not self.disabled:
                self.sealed = True

    def close(self) -> None:
        """Alias for :meth:`seal` — journals close by sealing."""
        self.seal()

    # ------------------------------------------------------------ reporting

    def __len__(self) -> int:
        return len(self._committed)

    def accepted(self, seq: int) -> Optional[dict]:
        """The accepted record for one seq, or None."""
        with self._lock:
            return self._accepted.get(seq)

    def committed(self, seq: int) -> Optional[dict]:
        """The committed record for one seq, or None."""
        with self._lock:
            return self._committed.get(seq)

    def committed_seqs(self) -> list[int]:
        """Every committed seq (sorted)."""
        with self._lock:
            return sorted(self._committed)

    def accepted_seqs(self) -> list[int]:
        """Every accepted seq (sorted)."""
        with self._lock:
            return sorted(self._accepted)

    def stats_dict(self) -> dict:
        """JSON-ready accounting for metrics collectors."""
        with self._lock:
            accepted = len(self._accepted)
            committed = len(self._committed)
            pending = len(set(self._accepted) - set(self._committed))
        return {
            "path": str(self.path),
            "accepted": accepted,
            "committed": committed,
            "pending": pending,
            "fsync_every_n": self._log.fsync_every_n,
            "version": JOURNAL_VERSION,
            "epoch": self.epoch,
            "sealed": self.sealed,
            "disabled": self.disabled,
            "disable_reason": self.disable_reason,
            "write_errors": dict(self.write_errors),
        }

    def pending(self) -> list[int]:
        """Accepted-but-uncommitted seqs (in order)."""
        with self._lock:
            return sorted(set(self._accepted) - set(self._committed))

    @staticmethod
    def decode_result(record: dict) -> tuple[Optional[PipelineResult], CostTracker]:
        """Reconstruct the scoreable slice of a committed "ok" record."""
        payload = record.get("result")
        if payload is None:
            return None, CostTracker()
        cost = decode_cost(record.get("cost") or {})
        routing = None
        if payload.get("routing") is not None:
            # Local import: repro.serving stays importable without the
            # routing package (which pulls in the LLM skill profiles).
            from repro.routing.tiered import RoutingInfo

            routing = RoutingInfo.from_dict(payload["routing"])
        result = PipelineResult(
            question_id=payload["question_id"],
            final_sql=payload["final_sql"],
            generation_sql=payload.get("generation_sql"),
            refined_sql=payload.get("refined_sql"),
            cost=cost,
            degradations=[
                DegradationEvent.from_dict(d)
                for d in payload.get("degradations", [])
            ],
            routing=routing,
        )
        return result, cost


def epoch_stamps(journal: ServingJournal, workload: list[Example]) -> dict[str, list[int]]:
    """Per-database ``schema_epoch`` stamps found in committed records.

    Returns ``{db_id: sorted distinct epochs}`` for every database whose
    committed records carry a stamp (empty for pre-livedata journals).
    """
    recorded: dict[str, set[int]] = {}
    for seq, example in enumerate(workload):
        record = journal.committed(seq)
        if record is not None and "schema_epoch" in record:
            recorded.setdefault(example.db_id, set()).add(record["schema_epoch"])
    return {db_id: sorted(epochs) for db_id, epochs in sorted(recorded.items())}


def check_epoch_stamps(
    journal: ServingJournal,
    pipeline: OpenSearchSQL,
    workload: list[Example],
    schedule: Optional[LiveSchedule] = None,
) -> None:
    """Refuse cross-epoch replay (see :func:`recover_run`).

    Every stamped commit must carry the epoch its database has while its
    position is served: the ``schedule``'s epoch at that position, or,
    without a schedule, the replay catalog's current epoch (``pipeline.
    epochs``, 0 on a fresh catalog).  Reads only; nothing is appended.
    """
    from repro.livedata.errors import CrossEpochReplayError

    registry = getattr(pipeline, "epochs", None)
    for seq, example in enumerate(workload):
        record = journal.committed(seq)
        if record is None or "schema_epoch" not in record:
            continue
        if schedule is not None:
            expected = schedule.epoch_at(example.db_id, seq)
        else:
            expected = registry.epoch(example.db_id) if registry is not None else 0
        if record["schema_epoch"] != expected:
            recorded = epoch_stamps(journal, workload)[example.db_id]
            raise CrossEpochReplayError(example.db_id, tuple(recorded), expected)


def recover_run(
    journal: ServingJournal,
    pipeline: OpenSearchSQL,
    workload: list[Example],
    result_cache_size: int = 512,
    deadline_seconds: Optional[float] = None,
    schedule: Optional[LiveSchedule] = None,
) -> list[tuple[str, Optional[PipelineResult], CostTracker, Optional[str]]]:
    """Replay a journaled run to completion, exactly once per request.

    Walks the workload in sequence order: committed seqs are replayed from
    the journal (their result also warms the recovery result cache, so a
    later duplicate hits the cache exactly as it did — or would have — in
    the original run); uncommitted seqs are served fresh against the
    deterministic pipeline and committed, making recovery idempotent.

    Returns one ``(status, result, cost, error)`` tuple per workload
    position — the deterministic inputs
    :func:`~repro.evaluation.runner.assemble_report` scores.  Crashed
    requests (committed ``"failed"`` or a fresh raise) carry ``None``
    results, mirroring ``ServingEngine.run``.

    A live-mutation run passes its spec's
    :class:`~repro.serving.spec.LiveSchedule` (built on ``pipeline``'s
    stack): the walk applies the same mutations after the same positions
    the served run did, ``pipeline.epochs`` becomes the schedule's
    registry (result-cache keys carry epochs as the engine's do), and the
    commits recovery writes are stamped from it.

    Raises :class:`~repro.livedata.errors.CrossEpochReplayError`, before
    anything is replayed or appended, when a committed record's
    ``schema_epoch`` stamp differs from the epoch its database has at
    that position (see :func:`check_epoch_stamps`): replaying it would
    re-serve an answer computed against another catalog.
    """
    check_epoch_stamps(journal, pipeline, workload, schedule)
    if schedule is not None:
        pipeline.epochs = schedule.registry
        journal.epoch_provider = schedule.registry.epoch
    # size 0 disables the tier (every get misses), matching the engine's
    # --no-cache semantics so recovery mirrors the original hit pattern
    cache = LRUCache(result_cache_size)
    outcomes: list[tuple[str, Optional[PipelineResult], CostTracker, Optional[str]]] = []
    for seq, example in enumerate(workload):
        if schedule is not None and seq:
            # the mutation that fell after the previous position, if any
            schedule.after(seq - 1, cache.invalidate_db)
        # Tier-aware like the engine's key: a routed run recovers with the
        # same per-tier hit pattern the uninterrupted run had.
        key = result_cache_key(example, pipeline)
        record = journal.committed(seq)
        if record is not None:
            status = record.get("status", "ok")
            if status == "failed":
                outcomes.append(("failed", None, CostTracker(), record.get("error")))
                continue
            result, cost = ServingJournal.decode_result(record)
            if status in ("cached", "coalesced"):
                # "coalesced" is the async engine's single-flight follower:
                # served from an in-flight leader at zero cost.  Its seq is
                # always greater than its leader's (registration order), so
                # by the time it replays the leader's "ok" has warmed the
                # recovery cache and the hit below serves the same result.
                hit = cache.get(key)
                # serve the warmed original when available; the SQL
                # observables are identical either way
                outcomes.append((status, hit if hit is not None else result,
                                 CostTracker(), None))
                continue
            if result is not None and not result.deadline_exceeded:
                cache.put(key, result)
            outcomes.append(("ok", result, cost, None))
            continue

        # Uncommitted: serve fresh, mirroring the engine's cache semantics.
        hit = cache.get(key)
        if hit is not None:
            journal.accept(example, seq=seq)
            journal.commit(seq, "cached")
            outcomes.append(("cached", hit, CostTracker(), None))
            continue
        journal.accept(example, seq=seq)
        deadline = (
            Deadline(deadline_seconds) if deadline_seconds is not None else None
        )
        try:
            result = pipeline.answer(example, deadline=deadline)
        except Exception as exc:  # noqa: BLE001 — containment boundary
            error = f"{type(exc).__name__}: {exc}"
            journal.commit(seq, "failed", error=error)
            outcomes.append(("failed", None, CostTracker(), error))
            continue
        journal.commit(seq, "ok", result=result)
        if not result.deadline_exceeded:
            cache.put(key, result)
        outcomes.append(("ok", result, result.cost, None))
    return outcomes
