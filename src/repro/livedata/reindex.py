"""Crash-safe reindexing for mutated databases.

When a :class:`~repro.livedata.mutations.MutationDriver` moves a
database to a new ``schema_epoch``, the serving pipeline's preprocessing
artifacts for it — the value/column vector indexes and the schema
prompt — describe a world that no longer exists.  :class:`ReindexWorker`
re-derives them by running the startup preprocessor again
(:meth:`~repro.core.preprocessing.Preprocessor.preprocess_database`), so
a reindexed database's artifacts equal a fresh build of its current
contents.  The few-shot library is a function of the train split alone,
which no mutation touches, so it is never reindexed.  The work is
recorded with the durability discipline of the serving journal:

* **Checkpointed progress.**  Every unit of work (the schema/column
  pass, each table's value pass) appends a CRC-framed v2 record through
  the journal's writer (:class:`repro.storage.format.AppendLog`), which
  opens the file through the same ``opener`` seam — so the storage chaos
  layer (:class:`~repro.storage.faults.FaultyStorage`) can torture the
  write path — and every record is fsynced before the next.
* **Resumable after SIGKILL.**  On restart the worker scans the
  checkpoint (torn tails truncated, interior damage refused), recomputes
  every unit *in memory* — the process that died took its indexes with
  it — but appends records only for units the crash lost.  Because unit
  order and content are deterministic, the resumed checkpoint file is
  byte-identical to one written by an uninterrupted reindex, and a
  recorded-vs-recomputed digest mismatch is a typed failure rather than
  silent drift.
* **Zero double-reindexes.**  A ``done`` record is unique per
  ``(db_id, epoch)``; asking for an epoch that already completed raises
  :class:`DoubleReindexError` instead of burning a second pass.

Catch-up time is **virtual**: vectors re-embedded ×
:data:`SECONDS_PER_VECTOR`, mirroring the repo's virtual-clock
convention so the ``reindex_catchup_seconds`` gate metric is
bit-reproducible.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from repro.core.preprocessing import Preprocessor
from repro.hashing import stable_hash
from repro.livedata.errors import LiveDataError
from repro.storage.format import JOURNAL_VERSION, AppendLog, JournalCorruptionError

__all__ = [
    "DoubleReindexError",
    "ReindexCheckpoint",
    "ReindexReport",
    "ReindexWorker",
]

#: virtual re-embedding cost per vector (seconds); deterministic by fiat
SECONDS_PER_VECTOR = 0.0005


class DoubleReindexError(LiveDataError):
    """A ``(db_id, epoch)`` pair that already completed was re-requested."""

    def __init__(self, db_id: str, epoch: int):
        super().__init__(
            f"reindex of {db_id!r} at schema_epoch {epoch} already completed; "
            "a second pass would double-bill the catch-up work"
        )
        self.db_id = db_id
        self.epoch = epoch


def _digest(parts: list[str]) -> str:
    """Stable short digest of a unit's re-embedded keys."""
    return format(stable_hash("reindex-digest", *sorted(parts)) & 0xFFFFFFFF, "08x")


class ReindexCheckpoint:
    """The v2-framed JSONL checkpoint behind one worker.

    Record grammar (every line CRC-framed with a monotone ``rec``)::

        {"type": "header", "version": 2, "config": {"kind": "reindex"}}
        {"type": "start", "db_id": D, "epoch": E, "units": [...]}
        {"type": "unit",  "db_id": D, "epoch": E, "unit": U,
         "vectors": N, "digest": H}
        {"type": "done",  "db_id": D, "epoch": E, "vectors": N,
         "catchup_seconds": S}

    ``load`` applies the journal's load rule: a header newer than v2
    raises :class:`~repro.storage.format.JournalVersionError`, and a torn
    tail (the one shape SIGKILL-mid-append produces) is truncated away so
    the next append lands on a clean line boundary.  Interior damage
    raises :class:`~repro.storage.format.JournalCorruptionError`, even
    when it hit the header line itself.
    """

    def __init__(self, path: Union[str, Path], opener: Optional[Callable] = None):
        self.log = AppendLog(path, opener=opener)
        self.path = self.log.path
        #: (db_id, epoch) pairs with a start record
        self.started: set[tuple[str, int]] = set()
        #: (db_id, epoch, unit) triples with a unit record
        self.units: dict[tuple[str, int, str], dict] = {}
        #: (db_id, epoch) pairs with a done record
        self.done: set[tuple[str, int]] = set()
        #: done records seen more than once (must stay empty)
        self.duplicate_done: list[tuple[str, int]] = []
        self.load()

    def load(self) -> None:
        """(Re)build the in-memory view from the file on disk."""
        self.started.clear()
        self.units.clear()
        self.done.clear()
        self.duplicate_done.clear()
        scan = self.log.load()
        if scan.interior_issues:
            raise JournalCorruptionError(self.path, scan)
        for record in scan.parsed:
            kind = record.get("type")
            if kind == "start":
                self.started.add((record["db_id"], record["epoch"]))
            elif kind == "unit":
                key = (record["db_id"], record["epoch"], record["unit"])
                self.units[key] = record
            elif kind == "done":
                pair = (record["db_id"], record["epoch"])
                if pair in self.done:
                    self.duplicate_done.append(pair)
                self.done.add(pair)

    def append(self, record: dict) -> None:
        """Frame, append and fsync one record."""
        self.log.append(record, sync=True)


@dataclass
class ReindexReport:
    """One completed (or resumed) reindex of a database at an epoch."""

    db_id: str
    epoch: int
    units: list[str] = field(default_factory=list)
    resumed_units: int = 0  # units recomputed without a new record
    vectors: int = 0
    catchup_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "db_id": self.db_id,
            "epoch": self.epoch,
            "units": list(self.units),
            "resumed_units": self.resumed_units,
            "vectors": self.vectors,
            "catchup_seconds": round(self.catchup_seconds, 6),
        }


class ReindexWorker:
    """Re-derive one database's preprocessing artifacts per epoch bump."""

    def __init__(
        self,
        pipeline,
        checkpoint_path: Union[str, Path],
        opener: Optional[Callable] = None,
        registry=None,
        health=None,
    ):
        self.pipeline = pipeline
        self.registry = registry
        self.health = health
        self.checkpoint = ReindexCheckpoint(checkpoint_path, opener=opener)
        self._lock = threading.Lock()
        self.reports: list[ReindexReport] = []
        self.total_catchup_seconds = 0.0
        if health is not None:
            health.register_probe("reindexer", self.probe)

    def probe(self) -> dict:
        """HealthMonitor probe: completed reindexes and their catch-up."""
        return {
            "completed": len(self.reports),
            "catchup_seconds": round(self.total_catchup_seconds, 6),
        }

    def reindex(self, db_id: str, epoch: Optional[int] = None) -> ReindexReport:
        """Bring one database's artifacts up to ``epoch``.

        Every unit is recomputed in memory (a resumed process has no
        artifacts to reuse); checkpoint records are appended only for
        units the file does not already carry, which is what makes an
        interrupted-and-resumed checkpoint byte-identical to an
        uninterrupted one.  Raises :class:`DoubleReindexError` when the
        ``(db_id, epoch)`` pair already has a ``done`` record.
        """
        if epoch is None:
            if self.registry is None:
                raise ValueError("epoch is required without a registry")
            epoch = self.registry.epoch(db_id)
        with self._lock:
            report = self._reindex_locked(db_id, epoch)
        if self.health is not None:
            self.health.record("reindex", True)
        return report

    def _reindex_locked(self, db_id: str, epoch: int) -> ReindexReport:
        if (db_id, epoch) in self.checkpoint.done:
            raise DoubleReindexError(db_id, epoch)
        built = self.pipeline.benchmark.databases[db_id]
        tables = sorted(t.name for t in built.schema.tables)
        units = ["schema"] + [f"values:{t}" for t in tables]
        report = ReindexReport(db_id=db_id, epoch=epoch, units=units)
        if self.checkpoint.log.rec == 0:
            self.checkpoint.append(
                {"type": "header", "version": JOURNAL_VERSION,
                 "config": {"kind": "reindex"}}
            )
        if (db_id, epoch) not in self.checkpoint.started:
            self.checkpoint.append(
                {"type": "start", "db_id": db_id, "epoch": epoch, "units": units}
            )
            self.checkpoint.started.add((db_id, epoch))
        pipeline = self.pipeline
        pre = Preprocessor(
            pipeline.llm, pipeline.config, pipeline.vectorizer
        ).preprocess_database(built)
        values: dict[str, list[str]] = {name: [] for name in tables}
        for key in pre.value_index.keys():
            values[key.split(".", 1)[0]].append(key)
        self._finish_unit(db_id, epoch, "schema", pre.column_index.keys(), report)
        for name in tables:
            self._finish_unit(db_id, epoch, f"values:{name}", values[name], report)
        # The swap is atomic from the serving path's point of view: the
        # old artifacts answer every request until the new object lands.
        pipeline.databases[db_id] = pre
        report.catchup_seconds = report.vectors * SECONDS_PER_VECTOR
        self.checkpoint.append(
            {
                "type": "done",
                "db_id": db_id,
                "epoch": epoch,
                "vectors": report.vectors,
                "catchup_seconds": round(report.catchup_seconds, 6),
            }
        )
        self.checkpoint.done.add((db_id, epoch))
        self.reports.append(report)
        self.total_catchup_seconds += report.catchup_seconds
        return report

    def _finish_unit(self, db_id, epoch, unit, keys, report) -> None:
        report.vectors += len(keys)
        digest = _digest(keys)
        recorded = self.checkpoint.units.get((db_id, epoch, unit))
        if recorded is not None:
            # The crash lost the in-memory work but not the record: the
            # recomputation must match what was checkpointed, or the
            # world drifted between the two passes.
            if recorded.get("digest") != digest:
                raise LiveDataError(
                    f"reindex digest mismatch for {db_id!r} epoch {epoch} "
                    f"unit {unit!r}: checkpoint has {recorded.get('digest')}, "
                    f"recomputed {digest}"
                )
            report.resumed_units += 1
            return
        record = {
            "type": "unit",
            "db_id": db_id,
            "epoch": epoch,
            "unit": unit,
            "vectors": len(keys),
            "digest": digest,
        }
        self.checkpoint.append(record)
        self.checkpoint.units[(db_id, epoch, unit)] = record

    def close(self) -> None:
        """Nothing to release: every record is fsynced as it is written."""
