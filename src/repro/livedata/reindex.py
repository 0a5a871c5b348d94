"""Crash-safe background reindexing for mutated databases.

When a :class:`~repro.livedata.mutations.MutationDriver` moves a
database to a new ``schema_epoch``, the serving pipeline's preprocessing
artifacts — the value/column vector indexes, the schema prompt, the
few-shot library's embeddings — describe a world that no longer exists.
:class:`ReindexWorker` re-derives them, one mutated database at a time,
with the durability discipline of the serving journal:

* **Checkpointed progress.**  Every completed unit of work (the schema/
  column pass, each table's value pass, the few-shot re-embed) appends a
  CRC-framed v2 record through the journal's writer
  (:class:`repro.storage.format.AppendLog`), which opens the file through
  the same ``opener`` seam — so the storage chaos layer
  (:class:`~repro.storage.faults.FaultyStorage`) can torture the write
  path — and every record is fsynced before the worker moves on.
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
* **Degraded, not dead.**  In background mode the worker consumes epoch
  bumps from a queue; a reindex failure is recorded against the
  ``reindex`` :class:`~repro.serving.health.HealthMonitor` component and
  surfaced through the ``reindexer`` probe (queue depth, liveness, last
  error) so a coordinator sees a wedged reindexer as a degraded worker,
  never a dead one.

Catch-up time is **virtual**: ``vectors re-embedded × seconds_per_
vector``, mirroring the repo's virtual-clock convention so the
``reindex_catchup_seconds`` gate metric is bit-reproducible.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from repro.livedata.errors import LiveDataError
from repro.storage.format import JOURNAL_VERSION, AppendLog, JournalCorruptionError
from repro.storage.faults import stable_hash

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
        seconds_per_vector: float = SECONDS_PER_VECTOR,
    ):
        self.pipeline = pipeline
        self.registry = registry
        self.health = health
        self.seconds_per_vector = seconds_per_vector
        self.checkpoint = ReindexCheckpoint(checkpoint_path, opener=opener)
        self._lock = threading.Lock()
        self.reports: list[ReindexReport] = []
        self.total_catchup_seconds = 0.0
        self.last_error: Optional[str] = None
        self._queue: "queue.Queue[Optional[tuple[str, int]]]" = queue.Queue()
        self._thread: Optional[threading.Thread] = None
        if health is not None:
            health.register_probe("reindexer", self.probe)

    # ------------------------------------------------------------- probing

    def probe(self) -> dict:
        """HealthMonitor probe: queue depth, liveness, accounting.

        A coordinator reading ``pending > 0`` with ``alive: False`` sees
        a wedged reindexer — degraded (stale artifacts keep serving
        behind the epoch guard) rather than dead.
        """
        payload = {
            "pending": self._queue.qsize(),
            "alive": self._thread.is_alive() if self._thread else False,
            "completed": len(self.reports),
            "catchup_seconds": round(self.total_catchup_seconds, 6),
        }
        if self.last_error:
            payload["last_error"] = self.last_error
        return payload

    # ---------------------------------------------------------- foreground

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
        units = ["schema"] + [f"values:{t}" for t in tables] + ["fewshot"]
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
        pre = self._rebuild_units(db_id, epoch, built, tables, report)
        # The swap is atomic from the serving path's point of view: the
        # old artifacts answer every request until the new object lands.
        self.pipeline.databases[db_id] = pre
        report.catchup_seconds = report.vectors * self.seconds_per_vector
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

    def _rebuild_units(self, db_id, epoch, built, tables, report):
        from repro.core.preprocessing import PreprocessedDatabase, ValueEntry
        from repro.schema.serialize import schema_to_prompt

        vectorizer = self.pipeline.vectorizer
        config = self.pipeline.config
        if config.vector_index == "hnsw":
            from repro.embedding.hnsw import HNSWIndex

            value_index = HNSWIndex(vectorizer.dimensions, seed=config.seed)
            column_index = HNSWIndex(vectorizer.dimensions, seed=config.seed)
        else:
            from repro.embedding.index import FlatIndex

            value_index = FlatIndex(vectorizer.dimensions)
            column_index = FlatIndex(vectorizer.dimensions)

        # -- unit: schema (column index + prompt) -------------------------
        keys: list[str] = []
        for table in built.schema.tables:
            for column in table.columns:
                key = f"{table.name}.{column.name}"
                doc = f"{table.name} {column.name} {column.description}"
                column_index.add(
                    key, vectorizer.embed(doc), payload=(table.name, column.name)
                )
                keys.append(key)
        self._finish_unit(db_id, epoch, "schema", len(keys), _digest(keys), report)

        # -- units: values per table --------------------------------------
        value_count = 0
        cursor = built.connection.cursor()
        schema_tables = {t.name: t for t in built.schema.tables}
        for name in tables:
            table = schema_tables[name]
            keys = []
            for column in table.columns:
                if not column.is_text:
                    continue
                cursor.execute(
                    f'SELECT DISTINCT "{column.name}" FROM "{table.name}" '
                    f'WHERE "{column.name}" IS NOT NULL'
                )
                for (value,) in cursor.fetchall():
                    text = str(value)
                    key = f"{table.name}.{column.name}={text}"
                    value_index.add(
                        key,
                        vectorizer.embed(text),
                        payload=ValueEntry(table.name, column.name, text),
                    )
                    keys.append(key)
            value_count += len(keys)
            self._finish_unit(
                db_id, epoch, f"values:{name}", len(keys), _digest(keys), report
            )

        # -- unit: few-shot re-embed --------------------------------------
        library = getattr(self.pipeline, "library", None)
        reembedded = (
            library.reindex_db(db_id) if library is not None else 0
        )
        self._finish_unit(
            db_id, epoch, "fewshot", reembedded,
            _digest([f"fewshot:{db_id}:{reembedded}"]), report,
        )

        return PreprocessedDatabase(
            schema=built.schema,
            value_index=value_index,
            column_index=column_index,
            schema_prompt=schema_to_prompt(built.schema),
            value_count=value_count,
        )

    def _finish_unit(self, db_id, epoch, unit, vectors, digest, report) -> None:
        report.vectors += vectors
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
            "vectors": vectors,
            "digest": digest,
        }
        self.checkpoint.append(record)
        self.checkpoint.units[(db_id, epoch, unit)] = record

    # ---------------------------------------------------------- background

    def enqueue(self, db_id: str, epoch: int) -> None:
        """Queue one epoch bump for the background thread."""
        self._queue.put((db_id, epoch))

    def watch(self, registry) -> None:
        """Subscribe to a registry: every bump enqueues a reindex."""
        registry.add_listener(self.enqueue)

    def start(self) -> "ReindexWorker":
        """Run the queue consumer on a daemon thread (degraded-not-dead:
        a failing reindex is recorded against health and the loop keeps
        draining)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._thread = threading.Thread(
            target=self._run, name="reindexer", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread is None:
            return
        self._queue.put(None)
        self._thread.join(timeout=timeout)

    def drain(self) -> None:
        """Block until every queued bump has been processed."""
        self._queue.join()

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    return
                db_id, epoch = item
                try:
                    self.reindex(db_id, epoch=epoch)
                except DoubleReindexError:
                    # a restart may replay a bump the checkpoint already
                    # carries; that is the resume path, not a failure
                    pass
                except Exception as exc:
                    self.last_error = f"{type(exc).__name__}: {exc}"
                    if self.health is not None:
                        self.health.record("reindex", False, detail=self.last_error)
            finally:
                self._queue.task_done()

    def close(self) -> None:
        self.stop()
