"""The shard worker process.

``worker_main`` is the spawn entry point: it rebuilds its whole serving
stack with :func:`~repro.serving.spec.build` from the run spec in its
:class:`~repro.serving.cluster.config.ClusterConfig` (nothing is
inherited from the coordinator), opens the shard's own journal
segment ``journal-shard-K.jsonl``, warms the result cache from any
committed records already in it (that is per-shard journal recovery —
a SIGKILLed-and-restarted worker resumes with the cache state its
previous life earned), and then serves requests from the coordinator
pipe until shutdown or pipe EOF.

Wire protocol (JSON-ready dicts over a ``multiprocessing`` pipe):

coordinator → worker
    ``{"type": "request", "seq", "example", "deadline_seconds"}``
    ``{"type": "adopt", "segment": path}``   — warm cache from a dead
    peer's segment after a ring rebalance handed this worker its keys
    ``{"type": "invalidate", "db_id", "epoch"}`` — the database mutated:
    adopt the new ``schema_epoch`` (monotone) and drop every cache tier
    keyed by it
    ``{"type": "shutdown"}``                 — drain, report, exit

worker → coordinator
    ``{"type": "ready", "worker": k}``       — engine built, serving
    ``{"type": "heartbeat", "worker": k}``   — liveness, on a timer
    ``{"type": "result", "worker", "seq", "record"}`` — the journal's
    committed record verbatim (status/result/cost), never a pickled
    live object
    ``{"type": "storage", "worker": k, "event", "reason"}`` — the
    shard's segment browned out (``journal_disabled``) or was
    quarantined corrupt on startup; the coordinator marks the worker
    degraded-not-dead and keeps routing to it
    ``{"type": "invalidated", "worker", "db_id", "epoch", "dropped"}`` —
    ack that the broadcast invalidation finished, with per-tier drop
    counts
    ``{"type": "stats", ...}``               — final shard-labelled
    serving/health/metrics/journal snapshots, sent during shutdown

Every response the worker sends is derived from its journal: a request's
``result`` message *is* the committed record, so anything the
coordinator saw on the wire is also on disk, and anything on disk can
stand in for a response that never arrived.
"""

from __future__ import annotations

import threading

from repro.observability.metrics import MetricsRegistry
from repro.serving.cluster.config import ClusterConfig
from repro.serving.journal import JournalCorruptionError, ServingJournal
from repro.serving.spec import build
from repro.storage.faults import FaultyStorage, StorageFaultPlan

__all__ = ["worker_main", "warm_engine_from_segment"]


def warm_engine_from_segment(engine, journal, example_index) -> int:
    """Warm ``engine``'s result tier from a segment's committed records.

    ``example_index`` maps question_id → Example (the worker's benchmark
    provides it; committed records carry ids, not question text).
    Records whose example is unknown are skipped — a foreign segment may
    reference databases this worker never serves.
    """
    pairs = []
    for seq in sorted(journal.committed_seqs()):
        record = journal.committed(seq)
        if record is None or record.get("status") != "ok":
            continue
        result, _cost = ServingJournal.decode_result(record)
        if result is None:
            continue
        example = example_index.get(result.question_id)
        if example is None:
            continue
        pairs.append((example, result))
    return engine.warm_result_cache(pairs)


class _Heartbeat(threading.Thread):
    """Periodic liveness signal, running from process entry (before the
    expensive benchmark build) so a slow start never reads as a death."""

    def __init__(self, worker_id: int, send, interval: float):
        super().__init__(name=f"shard-{worker_id}-heartbeat", daemon=True)
        self.worker_id = worker_id
        self.send = send
        self.interval = interval
        self.stop = threading.Event()

    def run(self) -> None:
        while not self.stop.wait(self.interval):
            try:
                self.send({"type": "heartbeat", "worker": self.worker_id})
            except OSError:
                return  # coordinator is gone; process will exit shortly


def worker_main(worker_id: int, config_payload: dict, conn) -> None:
    """Entry point of one spawned shard worker (see module docstring)."""
    config = ClusterConfig.from_dict(config_payload)
    send_lock = threading.Lock()

    def send(message: dict) -> None:
        with send_lock:
            conn.send(message)

    heartbeat = _Heartbeat(worker_id, send, config.heartbeat_interval)
    heartbeat.start()

    stack = build(config.spec)
    example_index = {
        example.question_id: example
        for split in ("train", "dev", "test")
        for example in stack.benchmark.split(split)
    }
    opener = None
    if config.storage:
        plan = StorageFaultPlan.from_dict(config.storage)
        seed = config.storage.get("seed", config.spec.seed)
        opener = FaultyStorage(plan, seed=seed).opener

    def on_storage_error(exc: OSError) -> None:
        # Brownout is degraded-not-dead: tell the coordinator and keep
        # serving from memory.
        send(
            {
                "type": "storage",
                "worker": worker_id,
                "event": "journal_disabled",
                "reason": f"{type(exc).__name__}: {exc}",
            }
        )

    segment_path = config.segment_path(worker_id)
    try:
        journal = ServingJournal(
            segment_path, opener=opener, on_storage_error=on_storage_error
        )
    except JournalCorruptionError as exc:
        # A restarted worker must not die on a segment its previous life
        # corrupted: quarantine the damaged file (evidence preserved)
        # and start a fresh segment — recovery re-runs what it lost.
        quarantined = segment_path.with_name(segment_path.name + ".corrupt")
        segment_path.replace(quarantined)
        send(
            {
                "type": "storage",
                "worker": worker_id,
                "event": "segment_quarantined",
                "reason": str(exc),
            }
        )
        journal = ServingJournal(
            segment_path, opener=opener, on_storage_error=on_storage_error
        )
    journal.write_header(config.header_config(worker_id))
    metrics = MetricsRegistry()
    engine = stack.engine(
        workers=config.engine_workers, journal=journal, metrics=metrics
    )
    registry = None
    if config.livedata:
        from repro.livedata.epoch import EpochRegistry

        # The epoch-versioned catalog: commit records get schema_epoch
        # stamps, cache keys become epoch-scoped, and the pre-execute
        # guard turns catalog races into typed retries.  A resumed
        # cluster adopts the coordinator's epoch snapshot — a worker
        # restarting its counters at 0 would stamp lies.
        registry = EpochRegistry()
        for db_id, epoch in sorted(config.schema_epochs.items()):
            registry.advance(db_id, int(epoch))
        engine.attach_livedata(registry)
    warmed = warm_engine_from_segment(engine, journal, example_index)
    send({"type": "ready", "worker": worker_id, "warmed": warmed})

    from repro.serving.cluster.config import example_from_wire

    def _respond(seq: int):
        def callback(future) -> None:
            record = journal.committed(seq)
            if record is None:
                # the engine rejected before accepting (should not happen
                # under cluster admission settings) — fail typed, not silent
                error = "request finished without a journal commit"
                exc = future.exception()
                if exc is not None:
                    error = f"{type(exc).__name__}: {exc}"
                send(
                    {
                        "type": "error",
                        "worker": worker_id,
                        "seq": seq,
                        "error": error,
                    }
                )
                return
            send(
                {
                    "type": "result",
                    "worker": worker_id,
                    "seq": seq,
                    "record": record,
                }
            )

        return callback

    def _shutdown_payload() -> dict:
        return {
            "type": "stats",
            "worker": worker_id,
            "serving": engine.stats().to_dict(),
            "health": engine.health.snapshot(),
            "metrics": metrics.snapshot(),
            "journal": journal.stats_dict(),
            "traces": [trace.structure() for trace in engine.traces()],
        }

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # coordinator died; exit without draining
            kind = message.get("type")
            if kind == "request":
                example = example_from_wire(message["example"])
                try:
                    future = engine.submit(
                        example,
                        block=True,
                        seq=message["seq"],
                        deadline_seconds=message.get("deadline_seconds"),
                    )
                except Exception as exc:  # noqa: BLE001 — typed reject path
                    send(
                        {
                            "type": "error",
                            "worker": worker_id,
                            "seq": message["seq"],
                            "error": f"{type(exc).__name__}: {exc}",
                        }
                    )
                    continue
                future.add_done_callback(_respond(message["seq"]))
            elif kind == "invalidate":
                # Cluster-wide invalidation: the coordinator observed a
                # database mutation and broadcasts the new epoch.  The
                # local registry adopts it (monotone — replays no-op),
                # then every cache tier keyed by the db is dropped; the
                # next request re-derives against the new catalog.
                db_id = message["db_id"]
                epoch = message.get("epoch")
                if registry is not None and epoch is not None:
                    registry.advance(db_id, int(epoch))
                dropped = engine.invalidate_db(db_id)
                send(
                    {
                        "type": "invalidated",
                        "worker": worker_id,
                        "db_id": db_id,
                        "epoch": epoch,
                        "dropped": dropped,
                    }
                )
            elif kind == "adopt":
                try:
                    adopted = ServingJournal(message["segment"])
                    count = warm_engine_from_segment(
                        engine, adopted, example_index
                    )
                except (JournalCorruptionError, OSError):
                    # a dead peer's segment may be damaged — adopting
                    # zero records is degraded, dying over it is worse
                    count = 0
                send(
                    {
                        "type": "adopted",
                        "worker": worker_id,
                        "segment": message["segment"],
                        "warmed": count,
                    }
                )
            elif kind == "shutdown":
                engine.shutdown(drain=True)
                send(_shutdown_payload())
                break
    finally:
        heartbeat.stop.set()
        try:
            conn.close()
        except OSError:
            pass
