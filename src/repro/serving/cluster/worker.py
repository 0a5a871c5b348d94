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
    ``{"type": "stats", "worker": k, "metrics": snapshot}`` — the
    engine's final metrics snapshot (its ``collected`` sections hold the
    serving and journal stats), sent during shutdown

Every response the worker sends is derived from its journal: a request's
``result`` message *is* the committed record, so anything the
coordinator saw on the wire is also on disk, and anything on disk can
stand in for a response that never arrived.
"""

from __future__ import annotations

import threading

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
    engine = stack.engine(workers=config.engine_workers, journal=journal)
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
                send(
                    {
                        "type": "stats",
                        "worker": worker_id,
                        "metrics": engine.metrics.snapshot(),
                    }
                )
                break
    finally:
        heartbeat.stop.set()
        try:
            conn.close()
        except OSError:
            pass
