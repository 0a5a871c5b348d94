"""Drift-chaos certifier: mutations at every request boundary.

The storage layer has :mod:`repro.storage.crashfuzz` (power cuts at
every append boundary); this is its live-data sibling.  One campaign
certifies the three invariants the live-mutation world promises:

1. **Zero stale serves.**  A routed serving run is interleaved with
   seeded :class:`~repro.livedata.mutations.MutationDriver` mutations at
   request boundaries; after each mutation the engine's caches are
   invalidated and the :class:`~repro.livedata.reindex.ReindexWorker`
   brings the artifacts up to the new epoch.  The engine's
   ``stale_served`` counter — a completed answer whose catalog moved
   under it undetected — must end the campaign at exactly zero, and
   every answer is recorded with the ``schema_epoch`` it derived from.
2. **Zero double-reindexes.**  The reindex checkpoint must carry exactly
   one ``done`` record per ``(db_id, epoch)``.
3. **Byte-identical kill/resume.**  One more mutation is applied and
   reindexed through crash-fuzz's
   :class:`~repro.storage.crashfuzz.RecordingOpener` (logging the
   checkpoint's byte length after every append); then simulated SIGKILLs
   are enumerated with its ``cuts()`` — a *clean* cut after each append,
   and a *torn* cut mid-way through the next line — and a fresh worker
   resumes each truncated checkpoint.  Every resume must leave the file
   byte-identical to the uninterrupted reference (and a cut at the very
   end must produce the typed
   :class:`~repro.livedata.reindex.DoubleReindexError`, not a second
   pass).

Everything — workload, mutation schedule, embeddings, cut points — is
seeded, so two runs of the same config produce byte-identical outcome
documents; ``bench_drift`` diffs exactly that.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

from repro.livedata.epoch import EpochRegistry
from repro.livedata.mutations import MutationDriver
from repro.livedata.reindex import DoubleReindexError, ReindexWorker
from repro.storage.crashfuzz import RecordingOpener, build_campaign

__all__ = ["DriftFuzzConfig", "DriftOutcome", "DriftFuzzResult", "run_drift_fuzz"]


@dataclass
class DriftFuzzConfig:
    """Knobs of one drift campaign (all deterministic by ``seed``)."""

    requests: int = 10
    distinct: int = 5
    seed: int = 0
    candidates: int = 3
    routing: bool = True
    benchmark: str = "cluster-smoke"
    #: apply one mutation after every N served requests
    mutate_every: int = 1
    #: include torn (mid-line) cut variants
    torn: bool = True


@dataclass
class DriftOutcome:
    """One kill/resume cut point's verdict."""

    cut: str  # "clean-004" | "torn-004"
    kind: str  # "clean" | "torn"
    outcome: str  # "identical" | "already-done" | "diverged" | "traceback"
    detail: str = ""
    ok: bool = False

    def to_dict(self) -> dict:
        return {
            "cut": self.cut,
            "kind": self.kind,
            "outcome": self.outcome,
            "detail": self.detail,
            "ok": self.ok,
        }


@dataclass
class DriftFuzzResult:
    """Campaign verdict: serve-phase counters plus per-cut outcomes."""

    requests: list = field(default_factory=list)  # per-request dicts
    mutations: list = field(default_factory=list)  # MutationEvent dicts
    reindexes: list = field(default_factory=list)  # ReindexReport dicts
    livedata: dict = field(default_factory=dict)  # engine stale counters
    epoch_stamps: dict = field(default_factory=dict)  # journal stamps / db
    duplicate_done: int = 0
    catchup_seconds: float = 0.0
    outcomes: list = field(default_factory=list)  # DriftOutcome
    cut_points: int = 0
    checkpoint_crc: int = 0

    @property
    def stale_serves(self) -> int:
        return int(self.livedata.get("stale_served", 0))

    @property
    def ok(self) -> bool:
        return (
            self.stale_serves == 0
            and self.duplicate_done == 0
            and bool(self.outcomes)
            and all(o.ok for o in self.outcomes)
        )

    def summary(self) -> dict:
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.outcome] = counts.get(outcome.outcome, 0) + 1
        return {
            "requests": len(self.requests),
            "mutations": len(self.mutations),
            "reindexes": len(self.reindexes),
            "stale_serves": self.stale_serves,
            "stale_detected": int(self.livedata.get("stale_detected", 0)),
            "double_reindexes": self.duplicate_done,
            "catchup_seconds": round(self.catchup_seconds, 6),
            "cuts": len(self.outcomes),
            "append_boundaries": self.cut_points,
            "outcomes": dict(sorted(counts.items())),
            "ok": self.ok,
        }

    def to_dict(self) -> dict:
        """The full, deterministic outcome document (two runs diff empty)."""
        return {
            "summary": self.summary(),
            "requests": list(self.requests),
            "mutations": list(self.mutations),
            "reindexes": list(self.reindexes),
            "livedata": dict(self.livedata),
            "epoch_stamps": dict(sorted(self.epoch_stamps.items())),
            "checkpoint_crc": self.checkpoint_crc,
            "cuts": [outcome.to_dict() for outcome in self.outcomes],
        }

    def format(self) -> str:
        s = self.summary()
        mix = ", ".join(f"{k}={v}" for k, v in s["outcomes"].items())
        verdict = "CERTIFIED" if self.ok else "FAILED"
        return (
            f"drift-fuzz: {s['requests']} requests / {s['mutations']} "
            f"mutations / {s['reindexes']} reindexes — "
            f"stale_serves={s['stale_serves']} "
            f"double_reindexes={s['double_reindexes']} — "
            f"{s['cuts']} kill cuts over {s['append_boundaries']} append "
            f"boundaries ({mix}) — {verdict}"
        )


def run_drift_fuzz(
    config: DriftFuzzConfig, workdir: Union[str, Path]
) -> DriftFuzzResult:
    """Run one full campaign under ``workdir`` (left on disk for triage)."""
    from repro.serving.engine import ServingEngine
    from repro.serving.journal import ServingJournal, epoch_stamps

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload, pipeline, _cluster = build_campaign(config)
    registry = EpochRegistry()
    driver = MutationDriver(pipeline.benchmark, registry, seed=config.seed)
    result = DriftFuzzResult()

    # ------------------------------------------------ phase 1: serve+drift
    journal = ServingJournal(workdir / "journal.jsonl")
    journal.write_header({"kind": "drift-fuzz", "seed": config.seed})
    engine = ServingEngine(
        pipeline,
        workers=1,
        queue_capacity=max(4, config.requests),
        journal=journal,
    )
    engine.attach_livedata(registry)
    worker = ReindexWorker(
        pipeline,
        workdir / "reindex.jsonl",
        registry=registry,
        health=engine.health,
    )
    served = 0
    for example in workload:
        answer = engine.answer(example)
        served += 1
        result.requests.append(
            {
                "question_id": example.question_id,
                "db_id": example.db_id,
                "epoch": registry.epoch(example.db_id),
                "sql_crc": zlib.crc32(answer.final_sql.encode()) & 0xFFFFFFFF,
                "degradations": sorted(answer.degradations),
            }
        )
        if served % config.mutate_every == 0 and served < len(workload):
            event = driver.mutate()
            engine.invalidate_db(event.db_id)
            worker.reindex(event.db_id, epoch=event.epoch)
    result.epoch_stamps = epoch_stamps(journal, workload)
    engine.shutdown()
    result.reindexes = [report.to_dict() for report in worker.reports]
    result.livedata = dict(engine.livedata_stats)
    result.duplicate_done = len(worker.checkpoint.duplicate_done)
    result.catchup_seconds = worker.total_catchup_seconds

    # --------------------------------------- phase 2: kill/resume the worker
    # One more mutation, reindexed through a recording opener so every
    # checkpoint append boundary becomes a simulated SIGKILL point.
    event = driver.mutate()
    engine.invalidate_db(event.db_id)
    result.mutations = driver.log_dict()
    recording = RecordingOpener()
    ref_path = workdir / "reindex-ref.jsonl"
    ref_worker = ReindexWorker(
        pipeline, ref_path, opener=recording, registry=registry
    )
    ref_report = ref_worker.reindex(event.db_id, epoch=event.epoch)
    result.reindexes.append(ref_report.to_dict())
    result.catchup_seconds += ref_report.catchup_seconds
    ref_bytes = ref_path.read_bytes()
    result.cut_points = len(recording.log)
    result.checkpoint_crc = zlib.crc32(ref_bytes) & 0xFFFFFFFF

    for cut_id, kind, lengths in recording.cuts(config.torn):
        cut_path = workdir / f"cut-{cut_id}.jsonl"
        cut_path.write_bytes(ref_bytes[: lengths.get(ref_path.name, 0)])
        entry = DriftOutcome(cut=cut_id, kind=kind, outcome="traceback")
        try:
            finished = "identical"
            try:
                ReindexWorker(pipeline, cut_path, registry=registry).reindex(
                    event.db_id, epoch=event.epoch
                )
            except DoubleReindexError:
                finished = "already-done"
            entry.outcome = (
                finished if cut_path.read_bytes() == ref_bytes else "diverged"
            )
        except Exception as exc:  # noqa: BLE001 — the cert counts tracebacks
            entry.detail = f"{type(exc).__name__}: {exc}"
        entry.ok = entry.outcome in ("identical", "already-done")
        result.outcomes.append(entry)
        cut_path.unlink(missing_ok=True)
    return result
