"""Crash-consistency fuzzer: power cuts at every append boundary.

The recovery story (journal → segments → merged replay) is certified in
CI against *one* kill point per job.  This module certifies all of them:
it generates a 3-shard routed reference run whose segments are written
through a recording opener (capturing the byte length of every segment
after every append), then enumerates simulated power cuts —

* **clean cuts** — after append k, every segment truncated to its exact
  length at that instant (simultaneous power loss across shards);
* **torn cuts** — append k+1 survives only to its midpoint byte (the
  tear a real disk leaves when power dies mid-sector);
* **bit-flip trials** — the full run survives but one seeded bit inside
  one append is inverted (silent media corruption discovered on load)

— and recovers each one with :func:`~repro.serving.journal.recover_run`
over a :class:`~repro.serving.cluster.recovery.ShardedJournalView`.

The certification invariant, per cut: recovery produces a report
**byte-identical** to the reference, or a **typed, correctly-scoped**
error (``JournalCorruptionError`` for interior damage — after which
``repro fsck --repair`` must restore byte-identical recovery) — never a
wrong report, a double-serve, or a traceback.  Every draw is seeded, so
the same seed yields the same cut-point outcomes on every run and
platform (CI diffs two invocations).

The reference run reuses the recovery path itself to generate segments:
``recover_run`` over empty headered segments *is* a serial sharded
serve (ring-routed accepts/commits, engine cache semantics), so cut
recoveries and the reference converge by construction — any divergence
is a real crash-consistency bug, not harness skew.

:class:`RecordingOpener` and :func:`build_campaign` are shared with the
drift fuzzer (:mod:`repro.livedata.driftfuzz`), which cuts the reindex
checkpoint the same way.
"""

from __future__ import annotations

import json
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.storage.faults import stable_hash
from repro.storage.format import JournalCorruptionError, JournalVersionError
from repro.storage.fsck import repair_file

__all__ = [
    "CrashFuzzConfig",
    "FuzzOutcome",
    "FuzzResult",
    "RecordingOpener",
    "build_campaign",
    "run_crash_fuzz",
]


@dataclass
class CrashFuzzConfig:
    """Knobs of one fuzzing campaign (all deterministic by ``seed``)."""

    shards: int = 3
    requests: int = 12
    distinct: int = 6
    seed: int = 0
    candidates: int = 3
    routing: bool = True
    benchmark: str = "cluster-smoke"
    #: include torn (mid-append) cut variants
    torn: bool = True
    #: seeded single-bit corruption trials on the completed run
    bitflips: int = 3


@dataclass
class FuzzOutcome:
    """One cut point's verdict."""

    cut: str  # "clean-007", "torn-012", "flip-002"
    kind: str  # "clean" | "torn" | "flip"
    outcome: str  # "identical" | "typed-loss" | "empty-journal" |
    #              "wrong-report" | "double-serve" | "traceback"
    detail: str = ""
    #: bit-flip trials only: recovery verdict after ``repro fsck --repair``
    repaired: Optional[str] = None
    ok: bool = False

    def to_dict(self) -> dict:
        payload = {
            "cut": self.cut,
            "kind": self.kind,
            "outcome": self.outcome,
            "detail": self.detail,
            "ok": self.ok,
        }
        if self.repaired is not None:
            payload["repaired"] = self.repaired
        return payload


@dataclass
class FuzzResult:
    """Campaign verdict: per-cut outcomes plus the rolled-up counts."""

    outcomes: list = field(default_factory=list)
    reference_doc: str = ""
    cut_points: int = 0

    @property
    def ok(self) -> bool:
        return bool(self.outcomes) and all(o.ok for o in self.outcomes)

    def summary(self) -> dict:
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.outcome] = counts.get(outcome.outcome, 0) + 1
        return {
            "cuts": len(self.outcomes),
            "append_boundaries": self.cut_points,
            "ok": self.ok,
            "outcomes": dict(sorted(counts.items())),
        }

    def format(self) -> str:
        s = self.summary()
        mix = ", ".join(f"{k}={v}" for k, v in s["outcomes"].items())
        verdict = "CERTIFIED" if self.ok else "FAILED"
        return (
            f"crash-fuzz: {s['cuts']} cuts over {s['append_boundaries']} "
            f"append boundaries — {mix} — {verdict}"
        )


class RecordingOpener:
    """Append opener that logs every append's byte effect, across files.

    :class:`~repro.storage.format.AppendLog` opens the file once per
    append, so one open that grew the file is one append.  The log is the
    global append order: ``(file name, size after, bytes)`` per append.
    """

    def __init__(self):
        self.log: list[tuple[str, int, int]] = []
        self._sizes: dict[str, int] = {}

    @contextmanager
    def __call__(self, path: Union[str, Path], mode: str):
        with open(path, mode, encoding="utf-8") as handle:
            yield handle
        name = Path(path).name
        size = os.path.getsize(path)
        nbytes = size - self._sizes.get(name, 0)
        if nbytes:
            self._sizes[name] = size
            self.log.append((name, size, nbytes))

    def lengths(self, k: int, torn: bool = False) -> dict[str, int]:
        """Per-file byte lengths left by a power cut after append ``k``.

        ``torn`` also keeps the first half of append ``k + 1`` (log index
        ``k``): the tear a disk leaves when power dies mid-sector.
        """
        lengths: dict[str, int] = {}
        for name, size_after, _nbytes in self.log[:k]:
            lengths[name] = size_after
        if torn:
            name, _size_after, nbytes = self.log[k]
            lengths[name] = lengths.get(name, 0) + nbytes // 2
        return lengths

    def cuts(self, torn: bool = True) -> Iterator[tuple[str, str, dict]]:
        """``(cut_id, kind, lengths)`` for every clean cut, then every torn one."""
        for k in range(len(self.log) + 1):
            yield f"clean-{k:03d}", "clean", self.lengths(k)
        if torn:
            for k, (_name, _size_after, nbytes) in enumerate(self.log):
                if nbytes >= 2:
                    yield f"torn-{k:03d}", "torn", self.lengths(k, torn=True)


def build_campaign(config, shards: int = 1):
    """(workload, pipeline, cluster) for a crash- or drift-fuzz campaign.

    ``config`` carries ``benchmark``, ``candidates``, ``seed``,
    ``routing``, ``distinct`` and ``requests``.  The distinct pool is
    spread across databases so the ring actually partitions the workload
    over all shards.
    """
    from repro.serving.cluster.config import ClusterConfig, build_worker_pipeline
    from repro.serving.workload import spread_pool, zipf_workload

    routing_config: dict = {}
    if config.routing:
        from repro.routing import RoutingConfig

        routing_config = RoutingConfig().to_dict()
    cluster = ClusterConfig(
        shards=shards,
        benchmark=config.benchmark,
        candidates=config.candidates,
        seed=config.seed,
        journal_dir="unused",  # log paths come from the fuzz workdir
        routing=config.routing,
        routing_config=routing_config,
    )
    benchmark, pipeline = build_worker_pipeline(cluster)
    pool = spread_pool(benchmark.dev, config.distinct)
    workload = zipf_workload(pool, requests=config.requests, seed=config.seed)
    return workload, pipeline, cluster


def _write_reference(config, cluster, pipeline, workload, ref_dir: Path):
    """Serve the workload into recorded segments; return (recording, doc)."""
    from repro.serving.cluster.config import segment_name
    from repro.serving.cluster.recovery import ShardedJournalView
    from repro.serving.journal import (
        ServingJournal,
        assemble_report,
        recover_run,
    )

    ref_dir.mkdir(parents=True, exist_ok=True)
    recording = RecordingOpener()
    for shard in range(config.shards):
        journal = ServingJournal(ref_dir / segment_name(shard), opener=recording)
        journal.write_header(cluster.header_config(shard))
    view = ShardedJournalView(ref_dir, opener=recording)
    outcomes = recover_run(view, pipeline, workload)
    report = assemble_report(outcomes, workload, pipeline, name="crashfuzz")
    doc = json.dumps(report.deterministic_dict(), sort_keys=True)
    return recording, doc


def _materialize(cut_dir: Path, lengths: dict[str, int], data: dict) -> Path:
    """Write each file's first ``lengths[name]`` bytes of ``data[name]``."""
    cut_dir.mkdir(parents=True, exist_ok=True)
    for name, length in lengths.items():
        (cut_dir / name).write_bytes(data[name][:length])
    return cut_dir


def _recover(cut_dir: Path, pipeline, workload, ref_doc: str):
    """(outcome, detail) for one materialized cut directory."""
    from repro.serving.cluster.recovery import DoubleServeError, ShardedJournalView
    from repro.serving.journal import assemble_report, recover_run

    try:
        view = ShardedJournalView(cut_dir)
        outcomes = recover_run(view, pipeline, workload)
        report = assemble_report(outcomes, workload, pipeline, name="crashfuzz")
        doc = json.dumps(report.deterministic_dict(), sort_keys=True)
    except FileNotFoundError:
        return "empty-journal", "no-segments"
    except (JournalCorruptionError, JournalVersionError) as exc:
        name = Path(getattr(exc, "path", "?")).name
        return "typed-loss", f"{type(exc).__name__}:{name}"
    except DoubleServeError as exc:
        return "double-serve", f"seq={exc.seq}"
    except Exception as exc:  # noqa: BLE001 — the cert counts tracebacks
        return "traceback", f"{type(exc).__name__}: {exc}"
    if doc != ref_doc:
        return "wrong-report", "report-diverged"
    return "identical", ""


def _flip_positions(log, config: CrashFuzzConfig) -> list[int]:
    """Seeded sample of append indices to bit-flip (spread, deduped)."""
    candidates = [k for k, (_n, _s, nbytes) in enumerate(log) if nbytes >= 8]
    picks: list[int] = []
    for trial in range(config.bitflips):
        if not candidates:
            break
        pick = candidates[
            stable_hash("flip-pick", config.seed, trial) % len(candidates)
        ]
        if pick not in picks:
            picks.append(pick)
    return picks


def run_crash_fuzz(
    config: CrashFuzzConfig, workdir: Union[str, Path]
) -> FuzzResult:
    """Run one full campaign under ``workdir`` (left on disk for triage)."""
    workdir = Path(workdir)
    workload, pipeline, cluster = build_campaign(config, config.shards)
    ref_dir = workdir / "reference"
    recording, ref_doc = _write_reference(
        config, cluster, pipeline, workload, ref_dir
    )
    log = recording.log
    ref_bytes = {
        path.name: path.read_bytes() for path in ref_dir.glob("journal-shard-*")
    }
    result = FuzzResult(reference_doc=ref_doc, cut_points=len(log))

    for cut_id, kind, lengths in recording.cuts(config.torn):
        cut_dir = _materialize(workdir / "cuts" / cut_id, lengths, ref_bytes)
        outcome, detail = _recover(cut_dir, pipeline, workload, ref_doc)
        entry = FuzzOutcome(cut=cut_id, kind=kind, outcome=outcome, detail=detail)
        # Pure power cuts must never lose anything recovery can't
        # rebuild: byte-identical, or (cut before any segment existed) a
        # typed empty-journal report.
        entry.ok = outcome == "identical" or (
            outcome == "empty-journal" and not lengths
        )
        result.outcomes.append(entry)
        shutil.rmtree(cut_dir, ignore_errors=True)

    every = recording.lengths(len(log))
    for trial, k in enumerate(_flip_positions(log, config)):
        name, size_after, nbytes = log[k]
        data = bytearray(ref_bytes[name])
        start = size_after - nbytes
        position = start + stable_hash("flip-pos", config.seed, k) % max(
            1, nbytes - 1
        )
        data[position] ^= 1 << (stable_hash("flip-bit", config.seed, k) % 8)
        cut_id = f"flip-{trial:03d}"
        cut_dir = _materialize(
            workdir / "cuts" / cut_id, every, {**ref_bytes, name: bytes(data)}
        )
        outcome, detail = _recover(cut_dir, pipeline, workload, ref_doc)
        entry = FuzzOutcome(cut=cut_id, kind="flip", outcome=outcome, detail=detail)
        if outcome == "typed-loss":
            for segment in cut_dir.glob("journal-shard-*.jsonl"):
                repair_file(segment)
            entry.repaired, _detail = _recover(cut_dir, pipeline, workload, ref_doc)
        entry.ok = (entry.repaired or outcome) == "identical"
        result.outcomes.append(entry)
        shutil.rmtree(cut_dir, ignore_errors=True)

    return result
