"""Journal record grammar v2: CRC-framed JSONL with record sequencing.

The v1 journal (PR 5) wrote bare ``json.dumps(record)`` lines and loaded
them best-effort — any undecodable line was silently skipped.  That is
the right call for a *torn tail* (a kill mid-write truncates the last
line; the request simply re-runs) but the wrong call for *interior*
damage (a flipped bit or a lost page in the middle of the file), where
"skip it" can silently drop a committed result and still certify the
recovery as clean.

v2 frames every record so the reader can tell the two apart::

    {"crc": <crc32 of the line minus its crc field>, "rec": <n>, ...record}

* ``crc`` — CRC32 (:func:`zlib.crc32`) over the canonical serialization
  (``json.dumps(body, sort_keys=True)``) of the record *without* the
  ``crc`` key.  A mismatch means the line's bytes are not the bytes the
  writer framed: corruption, not a tear.
* ``rec`` — the record's position in the file (0-based, monotone across
  every append including headers and seals).  A gap between two
  well-formed neighbours means a whole line vanished — interior loss
  that no tail-truncation can explain.
* ``{"type": "seal", "epoch": E, "committed": C}`` — appended (and
  fsynced) on clean shutdown.  A file whose last record is a seal was
  closed deliberately; anything else was interrupted.

**v1 read-compat:** a line without a ``crc`` key is a v1 record and is
accepted unverified; rec continuity is not enforced across v1 records.
Strict interior-damage detection is keyed on the *header* version
(``header_version >= 2``): files written before v2 — or headerless
scratch journals — keep the old tolerant semantics, so every journal
written before this format change still loads byte-for-byte.

:func:`scan_file` is the one reader: it never raises on damage, it
*classifies* it (:class:`LineIssue`, tail vs interior).
:class:`AppendLog` is the one writer, and it applies the load rule on
top of the scan.  The serving journal, the evaluation checkpoint and the
reindex checkpoint each hold one; ``repro fsck`` reads through
:func:`scan_file` directly.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

__all__ = [
    "JOURNAL_VERSION",
    "AppendLog",
    "JournalCorruptionError",
    "JournalVersionError",
    "LineIssue",
    "JournalScan",
    "encode_record",
    "decode_line",
    "scan_file",
]

#: the newest header ``version`` this reader understands
JOURNAL_VERSION = 2


class JournalVersionError(RuntimeError):
    """The journal header declares a format newer than this reader."""

    def __init__(self, path: Union[str, Path], found: int, supported: int):
        super().__init__(
            f"journal {path} is format v{found}, newer than the supported "
            f"v{supported}; upgrade repro before recovering this run"
        )
        self.path = str(path)
        self.found = found
        self.supported = supported


class JournalCorruptionError(RuntimeError):
    """Interior journal damage that truncating the tail cannot repair.

    Carries the full :class:`JournalScan` so callers can report a
    correctly-scoped loss (how many records *are* salvageable) instead
    of a bare stack trace.
    """

    def __init__(self, path: Union[str, Path], scan: "JournalScan"):
        first = scan.interior_issues[0] if scan.interior_issues else None
        where = (
            f"line {first.line} ({first.reason})" if first else "interior damage"
        )
        super().__init__(
            f"journal corruption in {path} at {where}: "
            f"{len(scan.interior_issues)} damaged line(s); "
            f"{scan.records} well-formed records salvageable "
            f"({len(scan.accepted)} accepted, {len(scan.committed)} committed); "
            f"run 'repro fsck --journal {path} --repair' to quarantine the damage"
        )
        self.path = str(path)
        self.scan = scan


def encode_record(record: dict, rec: int) -> str:
    """Frame one record as a v2 journal line (no trailing newline).

    The CRC covers the canonical (sorted-keys) serialization of the body
    *including* ``rec``, so both bit flips and a record replayed at the
    wrong position fail verification.
    """
    body = dict(record)
    body["rec"] = rec
    payload = json.dumps(body, sort_keys=True)
    body["crc"] = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return json.dumps(body, sort_keys=True)


def decode_line(line: str) -> tuple[Optional[dict], Optional[str]]:
    """Decode one journal line: ``(record, None)`` or ``(None, reason)``.

    v1 lines (no ``crc`` key) pass through unverified — the compat rule.
    The returned record keeps its ``rec`` key (v2) for continuity checks.
    """
    try:
        parsed = json.loads(line)
    except json.JSONDecodeError:
        return None, "unparseable"
    if not isinstance(parsed, dict):
        return None, "not-an-object"
    if "crc" not in parsed:
        if "rec" in parsed:
            # v1 records predate ``rec``: a record carrying one without
            # a crc is a v2 frame whose crc key itself was corrupted.
            return None, "crc-mismatch"
        return parsed, None  # v1 record: no integrity envelope
    body = {key: value for key, value in parsed.items() if key != "crc"}
    payload = json.dumps(body, sort_keys=True)
    if (zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF) != parsed["crc"]:
        return None, "crc-mismatch"
    return body, None


@dataclass
class LineIssue:
    """One damaged journal line, classified tail-vs-interior."""

    line: int  # 1-based line number in the file
    reason: str  # "unparseable" | "not-an-object" | "crc-mismatch" | "rec-gap"
    at_tail: bool  # True: the benign torn-last-line case
    raw: str = ""  # the damaged bytes (lossy-decoded), for quarantine

    def to_dict(self) -> dict:
        return {"line": self.line, "reason": self.reason, "at_tail": self.at_tail}


@dataclass
class JournalScan:
    """Everything one pass over a journal file can tell you.

    Never raises on damage — ``issues`` carries the classification and
    the caller picks the policy (truncate, raise, or tolerate).
    """

    path: str
    records: int = 0  # well-formed records (any version)
    v1_records: int = 0
    v2_records: int = 0
    header_version: Optional[int] = None
    header_config: dict = field(default_factory=dict)
    accepted: set = field(default_factory=set)
    committed: set = field(default_factory=set)
    seals: int = 0
    epoch: int = 0  # highest seal epoch seen
    sealed: bool = False  # the file's last record is a seal
    issues: list = field(default_factory=list)
    good_bytes: int = 0  # offset just past the last well-formed line
    next_rec: int = 0  # rec the next append should carry
    parsed: list = field(default_factory=list)  # decoded records, in order

    @property
    def torn_tail(self) -> bool:
        """Exactly the final line is damaged — safe to truncate."""
        return any(issue.at_tail for issue in self.issues)

    @property
    def interior_issues(self) -> list:
        return [issue for issue in self.issues if not issue.at_tail]

    @property
    def pending(self) -> set:
        return self.accepted - self.committed

    def loss_scope(self) -> dict:
        """JSON-ready accounting of what a tolerant read would lose."""
        return {
            "path": self.path,
            "records": self.records,
            "accepted": len(self.accepted),
            "committed": len(self.committed),
            "pending": len(self.pending),
            "damaged_lines": len(self.issues),
            "interior_damage": len(self.interior_issues),
            "torn_tail": self.torn_tail,
            "sealed": self.sealed,
        }


def scan_file(path: Union[str, Path]) -> JournalScan:
    """Classify every line of a journal file without raising.

    Tail-vs-interior rule: a single damaged *final* line is a torn tail
    (the one shape a crash mid-append produces); a damaged line with any
    well-formed line after it — or more than one damaged trailing line,
    or a rec discontinuity between well-formed v2 records — is interior
    damage.  ``good_bytes`` is the truncation point that drops a torn
    tail and nothing else.
    """
    path = Path(path)
    scan = JournalScan(path=str(path))
    data = path.read_bytes()
    offset = 0
    expected_rec: Optional[int] = 0  # None: resync after a damaged line
    last_was_seal = False
    last_good_line = 0
    for line_no, raw in enumerate(data.split(b"\n"), start=1):
        line_end = offset + len(raw) + 1  # +1 for the split newline
        stripped = raw.strip()
        if not stripped:
            offset = line_end
            continue
        text = stripped.decode("utf-8", errors="replace")
        record, reason = decode_line(text)
        if record is None:
            scan.issues.append(
                LineIssue(line=line_no, reason=reason or "unparseable",
                          at_tail=False, raw=text)
            )
            expected_rec = None  # unknown how many recs the damage ate
            offset = line_end
            continue
        rec = record.get("rec")
        if rec is not None:
            if expected_rec is not None and rec != expected_rec:
                # Well-formed neighbours with a rec hole: a whole line
                # (newline included) vanished — interior loss, at_tail
                # never applies.
                scan.issues.append(
                    LineIssue(line=line_no, reason="rec-gap", at_tail=False)
                )
            expected_rec = rec + 1
            scan.v2_records += 1
        else:
            # v1 record: consumes a rec slot without carrying one.
            if expected_rec is not None:
                expected_rec += 1
            scan.v1_records += 1
        scan.records += 1
        scan.parsed.append(record)
        scan.good_bytes = min(line_end, len(data))
        last_good_line = line_no
        kind = record.get("type")
        last_was_seal = kind == "seal"
        if kind == "header":
            if scan.header_version is None:
                scan.header_version = int(record.get("version", 1))
                scan.header_config = record.get("config", {}) or {}
        elif kind == "accepted" and record.get("seq") is not None:
            scan.accepted.add(record["seq"])
        elif kind == "committed" and record.get("seq") is not None:
            scan.committed.add(record["seq"])
        elif kind == "seal":
            scan.seals += 1
            scan.epoch = max(scan.epoch, int(record.get("epoch", 0)))
        offset = line_end
    scan.sealed = scan.records > 0 and last_was_seal
    scan.next_rec = scan.records
    # Tail classification: exactly one damaged line, with no well-formed
    # line after it, is the tear a crash mid-append produces.  rec-gap
    # issues never qualify (the line itself parsed; its *predecessor*
    # vanished).
    damaged = [issue for issue in scan.issues if issue.reason != "rec-gap"]
    if len(damaged) == 1 and damaged[0].line > last_good_line:
        damaged[0].at_tail = True
    return scan


def _default_opener(path: Path, mode: str):
    return open(path, mode, encoding="utf-8")


class AppendLog:
    """The one writer of a CRC-framed JSONL log file.

    Every append opens the file through ``opener(path, "a")`` — the seam
    :class:`~repro.storage.faults.FaultyStorage` and the fuzzers'
    recording opener plug into — writes one framed line and flushes it.
    It fsyncs when asked, or every ``fsync_every_n`` appends (0 = flush
    only: kill-resilient, not power-loss-resilient).  The handle must
    offer ``write``/``flush``/``fileno`` and the context-manager
    protocol; a ``sync()`` method, when present, replaces ``os.fsync``.

    Not thread-safe: callers serialize appends under their own lock.
    """

    def __init__(
        self,
        path: Union[str, Path],
        fsync_every_n: int = 0,
        opener: Optional[Callable] = None,
    ):
        if fsync_every_n < 0:
            raise ValueError("fsync_every_n must be >= 0")
        self.path = Path(path)
        self.fsync_every_n = fsync_every_n
        self._opener = opener or _default_opener
        #: the ``rec`` the next append carries
        self.rec = 0
        self._appends = 0
        self._unsynced = 0

    def load(self) -> JournalScan:
        """Scan the file, apply the load rule and return the scan.

        A header newer than :data:`JOURNAL_VERSION` raises
        :class:`JournalVersionError`.  Under a v2 header, interior damage
        raises :class:`JournalCorruptionError`; headerless and v1 files
        stay tolerant, and their damaged lines are simply absent from
        ``scan.parsed``.  A torn tail is truncated, so the next append
        starts on a clean line instead of being glued onto the tear.
        A missing file loads as an empty scan.
        """
        if not self.path.exists():
            self.rec = 0
            return JournalScan(path=str(self.path))
        scan = scan_file(self.path)
        version = scan.header_version
        if version is not None and version > JOURNAL_VERSION:
            raise JournalVersionError(self.path, version, JOURNAL_VERSION)
        if (version or 1) >= 2 and scan.interior_issues:
            raise JournalCorruptionError(self.path, scan)
        if scan.torn_tail:
            try:
                os.truncate(self.path, scan.good_bytes)
            except OSError:
                pass  # read-only file: it loads, and appends will fail
        self.rec = scan.next_rec
        return scan

    def append(self, record: dict, sync: bool = False) -> None:
        """Frame and write one record; an ``OSError`` propagates."""
        line = encode_record(record, self.rec)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._opener(self.path, "a") as handle:
            handle.write(line + "\n")
            handle.flush()
            self._appends += 1
            self._unsynced += 1
            if sync or (
                self.fsync_every_n and self._appends % self.fsync_every_n == 0
            ):
                self._fsync(handle)
        self.rec += 1

    def sync(self) -> None:
        """fsync the appends no fsync has covered yet (no-op when none)."""
        if self._unsynced and self.path.exists():
            with self._opener(self.path, "a") as handle:
                self._fsync(handle)

    def _fsync(self, handle) -> None:
        sync = getattr(handle, "sync", None)
        if callable(sync):
            sync()
        else:
            os.fsync(handle.fileno())
        self._unsynced = 0
