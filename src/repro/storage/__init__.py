"""Storage robustness layer: fault injection, journal v2, fsck.

Submodules:

* :mod:`repro.storage.format` — the CRC-framed journal v2 record
  grammar, the damage-classifying :func:`scan_file` reader, and
  :class:`AppendLog`, the one writer under the serving journal, the
  evaluation checkpoint and the reindex checkpoint.
* :mod:`repro.storage.faults` — :class:`FaultyStorage`, the seeded
  filesystem chaos harness.  It plugs into :class:`AppendLog`'s
  ``opener`` seam, so all three logs accept it.
* :mod:`repro.storage.fsck` — offline validation/repair behind
  ``repro fsck --journal``.
* :mod:`repro.storage.crashfuzz` — the power-cut recovery fuzzer and
  the recording opener and campaign builder the drift fuzzer shares
  (imported lazily by the CLI and benchmarks: it pulls in the serving
  stack, which itself depends on :mod:`repro.storage.format`).
"""

from repro.storage.faults import FaultyFile, FaultyStorage, StorageFaultPlan
from repro.storage.format import (
    AppendLog,
    JournalCorruptionError,
    JournalScan,
    JournalVersionError,
    LineIssue,
    decode_line,
    encode_record,
    scan_file,
)
from repro.storage.fsck import (
    RepairResult,
    find_double_serves,
    repair_file,
    scan_path,
)

__all__ = [
    "FaultyFile",
    "FaultyStorage",
    "StorageFaultPlan",
    "AppendLog",
    "JournalCorruptionError",
    "JournalScan",
    "JournalVersionError",
    "LineIssue",
    "decode_line",
    "encode_record",
    "scan_file",
    "RepairResult",
    "find_double_serves",
    "repair_file",
    "scan_path",
]
