"""Seeded, deterministic filesystem fault injection for journal writes.

The database layer has ``execution/chaos.py``; this is its storage
sibling.  :class:`FaultyStorage` hands out an ``opener(path, mode)``
that :class:`~repro.storage.format.AppendLog` accepts as a drop-in for
:func:`open` — so the serving journal, the evaluation checkpoint and the
reindex checkpoint all accept it — and every ``write()`` through it draws a
fault from a seeded FNV hash keyed on ``(seed, path, append-index)`` —
the same draw discipline as the database chaos layer, so a given seed
produces the same fault schedule on every run and every platform.

Fault taxonomy (all independent, banded off one draw):

* **torn write** — the full line reaches the OS (the caller sees
  success and the live process keeps a consistent in-memory view), but
  only a seeded *prefix* is marked durable: after :meth:`power_cut` the
  file ends mid-record, exactly like a real tear discovered on reboot.
* **short write** — only a prefix reaches the file and the caller gets
  ``EIO`` immediately (an interrupted ``write(2)``); the journal's
  brownout path owns what happens next.
* **bit flip** — the line lands with one seeded bit inverted: silent
  media corruption that only the v2 CRC can catch, on the *next* load.
* **ENOSPC / EIO** — the write raises before any byte lands.
  ``enospc_after=N`` is the deterministic variant: the first N appends
  per file succeed, every later one raises ``ENOSPC`` (the CI brownout
  smoke uses this to trip ``journal_disabled`` at a fixed point).

Durability model: bytes become durable only on ``sync()`` (fsync).
:meth:`FaultyStorage.power_cut` truncates every tracked file to its
durable length plus the contiguous fully-persisted prefix of the writes
after the last sync — i.e. sequential writeback, where the first torn
write ends the surviving prefix.  Lost *interior* pages are modeled
separately (bit flips + fsck tests) to keep the cut model reviewable.
"""

from __future__ import annotations

import errno
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

__all__ = ["StorageFaultPlan", "FaultyFile", "FaultyStorage", "stable_hash"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


def stable_hash(*parts: object) -> int:
    """Process-independent FNV-1a hash with a murmur-style finalizer.

    Mirrors ``execution/chaos.py`` so one seed discipline governs every
    chaos layer in the repo.
    """
    value = _FNV_OFFSET
    data = "|".join(map(str, parts)).encode()
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & _MASK
    value ^= value >> 33
    value = (value * 0xC4CEB9FE1A85EC53) & _MASK
    value ^= value >> 33
    return value


@dataclass(frozen=True)
class StorageFaultPlan:
    """Per-write fault rates (plus the deterministic ENOSPC trigger)."""

    torn_write: float = 0.0
    short_write: float = 0.0
    bit_flip: float = 0.0
    enospc: float = 0.0
    eio: float = 0.0
    #: deterministic: appends beyond this count (per path) raise ENOSPC
    enospc_after: Optional[int] = None

    def __post_init__(self):
        for name in ("torn_write", "short_write", "bit_flip", "enospc", "eio"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.total_rate > 1.0:
            raise ValueError("summed fault rates must be <= 1")
        if self.enospc_after is not None and self.enospc_after < 0:
            raise ValueError("enospc_after must be >= 0")

    @property
    def total_rate(self) -> float:
        return (
            self.torn_write + self.short_write + self.bit_flip
            + self.enospc + self.eio
        )

    @classmethod
    def none(cls) -> "StorageFaultPlan":
        return cls()

    @classmethod
    def chaos(cls, rate: float = 0.2) -> "StorageFaultPlan":
        """Spread ``rate`` across the non-erroring corruption kinds."""
        return cls(torn_write=rate / 2, bit_flip=rate / 2)

    def to_dict(self) -> dict:
        return {
            "torn_write": self.torn_write,
            "short_write": self.short_write,
            "bit_flip": self.bit_flip,
            "enospc": self.enospc,
            "eio": self.eio,
            "enospc_after": self.enospc_after,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StorageFaultPlan":
        known = {f: payload[f] for f in (
            "torn_write", "short_write", "bit_flip", "enospc", "eio",
            "enospc_after") if f in payload}
        return cls(**known)


class _PathState:
    """Per-file durability bookkeeping (guarded by FaultyStorage._lock)."""

    __slots__ = ("appends", "durable_len", "cut_len", "tail_intact")

    def __init__(self, initial_len: int):
        self.appends = 0  # writes ever issued to this path
        self.durable_len = initial_len  # survives fsync-respecting crash
        self.cut_len = initial_len  # survives a power cut right now
        self.tail_intact = True  # no tear since the last sync


class FaultyFile:
    """File handle that injects faults on ``write`` and tracks durability.

    Quacks like the slice of a text-mode file object the journal and
    checkpoint use: ``write``/``flush``/``fileno``/``close`` plus
    context-manager protocol, and adds ``sync()`` — callers that fsync
    through ``sync()`` (rather than ``os.fsync`` on the raw fd) let the
    harness observe durability points.
    """

    def __init__(self, storage: "FaultyStorage", path: Path, handle):
        self._storage = storage
        self._path = path
        self._handle = handle  # binary append handle on the real file

    # ------------------------------------------------------------- file API

    def write(self, data: str) -> int:
        payload = data.encode("utf-8")
        self._storage._write(self._path, self._handle, payload)
        return len(data)

    def flush(self) -> None:
        self._handle.flush()

    def fileno(self) -> int:
        return self._handle.fileno()

    def sync(self) -> None:
        """fsync: everything written so far becomes durable."""
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._storage._mark_durable(self._path)

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "FaultyFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class FaultyStorage:
    """Factory for fault-injecting file handles, plus the power switch."""

    def __init__(self, plan: StorageFaultPlan, seed: int = 0):
        self.plan = plan
        self.seed = seed
        self._lock = threading.Lock()
        self._paths: dict[str, _PathState] = {}
        self.stats = {
            "writes": 0,
            "torn_writes": 0,
            "short_writes": 0,
            "bit_flips": 0,
            "enospc": 0,
            "eio": 0,
        }
        #: one dict per injected fault, for assertions and debugging
        self.events: list[dict] = []

    # ------------------------------------------------------------ public API

    def opener(self, path: Union[str, Path], mode: str):
        """Drop-in for the journal/checkpoint ``opener`` injection point."""
        if mode != "a":
            raise ValueError(f"FaultyStorage only supports append mode, got {mode!r}")
        path = Path(path)
        with self._lock:
            if str(path) not in self._paths:
                initial = path.stat().st_size if path.exists() else 0
                self._paths[str(path)] = _PathState(initial)
        return FaultyFile(self, path, open(path, "ab"))

    def power_cut(self) -> dict[str, int]:
        """Simulate power loss: truncate every file to its durable bytes.

        Returns ``{path: bytes_lost}`` for files that lost anything.
        """
        lost: dict[str, int] = {}
        with self._lock:
            for key, state in self._paths.items():
                path = Path(key)
                if not path.exists():
                    continue
                size = path.stat().st_size
                keep = min(state.cut_len, size)
                if size > keep:
                    with open(path, "r+b") as handle:
                        handle.truncate(keep)
                    lost[key] = size - keep
                state.durable_len = keep
                state.cut_len = keep
                state.tail_intact = True
        return lost

    def stats_dict(self) -> dict:
        with self._lock:
            return dict(self.stats)

    # ------------------------------------------------------------- internals

    def _draw(self, path: Path, append_index: int) -> float:
        return stable_hash(self.seed, str(path), append_index) / float(_MASK)

    def _pick_fault(self, path: Path, state: _PathState) -> Optional[str]:
        if (
            self.plan.enospc_after is not None
            and state.appends >= self.plan.enospc_after
        ):
            return "enospc"
        draw = self._draw(path, state.appends)
        band = 0.0
        for kind in ("torn_write", "short_write", "bit_flip", "enospc", "eio"):
            rate = getattr(self.plan, kind)
            if rate and draw < band + rate:
                return kind
            band += rate
        return None

    def _write(self, path: Path, handle, payload: bytes) -> None:
        with self._lock:
            state = self._paths[str(path)]
            fault = self._pick_fault(path, state)
            append_index = state.appends
            state.appends += 1
            self.stats["writes"] += 1
            if fault is None:
                handle.write(payload)
                if state.tail_intact:
                    state.cut_len += len(payload)
                return
            self._record(fault, path, append_index)
            if fault == "torn_write":
                # Full bytes reach the OS; only a prefix would survive a
                # power cut.  Live state stays consistent — the lie is
                # only visible after power_cut().
                handle.write(payload)
                prefix = self._tear_point(path, append_index, len(payload))
                if state.tail_intact:
                    state.cut_len += prefix
                state.tail_intact = False
                return
            if fault == "short_write":
                prefix = self._tear_point(path, append_index, len(payload))
                handle.write(payload[:prefix])
                handle.flush()
                if state.tail_intact:
                    state.cut_len += prefix
                state.tail_intact = False
                raise OSError(errno.EIO, f"short write ({prefix}/{len(payload)} bytes)")
            if fault == "bit_flip":
                flipped = self._flip_bit(path, append_index, payload)
                handle.write(flipped)
                if state.tail_intact:
                    state.cut_len += len(flipped)
                return
            if fault == "enospc":
                raise OSError(errno.ENOSPC, "no space left on device (injected)")
            raise OSError(errno.EIO, "I/O error (injected)")

    def _mark_durable(self, path: Path) -> None:
        with self._lock:
            state = self._paths.get(str(path))
            if state is None:
                return
            size = path.stat().st_size if path.exists() else 0
            state.durable_len = size
            state.cut_len = size
            state.tail_intact = True

    def _tear_point(self, path: Path, append_index: int, length: int) -> int:
        """Seeded cut inside the payload: at least 1 byte, never all."""
        if length <= 1:
            return 0
        return 1 + stable_hash("tear", self.seed, str(path), append_index) % (
            length - 1
        )

    def _flip_bit(self, path: Path, append_index: int, payload: bytes) -> bytes:
        # Flip inside the line body, never the trailing newline — the
        # damage must corrupt a record, not the framing.
        body_len = max(1, len(payload) - 1)
        position = stable_hash("flip", self.seed, str(path), append_index) % body_len
        bit = stable_hash("bit", self.seed, str(path), append_index) % 8
        flipped = bytearray(payload)
        flipped[position] ^= 1 << bit
        return bytes(flipped)

    def _record(self, kind: str, path: Path, append_index: int) -> None:
        key = {"torn_write": "torn_writes", "short_write": "short_writes",
               "bit_flip": "bit_flips"}.get(kind, kind)
        self.stats[key] += 1
        self.events.append(
            {"kind": kind, "path": str(path), "append_index": append_index}
        )
