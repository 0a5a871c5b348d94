"""The one stable hash family behind every seeded draw.

Python's ``hash`` is salted per process, so everything that must replay
across processes and machines (the simulated model's draws, database and
storage chaos, mutation schedules, router jitter, n-gram embedding
buckets) hashes with 64-bit FNV-1a instead.  :func:`fnv1a` is the raw
hash of some bytes; :func:`stable_hash` joins its parts with ``|`` and
adds a murmur3-style finalizer, because FNV-1a avalanches poorly on
trailing-byte changes (counters and indexes land at the end of a key).

Both run on hot paths (the embedder hashes every n-gram, the simulator
draws tens of times per request), so each keeps its byte loop inline.
This module is stdlib-only and imports nothing from the package.
"""

from __future__ import annotations

__all__ = ["MASK", "fnv1a", "stable_hash"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
#: the 64-bit mask; ``stable_hash(...) / float(MASK)`` is a uniform draw
MASK = (1 << 64) - 1


def fnv1a(data: bytes) -> int:
    """64-bit FNV-1a of ``data``."""
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & MASK
    return value


def stable_hash(*parts: object) -> int:
    """Process-independent hash of ``parts``: FNV-1a over their ``|``-joined
    string forms, then a murmur3-style finalizer."""
    value = _FNV_OFFSET
    for byte in "|".join(map(str, parts)).encode():
        value ^= byte
        value = (value * _FNV_PRIME) & MASK
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & MASK
    value ^= value >> 33
    value = (value * 0xC4CEB9FE1A85EC53) & MASK
    value ^= value >> 33
    return value
