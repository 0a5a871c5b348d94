"""The epoch-versioned catalog: one monotone ``schema_epoch`` per database.

Every database starts at epoch 0 (the frozen world every earlier layer
assumed).  A DDL/DML mutation bumps the epoch; everything that derives
from the catalog — cache keys, journal commit records, reindex
checkpoints — carries the epoch it was built against, so staleness is a
simple integer comparison rather than a content diff.
"""

from __future__ import annotations

import threading

__all__ = ["EpochRegistry"]


class EpochRegistry:
    """Thread-safe monotone ``schema_epoch`` counter per ``db_id``."""

    def __init__(self):
        self._lock = threading.Lock()
        self._epochs: dict[str, int] = {}

    def epoch(self, db_id: str) -> int:
        """Current ``schema_epoch`` of ``db_id`` (0 when never mutated)."""
        with self._lock:
            return self._epochs.get(db_id, 0)

    def bump(self, db_id: str) -> int:
        """Advance ``db_id``'s epoch by one; returns the new epoch."""
        with self._lock:
            epoch = self._epochs.get(db_id, 0) + 1
            self._epochs[db_id] = epoch
        return epoch
