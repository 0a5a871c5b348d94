"""Vector index interface and the exact (flat) implementation.

The pipeline's value/column retrieval is expressed against the
:class:`VectorIndex` protocol so the exact index (used in tests, where
recall must be perfect) and the HNSW index (used in benchmarks, matching
the paper's §4.6 latency discussion) are interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

import numpy as np

__all__ = ["SearchHit", "VectorIndex", "FlatIndex"]


@dataclass(frozen=True)
class SearchHit:
    """One retrieval result: the stored payload and its cosine score."""

    key: str
    payload: object
    score: float


@runtime_checkable
class VectorIndex(Protocol):
    """Minimal vector-index protocol: add unit vectors, search by cosine."""

    def add(self, key: str, vector: np.ndarray, payload: object = None) -> None:
        ...

    def search(self, query: np.ndarray, k: int = 10) -> list[SearchHit]:
        ...

    def keys(self) -> list[str]:
        ...

    def __len__(self) -> int:
        ...


class FlatIndex:
    """Exact nearest-neighbour search by brute-force cosine scan.

    Vectors are L2-normalized on insert so search is a single mat-vec.
    """

    def __init__(self, dimensions: int):
        if dimensions <= 0:
            raise ValueError("dimensions must be positive")
        self.dimensions = dimensions
        self._keys: list[str] = []
        self._payloads: list[object] = []
        self._rows: list[np.ndarray] = []
        self._matrix: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._keys)

    def add(self, key: str, vector: np.ndarray, payload: object = None) -> None:
        """Add one vector.  Zero vectors are stored but never match."""
        if vector.shape != (self.dimensions,):
            raise ValueError(
                f"expected vector of shape ({self.dimensions},), got {vector.shape}"
            )
        norm = float(np.linalg.norm(vector))
        unit = vector / norm if norm > 0 else vector
        self._keys.append(key)
        self._payloads.append(payload)
        self._rows.append(unit.astype(np.float32))
        self._matrix = None  # invalidate cache

    def keys(self) -> list[str]:
        """Every stored key, in insertion order."""
        return list(self._keys)

    def search(self, query: np.ndarray, k: int = 10) -> list[SearchHit]:
        """Return the top-``k`` hits by cosine similarity, best first."""
        if not self._keys or k <= 0:
            return []
        if self._matrix is None:
            self._matrix = np.stack(self._rows)
        norm = float(np.linalg.norm(query))
        unit = query / norm if norm > 0 else query
        scores = self._matrix @ unit.astype(np.float32)
        k = min(k, len(scores))
        top = np.argpartition(-scores, k - 1)[:k]
        top = top[np.argsort(-scores[top], kind="stable")]
        return [
            SearchHit(key=self._keys[i], payload=self._payloads[i], score=float(scores[i]))
            for i in top
        ]
