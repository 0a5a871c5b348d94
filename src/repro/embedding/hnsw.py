"""Hierarchical Navigable Small World index (Malkov & Yashunin, 2018).

The paper (§4.6) notes that HNSW makes retrieval latency negligible
relative to LLM calls; we implement it from scratch so the benchmark's
retrieval-latency claims run against a real ANN structure rather than a
brute-force scan.

Distances are cosine (vectors are normalized on insert, so similarity is a
dot product).  Level assignment uses a seeded RNG for reproducibility.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional

import numpy as np

from repro.embedding.index import SearchHit

__all__ = ["HNSWIndex"]


class HNSWIndex:
    """An HNSW approximate-nearest-neighbour index over cosine similarity.

    Parameters mirror the original paper: ``m`` neighbours per node per
    layer (``2m`` on layer 0), ``ef_construction`` candidates during
    insertion, ``ef_search`` during queries.
    """

    def __init__(
        self,
        dimensions: int,
        m: int = 12,
        ef_construction: int = 80,
        ef_search: int = 48,
        seed: int = 0,
    ):
        if dimensions <= 0:
            raise ValueError("dimensions must be positive")
        if m < 2:
            raise ValueError("m must be at least 2")
        self.dimensions = dimensions
        self.m = m
        self.max_m0 = 2 * m
        self.ef_construction = max(ef_construction, m)
        self.ef_search = ef_search
        self._level_mult = 1.0 / math.log(m)
        self._rng = np.random.default_rng(seed)

        self._keys: list[str] = []
        self._payloads: list[object] = []
        self._vectors: list[np.ndarray] = []
        # _links[node][level] -> list of neighbour node ids
        self._links: list[list[list[int]]] = []
        self._entry_point: Optional[int] = None
        self._max_level = -1

    def __len__(self) -> int:
        return len(self._keys)

    # ----------------------------------------------------------- helpers

    def _similarity(self, a: int, query: np.ndarray) -> float:
        return float(np.dot(self._vectors[a], query))

    def _random_level(self) -> int:
        uniform = float(self._rng.random())
        # Guard against log(0).
        uniform = max(uniform, 1e-12)
        return int(-math.log(uniform) * self._level_mult)

    def _search_layer(
        self, query: np.ndarray, entry: int, ef: int, level: int
    ) -> list[tuple[float, int]]:
        """Best-first search on one layer; returns (similarity, node) pairs,
        unsorted, at most ``ef`` of them."""
        visited = {entry}
        entry_sim = self._similarity(entry, query)
        # candidates: max-heap by similarity (store negative for heapq)
        candidates = [(-entry_sim, entry)]
        # results: min-heap by similarity so the worst is on top
        results = [(entry_sim, entry)]
        while candidates:
            neg_sim, node = heapq.heappop(candidates)
            if -neg_sim < results[0][0] and len(results) >= ef:
                break
            for neighbor in self._links[node][level]:
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                sim = self._similarity(neighbor, query)
                if len(results) < ef or sim > results[0][0]:
                    heapq.heappush(candidates, (-sim, neighbor))
                    heapq.heappush(results, (sim, neighbor))
                    if len(results) > ef:
                        heapq.heappop(results)
        return results

    def _select_neighbors(
        self, candidates: list[tuple[float, int]], count: int
    ) -> list[int]:
        """Simple top-``count`` by similarity (the paper's base heuristic)."""
        ordered = sorted(candidates, key=lambda pair: -pair[0])
        return [node for _sim, node in ordered[:count]]

    # --------------------------------------------------------------- API

    def add(self, key: str, vector: np.ndarray, payload: object = None) -> None:
        """Insert one vector under ``key``."""
        if vector.shape != (self.dimensions,):
            raise ValueError(
                f"expected vector of shape ({self.dimensions},), got {vector.shape}"
            )
        norm = float(np.linalg.norm(vector))
        unit = (vector / norm if norm > 0 else vector).astype(np.float32)

        node = len(self._keys)
        level = self._random_level()
        self._keys.append(key)
        self._payloads.append(payload)
        self._vectors.append(unit)
        self._links.append([[] for _ in range(level + 1)])

        if self._entry_point is None:
            self._entry_point = node
            self._max_level = level
            return

        entry = self._entry_point
        # Greedy descent through layers above the new node's level.
        for search_level in range(self._max_level, level, -1):
            improved = True
            while improved:
                improved = False
                best_sim = self._similarity(entry, unit)
                for neighbor in self._links[entry][search_level]:
                    sim = self._similarity(neighbor, unit)
                    if sim > best_sim:
                        best_sim = sim
                        entry = neighbor
                        improved = True

        # Insert with full candidate search on each level at or below.
        for search_level in range(min(level, self._max_level), -1, -1):
            candidates = self._search_layer(unit, entry, self.ef_construction, search_level)
            max_links = self.max_m0 if search_level == 0 else self.m
            neighbors = self._select_neighbors(candidates, max_links)
            self._links[node][search_level] = list(neighbors)
            for neighbor in neighbors:
                links = self._links[neighbor][search_level]
                links.append(node)
                if len(links) > max_links:
                    # Re-prune neighbour's links by similarity to it.
                    scored = [
                        (float(np.dot(self._vectors[other], self._vectors[neighbor])), other)
                        for other in links
                    ]
                    self._links[neighbor][search_level] = self._select_neighbors(
                        scored, max_links
                    )
            if candidates:
                entry = max(candidates, key=lambda pair: pair[0])[1]

        if level > self._max_level:
            self._max_level = level
            self._entry_point = node

    def keys(self) -> list[str]:
        """Every stored key, in insertion order."""
        return list(self._keys)

    def search(self, query: np.ndarray, k: int = 10) -> list[SearchHit]:
        """Return approximately the top-``k`` hits by cosine similarity."""
        if self._entry_point is None or k <= 0:
            return []
        norm = float(np.linalg.norm(query))
        unit = (query / norm if norm > 0 else query).astype(np.float32)

        entry = self._entry_point
        for level in range(self._max_level, 0, -1):
            improved = True
            while improved:
                improved = False
                best_sim = self._similarity(entry, unit)
                for neighbor in self._links[entry][level]:
                    sim = self._similarity(neighbor, unit)
                    if sim > best_sim:
                        best_sim = sim
                        entry = neighbor
                        improved = True

        results = self._search_layer(unit, entry, max(self.ef_search, k), 0)
        ordered = sorted(results, key=lambda pair: -pair[0])[:k]
        return [
            SearchHit(key=self._keys[node], payload=self._payloads[node], score=sim)
            for sim, node in ordered
        ]
