"""Serving workload generation: Zipf-skewed question repetition.

Real question traffic is heavy-tailed — a few questions account for most
requests ("Cheaper, Better, Faster, Stronger" builds its cost analysis on
exactly this redundancy).  ``zipf_workload`` draws a request stream over a
pool of distinct examples with rank-frequency ``p(r) ∝ 1/r^skew``, which
is what makes the exact-match result tier earn its keep in the serving
bench.  ``spread_pool`` picks that pool across databases, so a sharded
ring actually partitions the stream.
"""

from __future__ import annotations

from itertools import chain, islice, zip_longest
from typing import Sequence

import numpy as np

from repro.datasets.types import Example

__all__ = ["spread_pool", "zipf_weights", "zipf_workload"]


def spread_pool(examples: Sequence[Example], n: int) -> list[Example]:
    """Up to ``n`` examples dealt one per database, round-robin.

    Databases take turns in first-appearance order, each giving its next
    example in split order; a database that runs out drops out of the
    rotation.  So ``n`` questions span ``min(n, #dbs)`` databases even
    though dev splits are grouped by database.
    """
    by_db: dict[str, list[Example]] = {}
    for example in examples:
        by_db.setdefault(example.db_id, []).append(example)
    dealt = chain.from_iterable(zip_longest(*by_db.values()))
    return list(islice((example for example in dealt if example is not None), n))


def zipf_weights(n: int, skew: float = 1.2) -> np.ndarray:
    """Normalized rank-frequency weights ``p(r) ∝ 1/r^skew`` for n ranks.

    ``skew=0`` degenerates to uniform traffic; 1.2 is a typical web-query
    exponent.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** -skew
    return weights / weights.sum()

def zipf_workload(
    examples: Sequence[Example],
    requests: int,
    skew: float = 1.2,
    seed: int = 0,
) -> list[Example]:
    """A request stream of ``requests`` draws over ``examples``.

    Which example gets which popularity rank is itself shuffled by the
    seed, so different seeds stress different questions; the draw sequence
    is fully deterministic per (examples, requests, skew, seed).
    """
    if not examples:
        raise ValueError("need at least one example")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(examples))
    weights = zipf_weights(len(examples), skew)
    picks = rng.choice(len(examples), size=requests, p=weights)
    return [examples[order[pick]] for pick in picks]
