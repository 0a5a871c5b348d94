"""Character-n-gram hashing embedder.

Offline stand-in for the paper's bge-large-en-v1.5 retrieval model.  Two
properties matter for the pipeline and both hold by construction:

* surface robustness — case folding plus overlapping character n-grams make
  ``'USA'`` / ``'usa'`` / ``'U.S.A'`` and typo'd variants land close in
  cosine space, which is exactly why the paper retrieves values by
  embedding instead of exact match;
* determinism — the hash is a fixed FNV-1a, so retrieval results (and the
  benchmark tables built on them) are reproducible bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.hashing import fnv1a

__all__ = ["HashingVectorizer", "cosine_similarity"]


def _normalize_text(text: str) -> str:
    # Case-fold and collapse punctuation to single spaces so that storage
    # format differences ('First Date' vs 'first_date') share n-grams.
    out = []
    prev_space = True
    for ch in text.lower():
        if ch.isalnum():
            out.append(ch)
            prev_space = False
        elif not prev_space:
            out.append(" ")
            prev_space = True
    return "".join(out).strip()


class HashingVectorizer:
    """Embed strings as L2-normalized hashed bags of character n-grams.

    ``ngram_range`` n-grams are extracted from the padded, normalized text;
    word-level unigrams are added so multi-word phrases also match on whole
    words.  Dimensions default to 512, ample for the vocabulary sizes in
    play and small enough to keep indexes cheap.
    """

    def __init__(self, dimensions: int = 512, ngram_range: tuple[int, int] = (2, 4)):
        if dimensions <= 0:
            raise ValueError("dimensions must be positive")
        lo, hi = ngram_range
        if lo <= 0 or hi < lo:
            raise ValueError("invalid ngram_range")
        self.dimensions = dimensions
        self.ngram_range = ngram_range

    def embed(self, text: str) -> np.ndarray:
        """Embed one string into a unit-length float32 vector."""
        vector = np.zeros(self.dimensions, dtype=np.float32)
        normalized = _normalize_text(text)
        if not normalized:
            return vector
        padded = f" {normalized} "
        lo, hi = self.ngram_range
        for n in range(lo, hi + 1):
            if len(padded) < n:
                continue
            for i in range(len(padded) - n + 1):
                gram = padded[i : i + n]
                h = fnv1a(gram.encode("utf-8"))
                index = h % self.dimensions
                sign = 1.0 if (h >> 32) & 1 else -1.0
                vector[index] += sign
        for word in normalized.split():
            h = fnv1a(("w:" + word).encode("utf-8"))
            index = h % self.dimensions
            sign = 1.0 if (h >> 32) & 1 else -1.0
            vector[index] += 2.0 * sign  # whole words weigh more than grams
        norm = float(np.linalg.norm(vector))
        if norm > 0:
            vector /= norm
        return vector

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        """Embed many strings; returns an (n, dimensions) float32 matrix."""
        if not texts:
            return np.zeros((0, self.dimensions), dtype=np.float32)
        return np.stack([self.embed(text) for text in texts])


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors (0.0 when either is all-zero)."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))
