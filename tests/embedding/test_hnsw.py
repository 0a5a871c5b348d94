"""HNSW index tests, including recall-vs-exact property checks."""

import numpy as np
import pytest

from repro.embedding.hnsw import HNSWIndex
from repro.embedding.index import FlatIndex
from repro.embedding.vectorizer import HashingVectorizer


def random_vectors(n, d, seed=0):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, d)).astype(np.float32)
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


class TestBasics:
    def test_empty_search(self):
        index = HNSWIndex(8)
        assert index.search(np.ones(8, dtype=np.float32)) == []

    def test_single_item(self):
        index = HNSWIndex(8)
        v = np.ones(8, dtype=np.float32)
        index.add("only", v)
        hits = index.search(v, k=3)
        assert [h.key for h in hits] == ["only"]
        assert hits[0].score == pytest.approx(1.0, abs=1e-5)

    def test_wrong_shape_rejected(self):
        index = HNSWIndex(8)
        with pytest.raises(ValueError):
            index.add("a", np.zeros(4, dtype=np.float32))

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            HNSWIndex(8, m=1)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            HNSWIndex(0)

    def test_len(self):
        index = HNSWIndex(8)
        for i, v in enumerate(random_vectors(5, 8)):
            index.add(str(i), v)
        assert len(index) == 5

    def test_payloads(self):
        index = HNSWIndex(8)
        v = np.ones(8, dtype=np.float32)
        index.add("a", v, payload=123)
        assert index.search(v, k=1)[0].payload == 123

    def test_deterministic_given_seed(self):
        vectors = random_vectors(100, 16, seed=2)
        query = random_vectors(1, 16, seed=3)[0]
        results = []
        for _ in range(2):
            index = HNSWIndex(16, seed=7)
            for i, v in enumerate(vectors):
                index.add(str(i), v)
            results.append([h.key for h in index.search(query, k=5)])
        assert results[0] == results[1]

    def test_scores_descending(self):
        index = HNSWIndex(16, seed=1)
        for i, v in enumerate(random_vectors(200, 16)):
            index.add(str(i), v)
        hits = index.search(random_vectors(1, 16, seed=9)[0], k=10)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)


class TestRecall:
    @pytest.mark.parametrize("n", [100, 500])
    def test_recall_at_10_vs_flat(self, n):
        d = 32
        vectors = random_vectors(n, d, seed=4)
        flat = FlatIndex(d)
        hnsw = HNSWIndex(d, m=12, ef_construction=100, ef_search=64, seed=5)
        for i, v in enumerate(vectors):
            flat.add(str(i), v)
            hnsw.add(str(i), v)
        queries = random_vectors(20, d, seed=6)
        total = hits = 0
        for q in queries:
            exact = {h.key for h in flat.search(q, k=10)}
            approx = {h.key for h in hnsw.search(q, k=10)}
            hits += len(exact & approx)
            total += len(exact)
        assert hits / total >= 0.9

    def test_exact_duplicate_found(self):
        d = 16
        vectors = random_vectors(300, d, seed=8)
        index = HNSWIndex(d, seed=8)
        for i, v in enumerate(vectors):
            index.add(str(i), v)
        hits = index.search(vectors[137], k=1)
        assert hits[0].key == "137"

    def test_text_retrieval_end_to_end(self):
        vec = HashingVectorizer()
        index = HNSWIndex(vec.dimensions, seed=0)
        words = [f"category number {i}" for i in range(200)]
        for w in words:
            index.add(w, vec.embed(w))
        hits = index.search(vec.embed("Category Number 57"), k=3)
        assert hits[0].key == "category number 57"


class TestKeys:
    def test_keys_are_every_insert_in_order(self):
        index = HNSWIndex(8, seed=1)
        order = [str(i) for i in (3, 1, 4, 0, 2)]
        for key, v in zip(order, random_vectors(5, 8)):
            index.add(key, v)
        assert index.keys() == order
        assert len(index) == 5
