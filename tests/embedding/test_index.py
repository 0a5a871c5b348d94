"""Flat index tests."""

import numpy as np
import pytest

from repro.embedding.index import FlatIndex
from repro.embedding.vectorizer import HashingVectorizer


@pytest.fixture
def index():
    return FlatIndex(dimensions=8)


def unit(*values):
    v = np.array(values, dtype=np.float32)
    return v / np.linalg.norm(v)


class TestFlatIndex:
    def test_empty_search(self, index):
        assert index.search(unit(1, 0, 0, 0, 0, 0, 0, 0)) == []

    def test_k_zero(self, index):
        index.add("a", unit(1, 0, 0, 0, 0, 0, 0, 0))
        assert index.search(unit(1, 0, 0, 0, 0, 0, 0, 0), k=0) == []

    def test_exact_match_first(self, index):
        index.add("a", unit(1, 0, 0, 0, 0, 0, 0, 0))
        index.add("b", unit(0, 1, 0, 0, 0, 0, 0, 0))
        hits = index.search(unit(1, 0.1, 0, 0, 0, 0, 0, 0), k=2)
        assert hits[0].key == "a"
        assert hits[0].score > hits[1].score

    def test_scores_descending(self, index):
        rng = np.random.default_rng(0)
        for i in range(50):
            index.add(str(i), rng.normal(size=8).astype(np.float32))
        hits = index.search(rng.normal(size=8).astype(np.float32), k=10)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_k_larger_than_size(self, index):
        index.add("a", unit(1, 0, 0, 0, 0, 0, 0, 0))
        assert len(index.search(unit(1, 0, 0, 0, 0, 0, 0, 0), k=100)) == 1

    def test_payload_preserved(self, index):
        index.add("a", unit(1, 0, 0, 0, 0, 0, 0, 0), payload={"x": 1})
        (hit,) = index.search(unit(1, 0, 0, 0, 0, 0, 0, 0), k=1)
        assert hit.payload == {"x": 1}

    def test_wrong_shape_rejected(self, index):
        with pytest.raises(ValueError):
            index.add("a", np.zeros(3, dtype=np.float32))

    def test_zero_vector_never_matches(self, index):
        index.add("zero", np.zeros(8, dtype=np.float32))
        index.add("one", unit(1, 0, 0, 0, 0, 0, 0, 0))
        hits = index.search(unit(1, 0, 0, 0, 0, 0, 0, 0), k=2)
        assert hits[0].key == "one"
        assert hits[1].score == pytest.approx(0.0)

    def test_len(self, index):
        assert len(index) == 0
        index.add("a", unit(1, 0, 0, 0, 0, 0, 0, 0))
        assert len(index) == 1

    def test_add_after_search_works(self, index):
        index.add("a", unit(1, 0, 0, 0, 0, 0, 0, 0))
        index.search(unit(1, 0, 0, 0, 0, 0, 0, 0))
        index.add("b", unit(0, 1, 0, 0, 0, 0, 0, 0))
        hits = index.search(unit(0, 1, 0, 0, 0, 0, 0, 0), k=1)
        assert hits[0].key == "b"

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            FlatIndex(0)

    def test_end_to_end_with_vectorizer(self):
        vec = HashingVectorizer()
        index = FlatIndex(vec.dimensions)
        values = ["RUNNING OK", "RUNNING DEBT", "FINISHED OK", "FINISHED DEBT"]
        for value in values:
            index.add(value, vec.embed(value), payload=value)
        hits = index.search(vec.embed("running debt"), k=1)
        assert hits[0].key == "RUNNING DEBT"


class TestKeys:
    def test_keys_are_every_insert_in_order(self, index):
        index.add("b", unit(1, 0, 0, 0, 0, 0, 0, 0))
        index.add("a", unit(0, 1, 0, 0, 0, 0, 0, 0))
        index.add("b", unit(0, 0, 1, 0, 0, 0, 0, 0))
        keys = index.keys()
        assert keys == ["b", "a", "b"]
        keys.append("c")  # a copy: the index is read, never changed
        assert index.keys() == ["b", "a", "b"]
        assert len(index) == 3
