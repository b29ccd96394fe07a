import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adtomo.textvec import cosine_similarity

from oracles import OutOfCorpusError, add_tokens, build_corpus, vectorize_tokens


class TestCorpus:
    def test_empty(self):
        assert build_corpus([]) == {}

    def test_union_lexicographic(self):
        corpus = build_corpus([["a", "b"], ["b", "c"]])
        assert corpus == {"a": 0, "b": 1, "c": 2}
        assert list(corpus) == ["a", "b", "c"]

    def test_union_of_shared_tokens(self):
        tokens = [f"tok{i:04d}" for i in range(1000)]
        corpus = build_corpus([tokens, reversed(tokens)])
        assert len(corpus) == len(set(tokens))


class TestVectorize:
    def test_direct_count(self):
        corpus = build_corpus([["a", "b", "c"]])
        assert vectorize_tokens(["a", "a", "b"], corpus) == {0: 2, 1: 1}

    def test_empty_document(self):
        corpus = build_corpus([["a"]])
        assert vectorize_tokens([], corpus) == {}

    def test_out_of_corpus(self):
        corpus = build_corpus([["a"]])
        with pytest.raises(OutOfCorpusError):
            vectorize_tokens(["zzz"], corpus)

    def test_add_tokens_accumulates(self):
        corpus = build_corpus([["a", "b"]])
        counts = {1: 3}
        add_tokens(counts, ["a", "b", "a"], corpus)
        assert counts == {1: 4, 0: 2}

    def test_matches_naive_frequency_table(self):
        rng = np.random.default_rng(7)
        vocab = [f"w{i}" for i in range(200)]
        tokens = [vocab[i] for i in rng.integers(0, 200, size=10_000)]
        corpus = build_corpus([vocab])
        v = vectorize_tokens(tokens, corpus)
        naive = {}
        for t in tokens:
            naive[t] = naive.get(t, 0) + 1
        assert v == {corpus[t]: c for t, c in naive.items()}


class TestCosine:
    def test_self_similarity(self):
        v = {0: 3, 2: 1}
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity({0: 1}, {1: 1}) == 0.0

    def test_hand_computed_half(self):
        # dot = 1, norms sqrt(2) each -> 0.5
        assert cosine_similarity({0: 1, 1: 1}, {0: 1, 2: 1}) == pytest.approx(0.5, abs=1e-12)

    def test_zero_vector_convention(self):
        assert cosine_similarity({}, {0: 5}) == 0.0

    @given(st.dictionaries(st.integers(0, 19), st.integers(1, 50), max_size=12),
           st.dictionaries(st.integers(0, 19), st.integers(1, 50), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_bounds(self, x, y):
        s1 = cosine_similarity(x, y)
        s2 = cosine_similarity(y, x)
        assert s1 == s2
        assert 0.0 <= s1 <= 1.0 + 1e-12

    @given(st.dictionaries(st.integers(0, 19), st.integers(1, 50), min_size=1, max_size=12),
           st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, x, k):
        kx = {i: k * c for i, c in x.items()}
        assert cosine_similarity(x, kx) == pytest.approx(1.0, abs=1e-12)
