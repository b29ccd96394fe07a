"""Bag-of-words machinery over ad-creative text.

A corpus maps every token seen anywhere to a dense column index
(lexicographic, so corpus construction is deterministic).  A count vector is
a plain ``dict[int, int]`` from column index to frequency, holding only
counts >= 1; the flagging tables and the similarity analysis read nothing
else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping


class OutOfCorpusError(KeyError):
    pass


@dataclass(frozen=True)
class Corpus:
    word_index: Mapping[str, int]

    @property
    def size(self) -> int:
        return len(self.word_index)

    def tokens(self) -> list[str]:
        """Tokens in column order."""
        out = [""] * len(self.word_index)
        for token, idx in self.word_index.items():
            out[idx] = token
        return out


def build_corpus(token_lists: Iterable[Iterable[str]]) -> Corpus:
    """Corpus over the union of all tokens, indexed lexicographically."""
    vocab = set()
    for tokens in token_lists:
        vocab.update(tokens)
    return Corpus({token: i for i, token in enumerate(sorted(vocab))})


def add_tokens(counts: dict[int, int], tokens: Iterable[str], corpus: Corpus) -> None:
    """Add one count per token to its column in ``counts``."""
    index = corpus.word_index
    for token in tokens:
        try:
            idx = index[token]
        except KeyError:
            raise OutOfCorpusError(token) from None
        counts[idx] = counts.get(idx, 0) + 1


def vectorize_tokens(tokens: Iterable[str], corpus: Corpus) -> dict[int, int]:
    """Token frequencies over the corpus: column index -> count."""
    counts: dict[int, int] = {}
    add_tokens(counts, tokens, corpus)
    return counts


def cosine_similarity(x: Mapping[int, int], y: Mapping[int, int]) -> float:
    """dot(x, y) / (|x| |y|); 0.0 by convention if either vector is empty."""
    if not x or not y:
        return 0.0
    small, large = (x, y) if len(x) <= len(y) else (y, x)
    dot = 0.0
    for idx, c in small.items():
        other = large.get(idx)
        if other is not None:
            dot += c * other
    nx = math.sqrt(sum(c * c for c in x.values()))
    ny = math.sqrt(sum(c * c for c in y.values()))
    return dot / (nx * ny)
