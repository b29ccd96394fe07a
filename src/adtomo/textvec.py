"""Bag-of-words machinery over ad-creative text.

A corpus is a plain ``dict`` from every token seen anywhere to a dense
column index (lexicographic, so corpus construction is deterministic).  A
count vector is a plain ``dict[int, int]`` from column index to frequency,
holding only counts >= 1; the flagging tables and the similarity analysis
read nothing else.
"""

from __future__ import annotations

import math
from typing import Mapping


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
