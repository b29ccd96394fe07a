"""Deterministic random-stream derivation.

Every random draw in the package flows from one integer seed.  Substreams are
derived by hashing the seed together with a list of labels (stage name, run
index, persona id, ...), so any unit of work owns an independent stream and
results never depend on execution order, scheduling, or the environment.

The forest kernels use the splitmix64 counter generator instead of numpy's
``Generator``: one draw is a handful of 64-bit integer operations, trivial to
reproduce bit for bit anywhere.  Because draw i from a state is a fixed mix
of ``state + i * GAMMA``, draws are computed as one wrapped-uint64 numpy
expression over many streams at once (``splitmix64_draws``): the bootstrap
draws of a chunk of trees, and the per-node feature-subset draws of every
tree that draws in one round of lockstep growth.
"""

from __future__ import annotations

import hashlib

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

_SEP = b"\x1f"


def substream_key(*parts) -> int:
    """64-bit stream key for the given labels (first 8 bytes of SHA-256)."""
    payload = _SEP.join(str(p).encode("utf-8") for p in parts)
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def substream(*parts) -> np.random.Generator:
    """Independent numpy generator for the given labels."""
    return np.random.default_rng(substream_key(*parts))


def splitmix64_draws(state, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The next ``n`` splitmix64 draws from ``state``; returns (the state
    after the n draws, the draws), both uint64.

    ``state`` is one state or an array of states, one stream each; the draws
    add a trailing axis of length n.  Draw i (from 1) mixes
    ``state + i * GAMMA`` mod 2^64, so every stream is one numpy expression
    in uint64, whose array arithmetic wraps without warning.
    ``tests/test_kernels.py`` pins the first draws from seed 0 to the reference
    values of the standard generator.
    """
    states = np.asarray(state, dtype=np.uint64)
    z = states[..., None] + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GAMMA)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return states + np.uint64(n * GAMMA & MASK64), z
