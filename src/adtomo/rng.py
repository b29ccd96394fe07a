"""Deterministic random-stream derivation.

Every random draw in the package flows from one integer seed.  Substreams are
derived by hashing the seed together with a list of labels (stage name, run
index, persona id, ...), so any unit of work owns an independent stream and
results never depend on execution order, scheduling, or the environment.

The forest kernels use the splitmix64 counter generator instead of numpy's
``Generator``: one draw is a handful of 64-bit integer operations, trivial to
reproduce bit for bit anywhere.  Because draw i from a state is a fixed mix
of ``state + i * GAMMA``, a tree's bootstrap draws are computed all at once
as one wrapped-uint64 numpy expression (``splitmix64_draws``); the few
per-node feature-subset draws that follow use the scalar ``splitmix64``.
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


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state once; returns (new_state, draw).

    Pure-Python ints masked to 64 bits; ``tests/test_kernels.py`` pins the
    first draws to the reference values of the standard generator.
    """
    state = (state + GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    z = z ^ (z >> 31)
    return state, z


def splitmix64_draws(state: int, n: int) -> tuple[int, np.ndarray]:
    """The next ``n`` splitmix64 draws from ``state`` as one uint64 array;
    returns (state after the n draws, draws).

    Equal to calling ``splitmix64`` n times: draw i (from 1) mixes
    ``state + i * GAMMA`` mod 2^64, so the whole stream is one numpy
    expression in uint64, whose array arithmetic wraps without warning.
    """
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GAMMA) + np.uint64(state)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (state + n * GAMMA) & MASK64, z
