"""Deterministic random-stream derivation.

Every random draw in the package flows from one integer seed.  Substreams are
derived by hashing the seed together with a list of labels (stage name, run
index, persona id, ...), so any unit of work owns an independent stream and
results never depend on execution order, scheduling, or the environment.

The forest kernels use the splitmix64 counter generator instead of numpy's
``Generator``: one draw is a handful of 64-bit integer operations, trivial to
reproduce bit for bit anywhere.
"""

from __future__ import annotations

import hashlib

import numpy as np

MASK64 = (1 << 64) - 1

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
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    z = z ^ (z >> 31)
    return state, z
