import warnings

import numpy as np
import pytest

from adtomo.rng import GAMMA, MASK64, splitmix64_draws, substream, substream_key
from oracles import splitmix64


def test_substream_key_stable():
    # Pinned: the derivation scheme is part of the reproducibility contract.
    assert substream_key(7, "sim", 0, "p-000") == substream_key(7, "sim", 0, "p-000")
    assert substream_key(7, "sim", 0, "p-000") != substream_key(7, "sim", 1, "p-000")
    assert substream_key(7, "sim", 0, "p-000") != substream_key(8, "sim", 0, "p-000")


def test_label_separator_prevents_collisions():
    assert substream_key(1, "ab", "c") != substream_key(1, "a", "bc")
    assert substream_key(12, "x") != substream_key(1, "2x")


def test_substreams_independent_of_sibling_order():
    a1 = substream(3, "sim", 0, "a").random(4)
    _ = substream(3, "sim", 0, "b").random(4)
    a2 = substream(3, "sim", 0, "a").random(4)
    assert np.array_equal(a1, a2)


def test_generator_reproducible():
    g1 = substream(42, "stage")
    g2 = substream(42, "stage")
    assert np.array_equal(g1.normal(size=10), g2.normal(size=10))


@pytest.mark.parametrize("seed", [0, 1, 1 << 63, MASK64])
def test_splitmix64_draws_equal_scalar_stream(seed):
    # The vectorised draws are the scalar generator iterated n times; the
    # top seeds wrap past 2^64 on the first step, which numpy must do in
    # uint64 without a warning or a promotion to float.
    scalar_state, expected = seed, []
    for _ in range(1000):
        scalar_state, draw = splitmix64(scalar_state)
        expected.append(draw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (0, 1, 2, 37, 1000):
            state, draws = splitmix64_draws(seed, n)
            assert draws.dtype == np.uint64
            assert draws.tolist() == expected[:n]
            assert state == (seed + n * GAMMA) % (1 << 64)
    assert state == scalar_state


# The simulator batches its numpy draws (ecosim/sim.py, "Draw order"); each
# batched call must consume a Generator's stream exactly as the scalar calls
# it replaces, and leave it in the same state, so a numpy release that breaks
# one of these identities fails here by name.

@pytest.mark.parametrize("n", [0, 1, 2, 22, 1000])
def test_random_batch_equals_scalar_calls(n):
    batched, scalar = substream(7, "id", n), substream(7, "id", n)
    assert batched.random(n).tolist() == [scalar.random() for _ in range(n)]
    assert batched.random() == scalar.random()


@pytest.mark.parametrize("sd", [0.0, 0.5, 1.0, 3.7, 1e-300, 1e300])
def test_normal_equals_zero_plus_scaled_standard_normal(sd):
    batched, scalar = substream(7, "normal", repr(sd)), substream(7, "normal", repr(sd))
    z = batched.standard_normal(200).tolist()
    expected = [scalar.normal(0.0, sd) for _ in range(200)]
    # repr tells -0.0 from 0.0: with sd = 0 a negative z gives sd * z = -0.0,
    # which the leading 0.0 + turns into the 0.0 that normal(0.0, 0.0) returns.
    assert [repr(0.0 + sd * x) for x in z] == [repr(v) for v in expected]
    if sd == 0.0:
        assert any(x < 0 for x in z) and all(repr(v) == "0.0" for v in expected)
    assert batched.random() == scalar.random()


@pytest.mark.parametrize("n, k", [(1, 3), (2, 8), (10, 1), (3000, 8), (1 << 31, 5),
                                  (1 << 40, 4)])
def test_choice_with_replacement_equals_integers(n, k):
    by_choice, by_integers = substream(7, "choice", n, k), substream(7, "choice", n, k)
    for _ in range(50):
        picks = by_choice.choice(n, size=k, replace=True)
        draws = by_integers.integers(0, n, size=k)
        assert draws.dtype == picks.dtype
        assert draws.tolist() == picks.tolist()
    assert by_choice.random() == by_integers.random()


# Every artifact depends on the values these Generator methods return, and
# NEP 19 does not promise them across numpy releases.  Each method draws from
# a fresh substream keyed the way the package keys its own, so a numpy that
# changes one method fails here under that method's name alone.
_GENERATOR_PINS = {
    "random": (lambda g: g.random(4).tolist(),
               [0.8973554717403804, 0.7538390682037686, 0.4707710539401343,
                0.5672004114792972]),
    "standard_normal": (lambda g: g.standard_normal(4).tolist(),
                        [-0.1674745572291174, -0.08888582491827594, 0.9702437425084713,
                         -1.0319603430173296]),
    "integers": (lambda g: [g.integers(0, 12, size=8).tolist(),
                            g.integers(0, 3000, size=4).tolist()],
                 [[0, 10, 4, 9, 6, 5, 6, 6], [657, 2946, 2243, 277]]),
    "permutation": (lambda g: g.permutation(10).tolist(), [6, 1, 5, 4, 7, 8, 9, 2, 0, 3]),
}


@pytest.mark.parametrize("method", list(_GENERATOR_PINS))
def test_generator_method_values_pinned(method):
    draw, expected = _GENERATOR_PINS[method]
    rng = substream(7, "segment") if method == "permutation" else substream(7, "sim", 0, "p-000")
    got = draw(rng)
    assert got == expected, (
        f"numpy Generator.{method} returns values other than the pinned ones "
        f"(numpy {np.__version__}): got {got}, pinned {expected}")
