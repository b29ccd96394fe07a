"""Golden digests for the forest kernels: the splitmix64 stream, the entropy
formula, and SHA-256 digests of trained forests and their predictions, so any
change to tree growth or voting shows up as a digest mismatch."""

import hashlib
import json

import numpy as np
import pytest

from adtomo.forest import ForestParams, Sample, kernels, predict_batch, train_forest
from adtomo.rng import splitmix64


def test_splitmix_python_reference_known_values():
    # First draws from seed 0; reference values of the standard splitmix64.
    state, v1 = splitmix64(0)
    _, v2 = splitmix64(state)
    assert v1 == 0xE220A8397B1DCDAF
    assert v2 == 0x6E789E6AA1B965F4


def _random_samples(seed, n=200, f=7, positive_rate=0.3):
    rng = np.random.default_rng(seed)
    return [Sample(tuple(int(v) for v in rng.integers(0, 2, f)),
                   bool(rng.random() < positive_rate), f"p{i % 25:02d}")
            for i in range(n)]


@pytest.mark.parametrize("features_per_split,max_depth,digest", [
    ("sqrt", 2, "7decc688d308df0cbec39f72f57b365a3fd2180aac031d65f8d8352d691853ce"),
    ("sqrt", None, "ed720e24c075122fb016b9adc1c8377fd9627894f699336f0b9863661a4eaa5d"),
    ("all", 2, "83029a671cd41fb86df32616c05bcb8c2a9228f86f539275cedf4d73cb12d91d"),
    ("all", None, "0670d70bb815e9f3d8c6b4c90c61d52ccc18e21654f4a7a455e8b1e99d64d33d"),
])
def test_forest_golden_digest(features_per_split, max_depth, digest):
    params = ForestParams(n_trees=15, max_depth=max_depth,
                          features_per_split=features_per_split, min_leaf=1)
    model = train_forest(_random_samples(31), params, seed=99)
    assert hashlib.sha256(json.dumps(model.to_dict()).encode()).hexdigest() == digest


def test_predictions_golden_digest():
    model = train_forest(_random_samples(32), ForestParams(n_trees=12), seed=5)
    X = np.random.default_rng(33).integers(0, 2, (300, 7)).astype(np.uint8)
    preds = predict_batch(model, X)
    assert hashlib.sha256(preds.tobytes()).hexdigest() == (
        "779ee38f1ea7acee2e43778f406176696498db58576d54c8c72ba98cf020c68a")


def test_entropy01_shared_formula():
    assert kernels.entropy01(0, 5) == 0.0
    assert kernels.entropy01(5, 5) == 0.0
    assert kernels.entropy01(5, 10) == 1.0
