"""Golden digests for the forest kernels: the splitmix64 stream, the entropy
formula, and SHA-256 digests of trained forests and their predictions, so any
change to tree growth or voting shows up as a digest mismatch.  Randomized
cases also check the kernels node for node against a row-wise reference."""

import hashlib
import json

import numpy as np
import pytest

from adtomo.forest import ForestParams, Tree, kernels, predict_batch, train_forest
from adtomo.rng import splitmix64

import oracles


def test_splitmix_python_reference_known_values():
    # First draws from seed 0; reference values of the standard splitmix64.
    state, v1 = splitmix64(0)
    _, v2 = splitmix64(state)
    assert v1 == 0xE220A8397B1DCDAF
    assert v2 == 0x6E789E6AA1B965F4


def _canonical(records):
    """(X, y) of (features, label, persona) records sorted by (persona,
    features, label), the row order the digests were captured in."""
    ordered = sorted(records, key=lambda r: (r[2], r[0], r[1]))
    X = np.array([r[0] for r in ordered], dtype=np.uint8)
    y = np.array([r[1] for r in ordered], dtype=np.uint8)
    return X, y


def _random_samples(seed, n=200, f=7, positive_rate=0.3):
    rng = np.random.default_rng(seed)
    return _canonical([(tuple(int(v) for v in rng.integers(0, 2, f)),
                        bool(rng.random() < positive_rate), f"p{i % 25:02d}")
                       for i in range(n)])


@pytest.mark.parametrize("features_per_split,max_depth,digest", [
    ("sqrt", 2, "7decc688d308df0cbec39f72f57b365a3fd2180aac031d65f8d8352d691853ce"),
    ("sqrt", None, "ed720e24c075122fb016b9adc1c8377fd9627894f699336f0b9863661a4eaa5d"),
    ("all", 2, "83029a671cd41fb86df32616c05bcb8c2a9228f86f539275cedf4d73cb12d91d"),
    ("all", None, "0670d70bb815e9f3d8c6b4c90c61d52ccc18e21654f4a7a455e8b1e99d64d33d"),
])
def test_forest_golden_digest(features_per_split, max_depth, digest):
    params = ForestParams(n_trees=15, max_depth=max_depth,
                          features_per_split=features_per_split, min_leaf=1)
    model = train_forest(*_random_samples(31), params, seed=99)
    assert hashlib.sha256(json.dumps(model.to_dict()).encode()).hexdigest() == digest


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj.to_dict()).encode()).hexdigest()


def _same_pattern_samples(n=60):
    rng = np.random.default_rng(36)
    return _canonical([((0, 1, 1, 0, 1), bool(rng.random() < 0.5), f"p{i % 6}")
                       for i in range(n)])


def test_tree_golden_digest():
    # One tree grown on the rows as given: the bootstrap=False path.
    X, y = _random_samples(34)
    *fields, node_count = kernels.build_forest(
        X, y, np.array([3], dtype=np.uint64), None, 2, 1, bootstrap=False)
    tree = Tree(*(a[0, :int(node_count[0])] for a in fields))
    assert _digest(tree) == "53e3cb7abe1792c15d76bf7d2065cfdbdc153eb1e55f7f8fff7ebbca9fccf854"


@pytest.mark.parametrize("case,digest", [
    ("min_leaf_2", "a4568ce7177c82f0279e047b67d70a3d2d7ee1cd487bbfae66b20de5eda0b19a"),
    # k=10 with sqrt draws n_sub=3 features per node, strictly between 1 and k.
    ("k10_sqrt", "dc75aef749f2327a279a5460b0e61d4735209a562e6ad0c72f31f7ecee7eb30f"),
    ("single_row", "5f6f3a3bab408dad088e71d4b7085031a6b8773e0de93a8cbe2059ad32a3fe36"),
    ("all_one_label", "469b08c260acdee889a8a38fb35574ac61b930b4754d1b575e85b9183386bc02"),
    ("same_pattern", "1fa223049089a01ce5f88b19192fa69303eb28df6d25ac2396bb18d3c4247e93"),
])
def test_forest_edge_case_golden_digest(case, digest):
    samples, params, seed = {
        "min_leaf_2": (_random_samples(35), ForestParams(n_trees=10, min_leaf=2), 8),
        "k10_sqrt": (_random_samples(36, n=300, f=10), ForestParams(n_trees=10), 4),
        "single_row": (_canonical([((1, 0, 1), True, "p00")]), ForestParams(n_trees=4), 2),
        "all_one_label": (_random_samples(37, positive_rate=1.0), ForestParams(n_trees=6), 6),
        "same_pattern": (_same_pattern_samples(), ForestParams(n_trees=9), 7),
    }[case]
    assert _digest(train_forest(*samples, params, seed)) == digest


@pytest.mark.parametrize("case,digest", [
    ("max_depth_1", "358eb5f6a886cc0b9d84439ac5d026d01e3d38810e9058acb78fcc0999cb5fc5"),
    ("single_leaves", "9df8bff0a706340db1c6eda55d6b44cec40065c45253fc541a5a094f17b57d84"),
])
def test_edge_case_predictions_golden_digest(case, digest):
    if case == "max_depth_1":
        model = train_forest(*_random_samples(38, positive_rate=0.5),
                             ForestParams(n_trees=11, max_depth=1), seed=9)
        X = np.random.default_rng(39).integers(0, 2, (300, 7)).astype(np.uint8)
    else:
        model = train_forest(*_same_pattern_samples(), ForestParams(n_trees=9), seed=10)
        assert all(tree.n_nodes == 1 for tree in model.trees)
        X = np.random.default_rng(40).integers(0, 2, (50, 5)).astype(np.uint8)
    assert hashlib.sha256(predict_batch(model, X).tobytes()).hexdigest() == digest


def test_predictions_golden_digest():
    model = train_forest(*_random_samples(32), ForestParams(n_trees=12), seed=5)
    X = np.random.default_rng(33).integers(0, 2, (300, 7)).astype(np.uint8)
    preds = predict_batch(model, X)
    assert hashlib.sha256(preds.tobytes()).hexdigest() == (
        "779ee38f1ea7acee2e43778f406176696498db58576d54c8c72ba98cf020c68a")


def test_entropy01_shared_formula():
    assert kernels.entropy01(0, 5) == 0.0
    assert kernels.entropy01(5, 5) == 0.0
    assert kernels.entropy01(5, 10) == 1.0


def test_kernels_match_row_wise_reference():
    rng = np.random.default_rng(2024)
    for case in range(60):
        n = int(rng.choice([1, 2, 5, 17, 60, 150]))
        k = int(rng.integers(1, 11))
        max_depth = [None, 1, 2, 4][int(rng.integers(0, 4))]
        n_sub = int(rng.integers(1, k + 1))
        min_leaf = int(rng.integers(1, 4))
        bootstrap = bool(rng.integers(0, 2))
        # Draw rows from a small pool so that patterns repeat, as they do in
        # blocking data.
        pool = rng.integers(0, 2, (int(rng.integers(1, 30)), k)).astype(np.uint8)
        X = pool[rng.integers(0, len(pool), n)]
        y = (rng.random(n) < rng.choice([0.0, 0.2, 0.5, 1.0])).astype(np.uint8)
        seeds = rng.integers(0, 1 << 64, int(rng.integers(1, 6)), dtype=np.uint64)
        params = (case, n, k, max_depth, n_sub, min_leaf, bootstrap)

        *fields, node_count = kernels.build_forest(
            X, y, seeds, max_depth, n_sub, min_leaf, bootstrap)
        got = [list(zip(*(a[t, :c].tolist() for a in fields)))
               for t, c in enumerate(node_count.tolist())]
        want = oracles.forest_by_rows(X.tolist(), y.tolist(), seeds.tolist(),
                                      max_depth, n_sub, min_leaf, bootstrap)
        assert got == want, params

        feat_a, left_a, right_a, _, _, label_a = fields
        Xt = rng.integers(0, 2, (int(rng.integers(0, 40)), k)).astype(np.uint8)
        votes = kernels.predict_votes(feat_a, left_a, right_a, label_a, Xt)
        assert votes.dtype == np.uint8
        assert votes.tolist() == oracles.votes_by_rows(want, Xt.tolist()), params
