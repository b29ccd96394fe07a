"""Golden digests for the forest kernels: the splitmix64 stream, the entropy
formula and its memo, SHA-256 digests of trained forests and their
predictions, and a grid-search result, so any change to tree growth or voting
shows up as a golden mismatch.  Randomized cases, single forests and
lockstep batches of forests over their own rows, also check the kernels node
for node against a row-wise reference that grows one tree at a time."""

import hashlib
import itertools
import json

import numpy as np
import pytest

from adtomo.forest import ForestParams, HyperGrid, kernels
from adtomo.rng import splitmix64_draws

import oracles
from oracles import (ForestModel, cross_validate_grid, forest_dict, predict_batch, splitmix64,
                     train_forest)


def test_splitmix_python_reference_known_values():
    # First draws from seed 0; reference values of the standard splitmix64.
    state, v1 = splitmix64(0)
    _, v2 = splitmix64(state)
    assert v1 == 0xE220A8397B1DCDAF
    assert v2 == 0x6E789E6AA1B965F4


def test_splitmix_vectorised_known_values():
    _, draws = splitmix64_draws(0, 2)
    assert draws.tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
    # One stream per state: seed 0 and the state one draw after it.
    state, _ = splitmix64_draws(0, 1)
    _, rows = splitmix64_draws(np.array([0, state], dtype=np.uint64), 1)
    assert rows.tolist() == [[0xE220A8397B1DCDAF], [0x6E789E6AA1B965F4]]


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
    assert hashlib.sha256(json.dumps(forest_dict(model)).encode()).hexdigest() == digest


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(forest_dict(obj)).encode()).hexdigest()


def _same_pattern_samples(n=60):
    rng = np.random.default_rng(36)
    return _canonical([((0, 1, 1, 0, 1), bool(rng.random() < 0.5), f"p{i % 6}")
                       for i in range(n)])


def test_tree_golden_digest():
    # One tree grown on the rows as given: the bootstrap=False path.
    X, y = _random_samples(34)
    patterns, cells = kernels.pattern_cells(X, y)
    nodes = kernels.build_forest(patterns, [(cells, np.array([3], dtype=np.uint64))], None, 2, 1,
                                 bootstrap=False)
    tree = forest_dict(ForestModel(nodes, ForestParams(n_trees=1), 3, X.shape[1]))["trees"][0]
    assert hashlib.sha256(json.dumps(tree).encode()).hexdigest() == (
        "53e3cb7abe1792c15d76bf7d2065cfdbdc153eb1e55f7f8fff7ebbca9fccf854")


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
        assert model.nodes.count.tolist() == [1] * 9
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


def _node_rows(nodes):
    """Each tree of ``nodes`` as a list of (feature, left, right, n_samples,
    gain, label) node tuples, the form of ``oracles.forest_by_rows``."""
    fields = (nodes.feature, nodes.left, oracles.right_children(nodes), nodes.n_samples,
              nodes.gain, nodes.label)
    return [list(zip(*(a[t, :c].tolist() for a in fields)))
            for t, c in enumerate(nodes.count.tolist())]


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

        patterns, cells = kernels.pattern_cells(X, y)
        nodes = kernels.build_forest(patterns, [(cells, seeds)], max_depth, n_sub, min_leaf,
                                     bootstrap)
        got = _node_rows(nodes)
        want = oracles.forest_by_rows(X.tolist(), y.tolist(), seeds.tolist(),
                                      max_depth, n_sub, min_leaf, bootstrap)
        assert got == want, params

        Xt = rng.integers(0, 2, (int(rng.integers(0, 40)), k)).astype(np.uint8)
        votes = oracles.predict_votes(nodes, Xt)
        assert votes.dtype == np.uint8
        assert votes.tolist() == oracles.votes_by_rows(want, Xt.tolist()), params


def test_entropy_memo_equals_scalar_formula_bit_for_bit():
    n = np.repeat(np.arange(401), np.arange(1, 402))
    pos = np.arange(len(n)) - (n * (n + 1)) // 2
    rng = np.random.default_rng(6144)
    n = np.concatenate([n, rng.integers(6000, 6300, 5000)])
    pos = np.concatenate([pos, rng.integers(0, n[-5000:] + 1)])
    want = np.array([kernels.entropy01(p, m) for p, m in zip(pos.tolist(), n.tolist())])
    # Twice: values computed on a miss, then values read back from the table.
    for _ in range(2):
        assert kernels._entropy(pos, n).tobytes() == want.tobytes()
    # A 16-slot table forces keys of one call to share slots.
    tiny = kernels._EntropyMemo(bits=4)
    for _ in range(2):
        assert tiny(pos[::7].reshape(-1, 1), n[::7].reshape(-1, 1)).tobytes() == want[::7].tobytes()


def test_lockstep_batches_match_row_wise_reference():
    """Batches of forests over shared rows, each forest with its own rows
    and its own number of trees and the batch with one parameter set,
    against one reference forest at a time.  The 48 cases take every
    (max_depth, n_sub, min_leaf, bootstrap) combination twice."""
    rng = np.random.default_rng(707)
    combos = itertools.product([3, 5, None], ["sqrt", "all"], [1, 2], [False, True])
    for case, (max_depth, subset, min_leaf, bootstrap) in enumerate(2 * list(combos)):
        # sqrt draws a strict subset from k >= 2 on.
        k = int(rng.integers(1 if subset == "all" else 2, 11)) if case else 10
        n = int(rng.choice([40, 90, 150]))
        pool = rng.integers(0, 2, (int(rng.integers(1, 60)), k)).astype(np.uint8)
        X = pool[rng.integers(0, len(pool), n)]
        y = (rng.random(n) < rng.choice([0.1, 0.3, 0.5])).astype(np.uint8)
        n_forests = int(rng.integers(1, 6))
        n_trees = rng.integers(1, 4, n_forests)
        train = rng.random((n_forests, n)) < rng.uniform(0.3, 1.0, (n_forests, 1))
        train[:, 0] = True
        if n_forests > 1:
            train[1] = False
            train[1, int(rng.integers(0, n))] = True  # a one-row forest
        if n_forests > 2:
            train[2] = (X == X[0]).all(axis=1)  # a one-pattern forest
        n_sub = max(1, int(np.sqrt(k))) if subset == "sqrt" else k
        seeds = [rng.integers(0, 1 << 64, t, dtype=np.uint64) for t in n_trees]
        params = (case, k, max_depth, n_sub, min_leaf, bootstrap, n_trees.tolist())

        patterns, cells = kernels.pattern_cells(X, y)
        got = _node_rows(kernels.build_forest(
            patterns, [(cells[mask], s) for mask, s in zip(train, seeds)], max_depth, n_sub,
            min_leaf, bootstrap))
        ends = np.cumsum(n_trees)
        for f in range(n_forests):
            want = oracles.forest_by_rows(
                X[train[f]].tolist(), y[train[f]].tolist(), seeds[f].tolist(),
                max_depth, n_sub, min_leaf, bootstrap)
            assert got[ends[f] - n_trees[f]:ends[f]] == want, (params, f)


def _k10_personas():
    """160 rows of 40 personas, 4 rows each, over 10 blocking features; the
    flag rate depends on features 2 and 7."""
    rng = np.random.default_rng(41)
    patterns = rng.integers(0, 2, (40, 10)).astype(np.uint8)
    records = []
    for i, pattern in enumerate(patterns):
        rate = 0.15 + 0.6 * (pattern[2] ^ pattern[7])
        for _ in range(4):
            records.append((f"p{i:02d}", bool(rng.random() < rate), pattern))
    records.sort(key=lambda r: (r[0], r[1]))
    X = np.array([r[2] for r in records], dtype=np.uint8)
    y = np.array([r[1] for r in records], dtype=np.uint8)
    return X, y, [r[0] for r in records]


def test_grid_search_golden():
    # The 36-point default grid; captured from the one-forest-at-a-time search.
    params, acc = cross_validate_grid(*_k10_personas(), HyperGrid(), folds=4, seed=13)
    assert params == ForestParams(n_trees=200, max_depth=3, features_per_split="all",
                                  min_leaf=2)
    assert repr(acc) == "0.825"


def test_unbounded_all_features_golden_digest():
    # 266 distinct patterns over k=10 and no subset draws: each tree grows
    # level by level and is renumbered into depth-first order afterwards.
    rng = np.random.default_rng(42)
    X = rng.integers(0, 2, (300, 10)).astype(np.uint8)
    y = (rng.random(300) < 0.2 + 0.5 * X[:, 4]).astype(np.uint8)
    model = train_forest(X, y, ForestParams(n_trees=20, max_depth=None,
                                            features_per_split="all"), seed=11)
    assert int(model.nodes.count.max()) == 181
    assert _digest(model) == "04f5e9d81ab8e6d8aa50160c7cb3745cc38950e8796f5c303addad20cdeeefed"
