import itertools
import json
import random

import numpy as np
import pytest

from adtomo import pipeline
from adtomo.config import load_pipeline_config
from adtomo.forest import ForestParams, HyperGrid, feature_importance, fold_masks, kernels
from adtomo.forest.model import _n_sub

from conftest import load_config
from oracles import (ForestModel, _fold_assignment, accuracy, cross_validate_grid, forest_dict,
                     predict_batch, right_children, train_forest)


def rows(X, y):
    return np.asarray(X, dtype=np.uint8), np.asarray(y, dtype=np.uint8)


def separable_rows(n=64, n_features=5, seed=0):
    """Feature 0 fully determines the label; the rest is coin flips."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(n, n_features))
    return rows(X, X[:, 0])


def train_tree(X, y, params, seed):
    """One greedy tree on the rows as given (no bootstrap), as the one-tree
    ``Nodes`` of the kernel."""
    X, y = rows(X, y)
    patterns, cells = kernels.pattern_cells(X, y)
    return kernels.build_forest(
        patterns, [(cells, np.array([seed], dtype=np.uint64))], params.max_depth,
        _n_sub(params, X.shape[1]), params.min_leaf, bootstrap=False)


def n_nodes(tree):
    return int(tree.count[0])


def depth(tree):
    feature, left, right = tree.feature[0], tree.left[0], right_children(tree)[0]
    depths = {0: 0}
    for node in range(n_nodes(tree)):
        if feature[node] >= 0:
            depths[int(left[node])] = depths[int(right[node])] = depths[node] + 1
    return max(depths.values())


def leaf_label(tree, row):
    feature, left, right = tree.feature[0], tree.left[0], right_children(tree)[0]
    node = 0
    while feature[node] >= 0:
        node = left[node] if row[feature[node]] == 0 else right[node]
    return int(tree.label[0, node])


def predict_one(model, row):
    return bool(predict_batch(model, np.array([row], dtype=np.uint8))[0])


XOR_X, XOR_Y = rows([(0, 0), (0, 1), (1, 0), (1, 1)], [0, 1, 1, 0])

ALL_FEATURES = ForestParams(n_trees=1, max_depth=None, features_per_split="all",
                            min_leaf=1)


class TestEntropy:
    def test_uniform(self):
        assert kernels.entropy01(5, 10) == 1.0

    def test_pure(self):
        assert kernels.entropy01(8, 8) == 0.0
        assert kernels.entropy01(0, 8) == 0.0

    def test_hand_computed(self):
        # -(3/4)log2(3/4) - (1/4)log2(1/4)
        assert kernels.entropy01(3, 4) == pytest.approx(0.8113, abs=1e-4)

    def test_empty_is_zero(self):
        assert kernels.entropy01(0, 0) == 0.0


class TestTrainTree:
    def test_single_perfect_split(self):
        tree = train_tree(*separable_rows(), ALL_FEATURES, seed=1)
        assert depth(tree) == 1
        assert int(tree.feature[0, 0]) == 0

    def test_pure_labels_single_leaf(self):
        tree = train_tree(*rows([(0, 1), (1, 0), (1, 1)], [1, 1, 1]), ALL_FEATURES, seed=1)
        assert n_nodes(tree) == 1
        assert bool(tree.label[0, 0]) is True

    def test_xor_learnable_at_depth_two(self):
        # Exhaustive oracle: best training accuracy of any depth-d stump tree.
        def best_tree_accuracy(depth):
            pts = list(zip(XOR_X.tolist(), XOR_Y.tolist()))

            def best(rows, d):
                pos = sum(l for _, l in rows)
                majority_acc = max(pos, len(rows) - pos)
                if d == 0 or not rows:
                    return majority_acc
                out = majority_acc
                for feat in range(2):
                    lo = [(f, l) for f, l in rows if f[feat] == 0]
                    hi = [(f, l) for f, l in rows if f[feat] == 1]
                    if lo and hi:
                        out = max(out, best(lo, d - 1) + best(hi, d - 1))
                return out

            return best(pts, depth) / len(pts)

        assert best_tree_accuracy(1) < 1.0
        assert best_tree_accuracy(2) == 1.0

        for max_depth in (2, 3, None):
            params = ForestParams(n_trees=1, max_depth=max_depth,
                                  features_per_split="all", min_leaf=1)
            tree = train_tree(XOR_X, XOR_Y, params, seed=5)
            assert depth(tree) == 2
            for row, label in zip(XOR_X, XOR_Y):
                assert leaf_label(tree, row) == label

    def test_max_depth_respected(self):
        params = ForestParams(n_trees=1, max_depth=1, features_per_split="all",
                              min_leaf=1)
        tree = train_tree(XOR_X, XOR_Y, params, seed=5)
        assert depth(tree) <= 1

    def test_min_leaf_respected(self):
        params = ForestParams(n_trees=1, max_depth=None, features_per_split="all",
                              min_leaf=2)
        tree = train_tree(*rows([(0,), (1,), (1,), (1,)], [0, 1, 1, 1]), params, seed=0)
        assert n_nodes(tree) == 1  # the only split would leave a 1-sample side

    def test_leaf_counts_sum_to_sample_size(self):
        tree = train_tree(*separable_rows(n=50, seed=3), ALL_FEATURES, seed=9)
        leaves = tree.feature[0, :n_nodes(tree)] < 0
        assert int(tree.n_samples[0, :n_nodes(tree)][leaves].sum()) == 50

    def test_consistent_duplicate_free_data_fit_exactly(self):
        rng = np.random.default_rng(11)
        X, y = rows(list(itertools.product([0, 1], repeat=5)), rng.integers(0, 2, size=32))
        tree = train_tree(X, y, ALL_FEATURES, seed=2)
        assert all(leaf_label(tree, row) == label for row, label in zip(X, y))


class TestForest:
    def test_single_tree_forest_equals_tree_on_bootstrap(self):
        # With all-feature splits no subset draws occur, so the forest's only
        # tree must equal a no-bootstrap tree grown on its bootstrap sample.
        from adtomo.rng import substream_key
        from oracles import splitmix64

        X, y = separable_rows(n=40, seed=4)
        params = ForestParams(n_trees=1, max_depth=None, features_per_split="all",
                              min_leaf=1)
        model = train_forest(X, y, params, seed=21)

        state = substream_key(21, "tree", 0)
        boot = []
        for _ in range(len(X)):
            state, draw = splitmix64(state)
            boot.append(draw % len(X))
        direct = train_tree(X[boot], y[boot], params, seed=0)  # seed unused: no subset draws
        direct_model = ForestModel(direct, params, 0, X.shape[1])
        assert (json.dumps(forest_dict(model)["trees"][0])
                == json.dumps(forest_dict(direct_model)["trees"][0]))

    def test_separable_holdout_perfect(self):
        train = separable_rows(n=64, seed=5)
        holdout = separable_rows(n=32, seed=6)
        for params in HyperGrid().points()[:4]:
            model = train_forest(*train, params, seed=13)
            assert accuracy(model, *holdout) == 1.0

    def test_retrain_determinism(self):
        X, y = separable_rows(n=48, seed=7)
        params = ForestParams(n_trees=20, max_depth=None, features_per_split="sqrt")
        m1 = train_forest(X, y, params, seed=3)
        m2 = train_forest(X, y, params, seed=3)
        assert json.dumps(forest_dict(m1)) == json.dumps(forest_dict(m2))

    def test_sample_order_does_not_matter(self, tmp_path):
        # The forest uses its rows in the order given; inference fixes that
        # order, so shuffling the lines of records.jsonl leaves the report
        # byte-identical.
        cfg = load_pipeline_config(load_config("mini", seed=4))
        pipeline.stage_simulate(cfg, tmp_path)
        pipeline.stage_flag(cfg, tmp_path)
        pipeline.stage_infer(cfg, tmp_path)
        want = (tmp_path / "report.json").read_bytes()
        records = tmp_path / "records.jsonl"
        lines = records.read_text(encoding="utf-8").splitlines(keepends=True)
        rng = random.Random(8)
        for _ in range(3):
            rng.shuffle(lines)
            records.write_text("".join(lines), encoding="utf-8")
            pipeline.stage_infer(cfg, tmp_path)
            assert (tmp_path / "report.json").read_bytes() == want

    def test_predict_majority_and_tie(self):
        model = train_forest(*separable_rows(n=32, seed=9),
                             ForestParams(n_trees=3, features_per_split="all"), seed=5)
        assert predict_one(model, (1, 0, 0, 0, 0)) is True
        assert predict_one(model, (0, 1, 1, 1, 1)) is False

    def test_vote_counting_on_hand_built_trees(self):
        def leaves(*labels):
            """One single-leaf tree per label."""
            n = len(labels)
            return kernels.Nodes(feature=np.full((n, 1), -1, dtype=np.int32),
                                 left=np.full((n, 1), -1, dtype=np.int32),
                                 n_samples=np.full((n, 1), 4, dtype=np.int32),
                                 gain=np.zeros((n, 1)),
                                 label=np.array(labels, dtype=np.uint8)[:, None],
                                 count=np.ones(n, dtype=np.int32))

        params = ForestParams(n_trees=1, features_per_split="all")
        single = ForestModel(leaves(1), params, seed=0, n_features=2)
        assert predict_one(single, (0, 1)) is True  # the one tree's leaf label

        votes_ttf = ForestModel(leaves(1, 1, 0), params, 0, 2)
        assert predict_one(votes_ttf, (0, 0)) is True  # {T, T, F} -> majority true

        tied = ForestModel(leaves(1, 0), params, 0, 2)
        assert predict_one(tied, (0, 0)) is False  # exact tie resolves to false

    def test_prediction_invariant_under_tree_permutation(self):
        rng = np.random.default_rng(10)
        X, y = rows(rng.integers(0, 2, (60, 4)), rng.integers(0, 2, 60))
        model = train_forest(X, y, ForestParams(n_trees=9), seed=6)
        X = rng.integers(0, 2, (100, 4)).astype(np.uint8)
        base = predict_batch(model, X)
        for _ in range(5):
            perm = rng.permutation(len(model.nodes.count))
            nodes = kernels.Nodes(*(a[perm] for a in model.nodes))
            shuffled = model._replace(nodes=nodes)
            assert np.array_equal(predict_batch(shuffled, X), base)

    def test_feature_length_mismatch(self):
        model = train_forest(*separable_rows(), ForestParams(n_trees=2), seed=1)
        with pytest.raises(ValueError):
            predict_one(model, (1, 0))

    def test_empty_or_flat_rows_rejected(self):
        params = ForestParams(n_trees=2)
        with pytest.raises(ValueError, match="at least one row"):
            train_forest(np.zeros((0, 3)), np.zeros(0), params, seed=1)
        with pytest.raises(ValueError, match="2-D"):
            train_forest(np.zeros(3), np.zeros(3), params, seed=1)
        model = train_forest(*separable_rows(), params, seed=1)
        with pytest.raises(ValueError, match="at least one row"):
            accuracy(model, np.zeros((0, 5)), np.zeros(0))


class TestImportance:
    def test_single_split_concentrates(self):
        params = ForestParams(n_trees=1, max_depth=1, features_per_split="all")
        model = train_forest(*separable_rows(n=40, seed=11), params, seed=7)
        imp = feature_importance(model.nodes, model.n_features)
        assert imp[0] == pytest.approx(1.0, abs=1e-12)
        assert imp[1:].sum() == 0.0

    def test_all_leaf_forest_zero_vector(self):
        model = train_forest(*rows([(0, 1)] * 6, [1] * 6), ForestParams(n_trees=5), seed=8)
        imp = feature_importance(model.nodes, model.n_features)
        assert imp.sum() == 0.0

    def test_matches_hand_weighted_bookkeeping(self):
        params = ForestParams(n_trees=1, max_depth=None, features_per_split="all",
                              min_leaf=1)
        tree = train_tree(XOR_X, XOR_Y, params, seed=0)
        # Root splits feature 0 with gain 0; both depth-1 nodes split feature 1
        # with gain 1 over half the samples each: raw = [0, 2 * (2/4) * 1].
        expected = np.array([0.0, 1.0])
        raw = np.zeros(2)
        feature, n_samples, gain = tree.feature[0], tree.n_samples[0], tree.gain[0]
        for node in range(n_nodes(tree)):
            if feature[node] >= 0:
                raw[feature[node]] += (n_samples[node] / n_samples[0]) * gain[node]
        assert raw == pytest.approx(expected, abs=1e-9)
        # feature_importance applies the same bookkeeping to a forest's trees.
        assert feature_importance(tree, 2) == pytest.approx(expected / expected.sum(), abs=1e-12)

    def test_importances_sum_to_one(self):
        rng = np.random.default_rng(12)
        X, y = rows(rng.integers(0, 2, (80, 6)), rng.integers(0, 2, 80))
        model = train_forest(X, y, ForestParams(n_trees=30), seed=9)
        imp = feature_importance(model.nodes, model.n_features)
        assert imp.sum() == pytest.approx(1.0, abs=1e-9)

    def test_discriminative_feature_tops(self):
        for seed in range(20):
            model = train_forest(*separable_rows(n=60, seed=100 + seed),
                                 ForestParams(n_trees=25), seed=seed)
            imp = feature_importance(model.nodes, model.n_features)
            assert imp[0] > max(imp[1:])


class TestCrossValidation:
    def test_single_point_grid(self):
        grid = HyperGrid(n_trees=(10,), max_depth=(3,), features_per_split=("all",),
                         min_leaf=(1,))
        X, y = separable_rows(n=32, seed=13)
        personas = [f"p{i % 4}" for i in range(32)]
        params, acc = cross_validate_grid(X, y, personas, grid, folds=4, seed=1)
        assert params == ForestParams(10, 3, "all", 1)

    def test_separable_reaches_perfect_cv(self):
        rng = np.random.default_rng(14)
        X = rng.integers(0, 2, size=(64, 4))
        personas = [f"p{i // 8}" for i in range(64)]
        grid = HyperGrid(n_trees=(10, 20), max_depth=(3,), features_per_split=("all",),
                         min_leaf=(1,))
        params, acc = cross_validate_grid(*rows(X, X[:, 0]), personas, grid, folds=4, seed=2)
        assert acc == 1.0

    def test_fold_balance_per_persona(self):
        personas = [f"persona-{p}" for p in range(6) for _ in range(8)]
        random.Random(15).shuffle(personas)
        assignment = _fold_assignment(personas, folds=4, seed=3)
        for p in range(6):
            idxs = [i for i, q in enumerate(personas) if q == f"persona-{p}"]
            counts = np.bincount(assignment[idxs], minlength=4)
            assert counts.tolist() == [2, 2, 2, 2]

    def test_fold_masks_equal_the_row_list_assignment(self):
        # Persona blocks in sorted order draw the permutations the row-list
        # form draws, in the same order.
        rng = random.Random(16)
        for _ in range(40):
            n_personas, folds = rng.randint(1, 9), rng.randint(2, 5)
            runs, seed = folds * rng.randint(1, 4), rng.randrange(1 << 32)
            personas = [f"p{p}" for p in range(n_personas) for _ in range(runs)]
            want = _fold_assignment(personas, folds, seed) == np.arange(folds)[:, None]
            assert np.array_equal(fold_masks(n_personas, runs, folds, seed), want)

    def test_indivisible_counts_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            cross_validate_grid(np.zeros((7, 1)), np.zeros(7), ["p1"] * 7,
                                HyperGrid(n_trees=(5,)), folds=4, seed=1)

    def test_grid_points_canonical_order(self):
        grid = HyperGrid(n_trees=(100, 50), max_depth=(None, 3),
                         features_per_split=("sqrt", "all"), min_leaf=(2, 1))
        pts = grid.points()
        assert pts[0] == ForestParams(50, 3, "all", 1)
        assert pts[-1] == ForestParams(100, None, "sqrt", 2)
        keys = [(p.n_trees, float("inf") if p.max_depth is None else p.max_depth,
                 p.features_per_split, p.min_leaf) for p in pts]
        assert keys == sorted(keys)
