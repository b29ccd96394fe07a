"""Random forest over binary blocking features, built from scratch.

The learner is deliberately plain: bagged greedy entropy trees with a
per-node random feature subset, majority voting, and information-gain
importances (sum over split nodes of node-fraction x gain, averaged across
trees, normalized to sum 1).  Its input is arrays: X holds one uint8 row of
0/1 blocking features per record, y its 0/1 change label.  Rows are used in
the order given, and the bootstrap draws index into that order, so a forest
is deterministic given (X, y), the hyperparameters, and one integer seed.
The caller fixes the row order: ``tomography.run_inference`` sorts each
advertiser's records by (persona, flag) before building X and y.

Growth runs in ``kernels.build_forest``.  ``train_forest`` hands it one
forest; ``cv_score`` hands it the fold forests of one grid point as one
batch over the shared rows, each fold's training rows a mask, and the
kernel grows every tree of the batch in lockstep.  Each fold forest is the
one ``train_forest`` would grow on that fold's rows and seed.
``cross_validate_grid`` scores every grid point and keeps the best by
``best_point``.

A note on zero-gain splits: an impure node is still split when the best
achievable gain is zero, as long as some feature actually partitions it.
Without this, parity-style concepts (XOR) would be unlearnable at any depth;
a node becomes a leaf only on purity, depth/size limits, or when no feature
separates its samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config import ForestParams, HyperGrid
from ..rng import substream, substream_key
from . import kernels


@dataclass(frozen=True)
class ForestModel:
    nodes: kernels.Nodes
    params: ForestParams
    seed: int
    n_features: int

    def to_dict(self) -> dict:
        n = self.nodes
        return {
            "params": {
                "n_trees": self.params.n_trees,
                "max_depth": self.params.max_depth,
                "features_per_split": self.params.features_per_split,
                "min_leaf": self.params.min_leaf,
            },
            "seed": self.seed,
            "n_features": self.n_features,
            "trees": [_tree_dict(*(a.tolist() for a in tree))
                      for tree in zip(n.feature, n.left, n.right, n.n_samples, n.gain, n.label)],
        }


def _tree_dict(feature, left, right, n_samples, gain, label) -> dict:
    """One tree's node lists as nested dicts from the root down."""
    def node(i: int) -> dict:
        if feature[i] < 0:
            return {"kind": "leaf", "n": n_samples[i], "label": bool(label[i])}
        return {"kind": "split", "feature": feature[i], "n": n_samples[i], "gain": gain[i],
                "left": node(left[i]), "right": node(right[i])}

    return {"n_samples": n_samples[0], "root": node(0)}


def _rows(X, y) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) as uint8 arrays; X must be 2-D with at least one row."""
    X = np.asarray(X, dtype=np.uint8)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D feature array, got shape {X.shape}")
    if len(X) == 0:
        raise ValueError("need at least one row")
    return X, np.asarray(y, dtype=np.uint8)


def _n_sub(params: ForestParams, n_features: int) -> int:
    if params.features_per_split == "all":
        return n_features
    return max(1, int(math.sqrt(n_features)))


def _tree_seeds(seeds: Sequence[int], n_trees: int) -> np.ndarray:
    """The tree seeds of one forest per seed, forest after forest."""
    return np.array([substream_key(seed, "tree", t) for seed in seeds for t in range(n_trees)],
                    dtype=np.uint64)


def train_forest(X, y, params: ForestParams, seed: int) -> ForestModel:
    """Bagged forest: each tree trains on a same-size bootstrap resample of
    the rows, drawn from its own seed-derived substream."""
    X, y = _rows(X, y)
    nodes = kernels.build_forest(
        X, y, _tree_seeds([seed], params.n_trees), params.max_depth,
        _n_sub(params, X.shape[1]), params.min_leaf, bootstrap=True)
    return ForestModel(nodes, params, seed, X.shape[1])


def predict_batch(model: ForestModel, X) -> np.ndarray:
    """Majority vote across trees for each row of X; ties resolve to 0."""
    X = np.asarray(X, dtype=np.uint8)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected (rows, {model.n_features}) features, got {X.shape}")
    return kernels.predict_votes(model.nodes, X)


def accuracy(model: ForestModel, X, y) -> float:
    X, y = _rows(X, y)
    return float((predict_batch(model, X) == y).mean())


def feature_importance(model: ForestModel) -> np.ndarray:
    """Per-feature importance: sum over split nodes of (node fraction x gain),
    averaged over trees, normalized to sum 1.  All-zero if no tree splits."""
    n = model.nodes
    # The mask takes tree after tree, each in node-id order: the order a
    # per-tree sum would add in.
    split = n.feature >= 0
    totals = np.zeros(model.n_features, dtype=float)
    np.add.at(totals, n.feature[split], (n.n_samples / n.n_samples[:, :1])[split] * n.gain[split])
    totals /= len(n.count)
    mass = totals.sum()
    if mass > 0:
        totals /= mass
    return totals


def _fold_assignment(personas: Sequence[str], folds: int, seed: int) -> np.ndarray:
    """Fold id per row such that every fold holds the same number of rows of
    each persona; requires per-persona counts divisible by folds."""
    by_persona: dict[str, list[int]] = {}
    for i, persona in enumerate(personas):
        by_persona.setdefault(persona, []).append(i)
    assignment = np.empty(len(personas), dtype=np.int64)
    rng = substream(seed, "folds")
    for persona in sorted(by_persona):
        idxs = by_persona[persona]
        if len(idxs) % folds != 0:
            raise ValueError(
                f"persona {persona} has {len(idxs)} records, not divisible by {folds} folds")
        shuffled = rng.permutation(len(idxs))
        for pos, which in enumerate(shuffled):
            assignment[idxs[which]] = pos % folds
    return assignment


def fold_masks(personas: Sequence[str], folds: int, seed: int) -> np.ndarray:
    """The persona-balanced k-fold split of rows whose personas are
    ``personas``: a (folds, rows) bool array, True where a row is in that
    fold's held-out set."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    return _fold_assignment(personas, folds, seed) == np.arange(folds)[:, None]


def cv_score(X: np.ndarray, y: np.ndarray, test: np.ndarray, params: ForestParams,
             gi: int, seed: int) -> float:
    """Mean held-out-fold accuracy of grid point ``gi`` (``params``) over the
    folds of ``test`` (from ``fold_masks``); X and y as ``_rows`` returns
    them.

    The fold forests grow as one batch; fold k's forest equals
    train_forest(X[~test[k]], y[~test[k]], params, substream_key(seed, "cv",
    gi, k)).  Each grid point draws from its own substreams, so the points
    may be scored in any order or process."""
    folds = len(test)
    seeds = [substream_key(seed, "cv", gi, k) for k in range(folds)]
    nodes = kernels.build_forest(
        X, y, _tree_seeds(seeds, params.n_trees), params.max_depth,
        _n_sub(params, X.shape[1]), params.min_leaf, bootstrap=True, train=~test)
    accs = []
    for k in range(folds):
        trees = slice(k * params.n_trees, (k + 1) * params.n_trees)
        fold = kernels.Nodes(*(a[trees] for a in nodes))
        votes = kernels.predict_votes(fold, X[test[k]])
        accs.append(float((votes == y[test[k]]).mean()))
    return float(np.mean(accs))


def best_point(points: Sequence[ForestParams], scores) -> tuple[ForestParams, float]:
    """The point with the highest score, scores in point order; exact ties
    go to the earlier point."""
    best_params = None
    best_acc = -1.0
    for params, acc in zip(points, scores):
        if acc > best_acc:
            best_acc = acc
            best_params = params
    return best_params, best_acc


def cross_validate_grid(X, y, personas: Sequence[str], grid: HyperGrid, folds: int,
                        seed: int) -> tuple[ForestParams, float]:
    """Persona-balanced k-fold grid search over the rows of (X, y), whose
    personas are ``personas``.

    Returns the grid point with the highest mean held-out-fold accuracy;
    exact ties go to the earlier point in canonical parameter order.
    """
    test = fold_masks(personas, folds, seed)
    X, y = _rows(X, y)
    points = grid.points()
    return best_point(points, [cv_score(X, y, test, params, gi, seed)
                               for gi, params in enumerate(points)])
