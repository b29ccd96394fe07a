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

Growth runs in ``kernels.build_forest``, over a pattern table and each
row's (pattern, label) cell (``kernels.pattern_cells``).  ``train_forest``
computes those from (X, y) and hands the kernel one forest.  ``cv_scores``
takes them from its caller, computed once for every advertiser, and hands
the kernel the fold forests of several grid points as one batch, each
fold's training rows a mask; the kernel grows every tree of the batch in
lockstep, and one walk of every tree over the pattern table scores them
all.  Each fold forest is the one ``train_forest`` would grow on that
fold's rows and seed.  ``best_point`` keeps the best grid point.

A note on zero-gain splits: an impure node is still split when the best
achievable gain is zero, as long as some feature actually partitions it.
Without this, parity-style concepts (XOR) would be unlearnable at any depth;
a node becomes a leaf only on purity, depth/size limits, or when no feature
separates its samples.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from ..config import ForestParams
from ..rng import substream, substream_key
from . import kernels


class ForestModel(NamedTuple):
    nodes: kernels.Nodes
    params: ForestParams
    seed: int
    n_features: int


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
        *kernels.pattern_cells(X, y), _tree_seeds([seed], params.n_trees), params.max_depth,
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


def cv_scores(patterns: np.ndarray, cells: np.ndarray, test: np.ndarray,
              units: Sequence[tuple[int, ForestParams, int, int]]) -> list[float]:
    """Mean held-out-fold accuracy of each unit (r, params, gi, seed): grid
    point ``gi`` (``params``) on the rows ``cells[r]`` over the pattern table
    ``patterns`` (``kernels.pattern_cells``), split into the folds
    ``test[r]`` (``fold_masks``).

    Fold k's forest of a unit equals train_forest(X[~test[r, k]],
    y[~test[r, k]], params, substream_key(seed, "cv", gi, k)) for the rows
    (X, y) of ``cells[r]``.  The units must share ``max_depth``,
    ``features_per_split`` and ``min_leaf``: every fold forest grows in one
    ``kernels.build_forest`` batch, a forest of n trees as n / g forests of
    g trees on one row mask (g the gcd of the units' ``n_trees``), and one
    walk of every tree over the pattern table scores them all.  Each unit
    draws from its own substreams, so units may be scored in any batch or
    process."""
    folds, n_rows = test.shape[1:]
    first = units[0][1]
    sizes = np.repeat([params.n_trees for _, params, _, _ in units], folds)
    g = math.gcd(*sizes.tolist())
    # Rows of the units' own advertisers only, block i being cells[rows[i]].
    rows = sorted({r for r, *_ in units})
    block = {r: i for i, r in enumerate(rows)}
    train = np.zeros((len(sizes), len(rows), n_rows), dtype=bool)
    for u, (r, _, _, _) in enumerate(units):
        train[u * folds:(u + 1) * folds, block[r]] = ~test[r]
    seeds = np.concatenate([
        _tree_seeds([substream_key(seed, "cv", gi, k) for k in range(folds)], params.n_trees)
        for _, params, gi, seed in units])
    nodes = kernels.build_forest(
        patterns, cells[rows].reshape(-1), seeds, first.max_depth,
        _n_sub(first, patterns.shape[1]), first.min_leaf, bootstrap=True,
        train=np.repeat(train.reshape(len(sizes), -1), sizes // g, axis=0))
    votes = np.add.reduceat(kernels.tree_labels(nodes, patterns), np.cumsum(sizes) - sizes,
                            axis=0, dtype=np.int64)
    majority = 2 * votes > sizes[:, None]
    scores = []
    for u, (r, _, _, _) in enumerate(units):
        accs = []
        for k in range(folds):
            held = cells[r, test[r, k]]
            accs.append(np.count_nonzero(majority[u * folds + k, held >> 1] == (held & 1))
                        / len(held))
        scores.append(float(np.mean(accs)))
    return scores


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
