"""Random forest over binary blocking features, built from scratch.

The learner is deliberately plain: bagged greedy entropy trees with a
per-node random feature subset, majority voting, and information-gain
importances (sum over split nodes of node-fraction x gain, averaged across
trees, normalized to sum 1).  Its input is one pattern table, the distinct
0/1 blocking rows, and each training row's (pattern, label) cell
(``kernels.pattern_cells``).  Rows are used in the order given, and the
bootstrap draws index into that order, so a forest is deterministic given
its rows, the hyperparameters, and one integer seed.  The caller fixes the
row order: ``tomography.run_inference`` lays out each advertiser's rows in
(persona, flag) order.

Growth runs in ``kernels.build_forest`` and scoring in one walk of every
tree over the pattern table (``kernels.tree_labels``): a row's vote is its
pattern's.  ``cv_scores`` hands the kernel the fold forests of several grid
points as one batch, each with its fold's training cells and its own tree
seeds, and the kernel grows every tree of the batch in lockstep.
``best_point`` keeps the best grid point, and ``holdout_fit`` grows the
final forest on all the training rows, scores it on the holdout rows and
returns its importances.  Each fold forest is the one ``holdout_fit`` would
grow on that fold's rows and seed.

A note on zero-gain splits: an impure node is still split when the best
achievable gain is zero, as long as some feature actually partitions it.
Without this, parity-style concepts (XOR) would be unlearnable at any depth;
a node becomes a leaf only on purity, depth/size limits, or when no feature
separates its samples.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..config import ForestParams
from ..rng import substream, substream_key
from . import kernels


def _n_sub(params: ForestParams, n_features: int) -> int:
    if params.features_per_split == "all":
        return n_features
    return max(1, int(math.sqrt(n_features)))


def _tree_seeds(seed: int, n_trees: int) -> np.ndarray:
    """The tree seeds of the forest of ``n_trees`` trees grown from ``seed``."""
    return np.array([substream_key(seed, "tree", t) for t in range(n_trees)], dtype=np.uint64)


def feature_importance(nodes: kernels.Nodes, n_features: int) -> np.ndarray:
    """Per-feature importance: sum over split nodes of (node fraction x gain),
    averaged over trees, normalized to sum 1.  All-zero if no tree splits."""
    # The mask takes tree after tree, each in node-id order: the order a
    # per-tree sum would add in.
    split = nodes.feature >= 0
    totals = np.zeros(n_features, dtype=float)
    np.add.at(totals, nodes.feature[split],
              (nodes.n_samples / nodes.n_samples[:, :1])[split] * nodes.gain[split])
    totals /= len(nodes.count)
    mass = totals.sum()
    if mass > 0:
        totals /= mass
    return totals


def fold_masks(n_personas: int, runs: int, folds: int, seed: int) -> np.ndarray:
    """The persona-balanced k-fold split of ``n_personas`` blocks of ``runs``
    rows, block after block: a (folds, rows) bool array, True where a row is
    in that fold's held-out set.  Each block deals its rows round-robin over
    the folds in the order of its own permutation, drawn block after block
    from the seed's "folds" substream; ``folds`` must divide ``runs``."""
    rng = substream(seed, "folds")
    fold = np.empty((n_personas, runs), dtype=np.int64)
    for block in fold:
        block[rng.permutation(runs)] = np.arange(runs) % folds
    return fold.reshape(-1) == np.arange(folds)[:, None]


def _accuracies(nodes: kernels.Nodes, patterns: np.ndarray, sizes: np.ndarray,
                held: Sequence[np.ndarray]) -> list[float]:
    """Per forest f of ``sizes[f]`` trees, tree after tree in ``nodes``: the
    share of the (pattern, label) cells ``held[f]`` whose label is the
    forest's majority vote at the pattern, ties voting 0.  One walk of every
    tree over the pattern table gives every vote."""
    votes = np.add.reduceat(kernels.tree_labels(nodes, patterns), np.cumsum(sizes) - sizes,
                            axis=0, dtype=np.int64)
    majority = 2 * votes > sizes[:, None]
    return [float(np.count_nonzero(m[h >> 1] == (h & 1)) / len(h))
            for m, h in zip(majority, held)]


def holdout_fit(patterns: np.ndarray, cells: np.ndarray, held: np.ndarray,
                params: ForestParams, seed: int) -> tuple[float, np.ndarray]:
    """(accuracy, gains) of the forest of ``params`` grown from ``seed`` on
    the rows ``cells`` over the pattern table ``patterns``
    (``kernels.pattern_cells``): its accuracy on the (pattern, label) cells
    ``held`` and its ``feature_importance``.  Each tree trains on a same-size
    bootstrap resample of the rows, drawn from its own seed-derived
    substream."""
    nodes = kernels.build_forest(
        patterns, [(cells, _tree_seeds(seed, params.n_trees))], params.max_depth,
        _n_sub(params, patterns.shape[1]), params.min_leaf, bootstrap=True)
    accuracy, = _accuracies(nodes, patterns, np.array([params.n_trees]), [held])
    return accuracy, feature_importance(nodes, patterns.shape[1])


def cv_scores(patterns: np.ndarray, cells: np.ndarray, test: np.ndarray,
              units: Sequence[tuple[int, ForestParams, int, int]]) -> list[float]:
    """Mean held-out-fold accuracy of each unit (r, params, gi, seed): grid
    point ``gi`` (``params``) on the rows ``cells[r]`` over the pattern table
    ``patterns`` (``kernels.pattern_cells``), split into the folds
    ``test[r]`` (``fold_masks``).

    Fold k's forest of a unit is the one ``holdout_fit`` grows on the rows
    ``cells[r, ~test[r, k]]`` from substream_key(seed, "cv", gi, k).  The
    units must share ``max_depth``, ``features_per_split`` and
    ``min_leaf``: every fold forest grows in one ``kernels.build_forest``
    batch, and one walk of every tree over the pattern table scores them
    all.  Each unit draws from its own substreams, so units may be scored in
    any batch or process."""
    folds = test.shape[1]
    first = units[0][1]
    nodes = kernels.build_forest(
        patterns, [(cells[r, ~test[r, k]],
                    _tree_seeds(substream_key(seed, "cv", gi, k), params.n_trees))
                   for r, params, gi, seed in units for k in range(folds)],
        first.max_depth, _n_sub(first, patterns.shape[1]), first.min_leaf, bootstrap=True)
    sizes = np.repeat([params.n_trees for _, params, _, _ in units], folds)
    accs = _accuracies(nodes, patterns, sizes, [cells[r, test[r, k]]
                                                for r, *_ in units for k in range(folds)])
    return [float(np.mean(accs[u * folds:(u + 1) * folds])) for u in range(len(units))]


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
