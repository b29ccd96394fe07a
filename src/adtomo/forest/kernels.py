"""Tree-building hot loops, in plain Python over numpy arrays.

Bootstrap draws and per-node feature subsets come from the splitmix64 counter
generator, and splits are scored with scalar float expressions, so a forest
is a pure function of its inputs and tree seeds.

Trees are stored flat: parallel arrays indexed by node id, with feature == -1
marking a leaf.  Node 0 is the root; children of a split follow the X == 0
branch on the left.
"""

from __future__ import annotations

import math

import numpy as np

from ..rng import splitmix64

UNBOUNDED_DEPTH = 1 << 20


def entropy01(pos: int, n: int) -> float:
    """Shannon entropy (bits) of a binary multiset with ``pos`` of ``n`` true."""
    if pos <= 0 or pos >= n:
        return 0.0
    p = pos / n
    q = 1.0 - p
    return -(p * math.log2(p) + q * math.log2(q))


def _build_tree(X, y, order, lo_root, hi_root, state, max_depth, n_sub, min_leaf,
                feat_a, left_a, right_a, n_a, gain_a, label_a):
    n_features = X.shape[1]
    scratch = np.empty(hi_root - lo_root, dtype=np.int64)
    stack = [(0, lo_root, hi_root, 0)]
    count = 1
    while stack:
        node, lo, hi, depth = stack.pop()
        nn = hi - lo
        rows = order[lo:hi]
        yr = y[rows]
        pos = int(yr.sum())
        n_a[node] = nn
        if pos == 0 or pos == nn or depth >= max_depth or nn < 2 * min_leaf:
            label_a[node] = 1 if 2 * pos > nn else 0
            continue
        if n_sub >= n_features:
            cand = range(n_features)
        else:
            perm = list(range(n_features))
            for i in range(n_sub):
                state, draw = splitmix64(state)
                j = i + draw % (n_features - i)
                perm[i], perm[j] = perm[j], perm[i]
            cand = perm[:n_sub]
        h_parent = entropy01(pos, nn)
        best_gain = -1.0
        best_feat = -1
        best_n1 = 0
        for feat in cand:
            xcol = X[rows, feat]
            n1 = int(xcol.sum())
            n0 = nn - n1
            if n0 < min_leaf or n1 < min_leaf:
                continue
            p1 = int(yr[xcol == 1].sum())
            p0 = pos - p1
            gain = h_parent - (n0 * entropy01(p0, n0) + n1 * entropy01(p1, n1)) / nn
            if gain > best_gain or (gain == best_gain and feat < best_feat):
                best_gain = gain
                best_feat = feat
                best_n1 = n1
        if best_feat < 0:
            label_a[node] = 1 if 2 * pos > nn else 0
            continue
        xcol = X[rows, best_feat]
        n0 = nn - best_n1
        scratch[:n0] = rows[xcol == 0]
        scratch[n0:nn] = rows[xcol == 1]
        order[lo:hi] = scratch[:nn]
        feat_a[node] = best_feat
        gain_a[node] = best_gain
        left_id = count
        right_id = count + 1
        count += 2
        left_a[node] = left_id
        right_a[node] = right_id
        stack.append((right_id, lo + n0, hi, depth + 1))
        stack.append((left_id, lo, lo + n0, depth + 1))
    return count, state


def build_forest(X, y, tree_seeds, max_depth, n_sub, min_leaf, bootstrap):
    """Grow ``len(tree_seeds)`` trees; returns flat node arrays + node counts.

    ``max_depth`` of None means unbounded; features/labels must be uint8 0/1.
    """
    X = np.ascontiguousarray(X, dtype=np.uint8)
    y = np.ascontiguousarray(y, dtype=np.uint8)
    tree_seeds = np.asarray(tree_seeds, dtype=np.uint64)
    max_depth = UNBOUNDED_DEPTH if max_depth is None else int(max_depth)
    n_sub = int(n_sub)
    min_leaf = int(min_leaf)
    n = X.shape[0]
    n_trees = tree_seeds.shape[0]
    max_nodes = 2 * n
    feat_a = np.full((n_trees, max_nodes), -1, dtype=np.int32)
    left_a = np.full((n_trees, max_nodes), -1, dtype=np.int32)
    right_a = np.full((n_trees, max_nodes), -1, dtype=np.int32)
    n_a = np.zeros((n_trees, max_nodes), dtype=np.int32)
    gain_a = np.zeros((n_trees, max_nodes), dtype=np.float64)
    label_a = np.zeros((n_trees, max_nodes), dtype=np.uint8)
    node_count = np.zeros(n_trees, dtype=np.int32)
    order = np.empty(n, dtype=np.int64)
    for t in range(n_trees):
        state = int(tree_seeds[t])
        if bootstrap:
            for i in range(n):
                state, draw = splitmix64(state)
                order[i] = draw % n
        else:
            order[:] = np.arange(n)
        node_count[t], _ = _build_tree(
            X, y, order, 0, n, state, max_depth, n_sub, min_leaf,
            feat_a[t], left_a[t], right_a[t], n_a[t], gain_a[t], label_a[t])
    return feat_a, left_a, right_a, n_a, gain_a, label_a, node_count


def predict_votes(feat_a, left_a, right_a, label_a, X):
    """Majority vote over trees for each row of X; ties resolve to 0."""
    X = np.ascontiguousarray(X, dtype=np.uint8)
    n_trees = feat_a.shape[0]
    n_rows = X.shape[0]
    votes = np.zeros(n_rows, dtype=np.int64)
    for t in range(n_trees):
        feat = feat_a[t]
        left = left_a[t]
        right = right_a[t]
        label = label_a[t]
        for i in range(n_rows):
            node = 0
            while feat[node] >= 0:
                node = left[node] if X[i, feat[node]] == 0 else right[node]
            votes[i] += label[node]
    return (2 * votes > n_trees).astype(np.uint8)
