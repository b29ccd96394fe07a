"""Tree-building and voting kernels over blocking-pattern counts.

With k binary features a training set holds at most 2^k distinct rows
(patterns).  Everything greedy tree growth reads is an integer sum over the
rows of a node: its size ``nn`` and positives ``pos``, and per candidate
feature the size ``n1`` and positives ``p1`` of the X == 1 side.  The same
sums over (pattern, label) multiplicities give the same integers, so a tree
grown on counts takes exactly the decisions a row-wise builder takes: same
entropies, gains, tie-breaks, node ids and depth-first order.  A bootstrap
resample only changes the multiplicities, which are one ``np.bincount`` over
the drawn row indices.

Each tree's bootstrap draws come from one vectorised splitmix64 expression
(``rng.splitmix64_draws``); its per-node feature subsets continue the same
stream through the scalar ``rng.splitmix64``, in depth-first node order.
Splits are scored with scalar float expressions, so a forest is a pure
function of its inputs and tree seeds.

Trees are stored flat: parallel arrays indexed by node id, with feature == -1
marking a leaf.  Node 0 is the root; children of a split follow the X == 0
branch on the left.
"""

from __future__ import annotations

import math

import numpy as np

from ..rng import splitmix64, splitmix64_draws

UNBOUNDED_DEPTH = 1 << 20


def entropy01(pos: int, n: int) -> float:
    """Shannon entropy (bits) of a binary multiset with ``pos`` of ``n`` true."""
    if pos <= 0 or pos >= n:
        return 0.0
    p = pos / n
    q = 1.0 - p
    return -(p * math.log2(p) + q * math.log2(q))


def _grow_tree(table, state, max_depth, n_sub, min_leaf,
               feat_a, left_a, right_a, n_a, gain_a, label_a):
    """Grow one tree; returns its node count.

    ``table`` has one row per pattern present in the tree's sample: a 1, the
    pattern's rows, its positive rows, then its k features.  A node owns a
    contiguous block of rows of the table; a split stable-sorts the block on
    the chosen feature, so the X == 0 child's block comes first.
    """
    n_features = table.shape[1] - 3
    stack = [(0, table, int(table[:, 1].sum()), int(table[:, 2].sum()), 0)]
    count = 1
    while stack:
        node, block, nn, pos, depth = stack.pop()
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
        if len(block) == 1:  # one pattern: no feature separates the node
            label_a[node] = 1 if 2 * pos > nn else 0
            continue
        # Per feature: patterns, rows and positive rows on its X == 1 side.
        m1s, n1s, p1s = block[:, :3].T.dot(block[:, 3:]).tolist()
        h_parent = entropy01(pos, nn)
        best_gain = -1.0
        best_feat = -1
        best_n1 = best_p1 = 0
        for feat in cand:
            n1 = n1s[feat]
            n0 = nn - n1
            if n0 < min_leaf or n1 < min_leaf:
                continue
            p1 = p1s[feat]
            p0 = pos - p1
            gain = h_parent - (n0 * entropy01(p0, n0) + n1 * entropy01(p1, n1)) / nn
            if gain > best_gain or (gain == best_gain and feat < best_feat):
                best_gain = gain
                best_feat = feat
                best_n1 = n1
                best_p1 = p1
        if best_feat < 0:
            label_a[node] = 1 if 2 * pos > nn else 0
            continue
        block = block.take(block[:, 3 + best_feat].argsort(kind="stable"), axis=0)
        m0 = len(block) - m1s[best_feat]
        feat_a[node] = best_feat
        gain_a[node] = best_gain
        left_id = count
        right_id = count + 1
        count += 2
        left_a[node] = left_id
        right_a[node] = right_id
        stack.append((right_id, block[m0:], best_n1, best_p1, depth + 1))
        stack.append((left_id, block[:m0], nn - best_n1, pos - best_p1, depth + 1))
    return count


def build_forest(X, y, tree_seeds, max_depth, n_sub, min_leaf, bootstrap):
    """Grow ``len(tree_seeds)`` trees; returns flat node arrays + node counts.

    ``max_depth`` of None means unbounded; features/labels must be uint8 0/1.
    Each tree trains on a same-size bootstrap resample drawn from its seed
    when ``bootstrap`` is set, else on the rows as given.
    """
    X = np.ascontiguousarray(X, dtype=np.uint8)
    y = np.ascontiguousarray(y, dtype=np.uint8)
    tree_seeds = np.asarray(tree_seeds, dtype=np.uint64)
    max_depth = UNBOUNDED_DEPTH if max_depth is None else int(max_depth)
    n_sub = int(n_sub)
    min_leaf = int(min_leaf)
    n = X.shape[0]
    n_trees = tree_seeds.shape[0]
    patterns, inverse = np.unique(X, axis=0, return_inverse=True)
    n_patterns = patterns.shape[0]
    # (pattern, label) cell of each row: a sample's cell counts are its
    # (negative, positive) rows per pattern.
    cells = 2 * inverse.reshape(-1) + y
    base = np.zeros((n_patterns, 3 + patterns.shape[1]), dtype=np.int64)
    base[:, 0] = 1
    base[:, 3:] = patterns

    def pattern_table(sample_cells):
        neg, pos = np.bincount(sample_cells, minlength=2 * n_patterns).reshape(-1, 2).T
        table = base.copy()
        table[:, 1] = neg + pos
        table[:, 2] = pos
        return table[table[:, 1] > 0]

    # A tree over p patterns has at most p leaves, hence 2p - 1 nodes.
    max_nodes = 2 * n_patterns
    feat_a = np.full((n_trees, max_nodes), -1, dtype=np.int32)
    left_a = np.full((n_trees, max_nodes), -1, dtype=np.int32)
    right_a = np.full((n_trees, max_nodes), -1, dtype=np.int32)
    n_a = np.zeros((n_trees, max_nodes), dtype=np.int32)
    gain_a = np.zeros((n_trees, max_nodes), dtype=np.float64)
    label_a = np.zeros((n_trees, max_nodes), dtype=np.uint8)
    node_count = np.zeros(n_trees, dtype=np.int32)
    table = None if bootstrap else pattern_table(cells)
    for t in range(n_trees):
        state = int(tree_seeds[t])
        if bootstrap:
            state, draws = splitmix64_draws(state, n)
            table = pattern_table(cells[draws % np.uint64(n)])
        node_count[t] = _grow_tree(
            table, state, max_depth, n_sub, min_leaf,
            feat_a[t], left_a[t], right_a[t], n_a[t], gain_a[t], label_a[t])
    return feat_a, left_a, right_a, n_a, gain_a, label_a, node_count


def predict_votes(feat_a, left_a, right_a, label_a, X):
    """Majority vote over trees for each row of X; ties resolve to 0.

    Walks every tree for every distinct row at once, one level per round; a
    path never splits one feature twice, so no walk outlasts k rounds.
    """
    X = np.ascontiguousarray(X, dtype=np.uint8)
    n_trees = feat_a.shape[0]
    patterns, inverse = np.unique(X, axis=0, return_inverse=True)
    trees = np.arange(n_trees)[:, None]
    cols = np.arange(patterns.shape[0])
    node = np.zeros((n_trees, patterns.shape[0]), dtype=np.intp)
    while True:
        feat = feat_a[trees, node]
        split = feat >= 0
        if not split.any():
            break
        go_right = patterns[cols, np.where(split, feat, 0)] != 0
        child = np.where(go_right, right_a[trees, node], left_a[trees, node])
        node = np.where(split, child, node)
    votes = label_a[trees, node].sum(axis=0, dtype=np.int64)
    return (2 * votes[inverse.reshape(-1)] > n_trees).astype(np.uint8)
