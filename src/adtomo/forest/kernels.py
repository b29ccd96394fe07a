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

``pattern_cells`` maps rows to their distinct patterns and (pattern, label)
cells once; ``build_forest`` takes the pattern table and the cells, so a
caller that grows many batches over one row set pays that ``np.unique``
once.  It grows a batch of trees (the fold forests of several grid points,
or one forest) in lockstep, one numpy pass per round over every tree.  The
batch shares one hyperparameter set; only the training rows differ per
forest.

* Each tree's present patterns are its elements, and a node owns a
  contiguous segment of its tree's elements; a split stably partitions the
  segment, X == 0 side first.
* Each tree keeps its own splitmix64 state.  Bootstrap draws and per-node
  feature-subset draws are one vectorised splitmix64 expression over many
  trees (``rng.splitmix64_draws``).  When the batch draws subsets, each
  tree takes one growing node per round, the next in its depth-first order,
  so it consumes its stream exactly as a one-tree depth-first builder does;
  when it draws nothing, every pending node is taken each round.
* Splits are scored with the scalar builder's float operations, one ufunc
  per operation, on integer sums; entropies come from ``math.log2`` through
  a memo, never from ``np.log2``.  Ties go to the lowest feature index.
* Node ids are assigned at the end: split node r of a tree in depth-first
  order has children 1 + 2r and 2 + 2r, as the depth-first builder numbers
  them.

So a forest is a pure function of its inputs and tree seeds, whatever batch
it grows in.

A forest is stored as ``Nodes``: flat arrays indexed by (tree, node id).
``tree_labels`` walks every tree of a batch over a pattern table at once;
``predict_votes`` is the majority over that walk.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..rng import splitmix64_draws

UNBOUNDED_DEPTH = 1 << 20


class Nodes(NamedTuple):
    """The trees of a forest as (trees, width) node arrays, one row per
    tree, indexed by node id.  Tree t has ``count[t]`` nodes; past them its
    row is padded with leaves (feature -1, label 0).  Node 0 is the root;
    feature == -1 marks a leaf, and the children of a split follow the
    X == 0 branch on the left.  ``n_samples`` counts a node's training rows
    and ``gain`` is a split's information gain."""

    feature: np.ndarray
    left: np.ndarray
    right: np.ndarray
    n_samples: np.ndarray
    gain: np.ndarray
    label: np.ndarray
    count: np.ndarray


def entropy01(pos: int, n: int) -> float:
    """Shannon entropy (bits) of a binary multiset with ``pos`` of ``n`` true."""
    if pos <= 0 or pos >= n:
        return 0.0
    p = pos / n
    q = 1.0 - p
    return -(p * math.log2(p) + q * math.log2(q))


class _EntropyMemo:
    """``entropy01`` over int arrays of (pos, n), each value computed once by
    the scalar function: ``math.log2``, never ``np.log2``, whose last ulp may
    differ.  Values live in a direct-mapped table: (pos, n) owns slot
    n(n+1)/2 + pos mod 2^17, so pairs with n < 511 never collide and larger
    ones evict each other.  The table holds 2 MB whatever the row count.  It
    starts all zero, which reads as key 0, that is (0, 0), of entropy 0.0:
    true wherever it is looked up.  It caches a pure function, so sharing
    one table across calls changes nothing but speed."""

    def __init__(self, bits: int = 17):
        self.mask = (1 << bits) - 1
        self.table = np.zeros(1 << bits, dtype=[("key", np.int64), ("value", np.float64)])

    def __call__(self, pos: np.ndarray, n: np.ndarray) -> np.ndarray:
        pos = pos.astype(np.int64)
        n = n.astype(np.int64)
        key = (n << 32) | pos
        slot = (((n * (n + 1)) >> 1) + pos) & self.mask
        entry = self.table[slot]
        out = entry["value"]
        miss = entry["key"] != key
        if miss.any():
            new, at, inverse = np.unique(key[miss], return_index=True, return_inverse=True)
            computed = np.empty(len(new), dtype=self.table.dtype)
            computed["key"] = new
            computed["value"] = [entropy01(k & 0xFFFFFFFF, k >> 32) for k in new.tolist()]
            out[miss] = computed["value"][inverse.reshape(-1)]
            # Whole (key, value) records: new keys sharing a slot leave one
            # consistent pair, whichever is written last.
            self.table[slot[miss][at]] = computed
        return out


_entropy = _EntropyMemo()

# Columns of the int32 node matrices: a node owns elements [START, END) of
# its tree's present-pattern list, holding NN rows of which POS are
# positive; PARENT is the record id of its parent (-1 for a root), and GROW
# says whether it may split.
START, END, NN, POS, DEPTH, PARENT, TREE, GROW = range(8)
# Elements scored in one pass: bounds the (elements x 2 x k) temporaries.
_SCORE_CHUNK = 1 << 13


def _samples(cells, rows, seeds, bootstrap, n_cells):
    """(states, counts) of the trees of one forest: each tree's splitmix64
    state after its bootstrap draws, and its (negative, positive) rows per
    pattern, shape (trees, patterns, 2).  Draws run in chunks of trees of
    about 2^16 values each."""
    cells = cells[rows]
    n = len(cells)
    if not bootstrap:
        counts = np.bincount(cells, minlength=n_cells)
        return seeds, np.broadcast_to(counts, (len(seeds), n_cells)).reshape(len(seeds), -1, 2)
    states, counts = [], []
    chunk = max(1, (1 << 16) // n)
    for lo in range(0, len(seeds), chunk):
        state, draws = splitmix64_draws(seeds[lo:lo + chunk], n)
        sample = cells[draws % np.uint64(n)]
        sample += (np.arange(len(sample)) * n_cells)[:, None]
        counts.append(np.bincount(sample.reshape(-1), minlength=len(sample) * n_cells))
        states.append(state)
    return np.concatenate(states), np.concatenate(counts).reshape(len(seeds), -1, 2)


def pattern_cells(X, y) -> tuple[np.ndarray, np.ndarray]:
    """(patterns, cells) of the rows (X, y): the distinct rows of X, sorted,
    and each row's (pattern, label) cell ``2 * pattern + label``.  Features
    and labels must be 0/1."""
    X = np.ascontiguousarray(X, dtype=np.uint8)
    patterns, inverse = np.unique(X, axis=0, return_inverse=True)
    return patterns, 2 * inverse.reshape(-1) + np.asarray(y, dtype=np.uint8)


def build_forest(patterns, cells, tree_seeds, max_depth, n_sub, min_leaf, bootstrap,
                 train=None):
    """Grow a batch of forests in lockstep; returns their trees as
    ``Nodes``, tree after tree.

    The rows are ``cells`` over the pattern table ``patterns``
    (``pattern_cells``).  Forest f trains on the rows where ``train[f]`` is
    set, in the order given; ``train`` None means one forest on all rows.
    The trees of forest f are the f-th of len(train) equal runs of
    ``tree_seeds``.  ``max_depth`` (None: unbounded), ``n_sub``,
    ``min_leaf`` and ``bootstrap`` are one value each for every tree of the
    batch.  With ``bootstrap`` each tree trains on a same-size bootstrap
    resample of its forest's rows, drawn from its seed, else on the rows as
    given.  A tree depends on the rows' patterns and labels, not on the
    table's other patterns.

    Every tree is grown exactly as a depth-first builder grows it alone (see
    the module docstring): when ``n_sub`` < k, a round takes from each tree
    the next node in its depth-first order that can split, else all pending
    nodes.
    """
    patterns = np.ascontiguousarray(patterns, dtype=np.uint8)
    cells = np.asarray(cells, dtype=np.int64)
    tree_seeds = np.asarray(tree_seeds, dtype=np.uint64)
    train = (np.ones((1, len(cells)), dtype=bool) if train is None
             else np.asarray(train, dtype=bool))
    n_trees = len(tree_seeds)
    if n_trees % len(train):
        raise ValueError(f"{n_trees} tree seeds do not split into {len(train)} forests")
    depth_cap = UNBOUNDED_DEPTH if max_depth is None else max_depth
    # Nested calls: the elements die with _grow, before the output arrays exist.
    return _renumber(*_grow(*_roots(cells, train, tree_seeds, bootstrap, 2 * len(patterns)),
                            patterns, depth_cap, n_sub, min_leaf), n_trees)


def _roots(cells, train, tree_seeds, bootstrap, n_cells):
    """(states, elements, roots) of a batch: each tree's splitmix64 state
    after its bootstrap draws; its elements, one per pattern present in its
    sample with the pattern's rows and positive rows, tree after tree; and
    its root node over all of them."""
    per_forest = len(tree_seeds) // len(train)
    states, elements, roots = [], [], []
    offset = 0
    for f, mask in enumerate(train):
        rows = np.flatnonzero(mask)
        state, counts = _samples(cells, rows, tree_seeds[f * per_forest:(f + 1) * per_forest],
                                 bootstrap, n_cells)
        sizes = counts.sum(axis=2)
        tree, pattern = np.nonzero(sizes)
        elements.append(np.stack([pattern, sizes[tree, pattern], counts[tree, pattern, 1]])
                        .astype(np.int32))
        ends = offset + np.cumsum(np.count_nonzero(sizes, axis=1))
        root = np.zeros((len(ends), 8), dtype=np.int32)
        root[:, START] = np.concatenate([[offset], ends[:-1]])
        root[:, END] = ends
        root[:, NN] = len(rows)
        root[:, POS] = counts[:, :, 1].sum(axis=1)
        states.append(state)
        roots.append(root)
        offset = int(ends[-1])
    roots = np.concatenate(roots)
    roots[:, PARENT] = -1
    roots[:, TREE] = np.arange(len(roots))
    return np.concatenate(states), np.concatenate(elements, axis=1), roots


def _grow(state, elements, pending, patterns, depth_cap, n_sub, min_leaf):
    """Grow every tree from its root in ``pending``; returns the node
    records (START, PARENT, TREE, NN), features, gains and labels in the
    order the nodes are taken.  A split stably partitions its node's
    elements, X == 0 first, so every node owns a contiguous segment."""
    k = patterns.shape[1]
    draws = n_sub < k
    patterns_t = np.ascontiguousarray(patterns.T)
    pending[:, GROW] = _grows(pending, depth_cap, min_leaf)
    # Node records in the order the nodes are taken.  A tree over p present
    # patterns has at most 2p - 1 nodes; pages never written cost nothing.
    most = 2 * elements.shape[1]
    rec = np.empty((most, 4), dtype=np.int32)  # START, PARENT, TREE, NN
    rec_feat = np.empty(most, dtype=np.int32)
    rec_gain = np.empty(most)
    rec_label = np.empty(most, dtype=np.uint8)
    n_done = 0
    while len(pending):
        # Pending nodes are sorted by START, which groups them by tree and
        # puts each tree's next node in depth-first order first.  When the
        # batch draws, a tree takes its first growing node only: draws
        # follow the depth-first order.  Leaves cannot change any later
        # draw, and without draws nothing can, so those go all at once.
        if draws:
            grow = pending[:, GROW] == 1
            take = ~grow
            first = np.flatnonzero(grow)
            take[first[np.diff(pending[first, TREE], prepend=-1) != 0]] = True
            node, pending = pending[take], pending[~take]
        else:
            node, pending = pending, pending[:0]
        m = len(node)
        done = slice(n_done, n_done + m)
        feat, gain = rec_feat[done], rec_gain[done]
        feat[:] = -1
        gain[:] = 0.0

        grow = node[:, GROW] == 1
        # A node with one pattern cannot split, but it has drawn.
        scored = grow & (node[:, END] - node[:, START] > 1)
        score = np.flatnonzero(scored)
        subsets = None
        if draws:
            subsets = _feature_subsets(state, node[grow, TREE], n_sub, k)[scored[grow]]
        children = [_split(node, part, cand, elements, patterns_t, depth_cap, min_leaf,
                           feat, gain, n_done)
                    for part, cand in _chunks(node, score, subsets)] if len(score) else []
        rec[done] = node[:, [START, PARENT, TREE, NN]]
        rec_label[done] = (feat < 0) & (2 * node[:, POS] > node[:, NN])
        n_done += m
        # A wide round's nodes and children are large: free them early.
        del node
        pending = np.concatenate([pending, *children])
        del children
        start = pending[:, START]
        if (start[1:] < start[:-1]).any():
            pending = pending[np.argsort(start, kind="stable")]
    done = slice(0, n_done)
    return rec[done], rec_feat[done], rec_gain[done], rec_label[done]


def _grows(node, depth_cap, min_leaf):
    """Whether each node may split: impure, above its depth cap and big
    enough for two leaves.  Only such nodes draw feature subsets."""
    return ((node[:, POS] > 0) & (node[:, POS] < node[:, NN])
            & (node[:, DEPTH] < depth_cap) & (node[:, NN] >= 2 * min_leaf))


def _feature_subsets(state, tree, n_sub, k):
    """Candidate features of one node for each tree in ``tree``: the first
    ``n_sub`` entries of a partial Fisher-Yates shuffle of 0..k-1 over the
    tree's next ``n_sub`` draws.  Advances ``state`` of those trees."""
    state[tree], z = splitmix64_draws(state[tree], n_sub)
    rows = np.arange(len(tree))
    perm = np.tile(np.arange(k), (len(tree), 1))
    for i in range(n_sub):
        j = i + (z[:, i] % np.uint64(k - i)).astype(np.int64)
        swapped = perm[rows, j]
        perm[rows, j] = perm[:, i]
        perm[:, i] = swapped
    return perm[:, :n_sub]


def _chunks(node, score, cand):
    """``score`` (and its rows of ``cand``) in runs of about _SCORE_CHUNK
    elements."""
    length = node[score, END] - node[score, START]
    cut = np.flatnonzero(np.diff(np.cumsum(length) // _SCORE_CHUNK)) + 1
    parts = np.split(score, cut)
    return zip(parts, [None] * len(parts) if cand is None else np.split(cand, cut))


def _split(node, score, cand, elements, patterns_t, depth_cap, min_leaf, feat, gain, first_id):
    """Score the candidate splits of the nodes ``score`` and split those
    with a valid one: fills ``feat`` and ``gain``, partitions the elements
    of nodes with a growing child in place, and returns the children, X == 0
    side first.  ``cand`` holds each node's candidate features, None for
    all of them; arrays over candidates are (candidate, node)."""
    k, n_patterns = patterns_t.shape
    seg = node[score]
    length = seg[:, END] - seg[:, START]
    offsets = np.cumsum(length) - length
    owner = np.repeat(np.arange(len(score)), length)
    el = elements.take(np.repeat(seg[:, START] - offsets, length) + np.arange(len(owner)),
                       axis=1)
    if cand is None:
        cand_t = None
        bits = patterns_t.take(el[0], axis=1)
    else:
        cand_t = np.ascontiguousarray(cand.T)
        bits = patterns_t.take(cand_t.take(owner, axis=1) * n_patterns + el[0])
    # Per candidate: rows and positive rows on the X == 1 side; integer sums.
    n1, p1 = np.add.reduceat(bits * el[1:3, None], offsets, axis=2)
    nn, pos = seg[:, NN], seg[:, POS]
    n0, p0 = nn - n1, pos - p1
    valid = (n0 >= min_leaf) & (n1 >= min_leaf)
    at = np.nonzero(valid)
    n0, n1_at = n0[at], n1[at]
    # The scalar builder's float operations, one ufunc each.
    scores = np.full(valid.shape, -np.inf)
    scores[at] = _entropy(pos, nn)[at[1]] - (
        n0 * _entropy(p0[at], n0) + n1_at * _entropy(p1[at], n1_at)) / nn[at[1]]
    best = scores.max(axis=0)
    # Ties go to the lowest feature index.
    tied = scores == best
    if cand is None:
        slot = best_feat = np.argmax(tied, axis=0)
    else:
        best_feat = np.where(tied, cand_t, k).min(axis=0)
        slot = np.argmax(tied & (cand_t == best_feat), axis=0)
    splits = np.flatnonzero(best > -np.inf)
    rows = score[splits]
    feat[rows] = best_feat[splits]
    gain[rows] = best[splits]

    seg, slot, offsets = seg[splits], slot[splits], offsets[splits]
    n1b, p1b = n1[slot, splits], p1[slot, splits]
    # Each split node's elements with their bit of its feature.
    length = length[splits]
    starts = np.cumsum(length) - length
    member = np.repeat(offsets - starts, length) + np.arange(int(length.sum()))
    owner = np.repeat(np.arange(len(splits)), length)
    zero = bits.take(slot[owner] * bits.shape[1] + member) == 0
    within = np.arange(len(owner)) - starts[owner]
    zeros_before = np.cumsum(zero) - zero
    zeros_before -= zeros_before[starts][owner]
    n_zero = np.add.reduceat(zero, starts, dtype=np.int32)

    children = np.empty((2 * len(splits), 8), dtype=np.int32)
    left, right = children[0::2], children[1::2]
    left[:, START] = seg[:, START]
    left[:, END] = right[:, START] = seg[:, START] + n_zero
    right[:, END] = seg[:, END]
    left[:, NN] = seg[:, NN] - n1b
    left[:, POS] = seg[:, POS] - p1b
    right[:, NN] = n1b
    right[:, POS] = p1b
    children[:, DEPTH] = np.repeat(seg[:, DEPTH] + 1, 2)
    children[:, PARENT] = np.repeat(first_id + rows, 2)
    children[:, TREE] = np.repeat(seg[:, TREE], 2)
    children[:, GROW] = _grows(children, depth_cap, min_leaf)

    # Stable partition, X == 0 first, of the nodes whose children are read
    # again; the others only needed their counts.
    moved = np.flatnonzero((left[:, GROW] | right[:, GROW])[owner])
    owner, zero, within, zeros_before = (a[moved] for a in (owner, zero, within, zeros_before))
    target = seg[owner, START] + np.where(zero, zeros_before,
                                          n_zero[owner] + within - zeros_before)
    for dst, src in zip(elements, el.take(member[moved], axis=1)):
        dst[target] = src
    return children


def _renumber(rec, feat, gain, label, n_trees):
    """``Nodes`` with each tree's depth-first node ids, from the node
    records (START, PARENT, TREE, NN) in the order the nodes were taken."""
    tree = rec[:, 2]
    split = feat >= 0
    n_splits = np.bincount(tree[split], minlength=n_trees)
    rank, node_id = _preorder(rec, split, n_splits)
    node_count = (1 + 2 * n_splits).astype(np.int32)
    width = int(node_count.max())
    feat_a = np.full((n_trees, width), -1, dtype=np.int32)
    left_a = np.full((n_trees, width), -1, dtype=np.int32)
    right_a = np.full((n_trees, width), -1, dtype=np.int32)
    n_a = np.zeros((n_trees, width), dtype=np.int32)
    gain_a = np.zeros((n_trees, width), dtype=np.float64)
    label_a = np.zeros((n_trees, width), dtype=np.uint8)
    at = (tree, node_id)
    feat_a[at] = feat
    n_a[at] = rec[:, 3]
    gain_a[at] = gain
    label_a[at] = label
    at = (tree[split], node_id[split])
    rank = rank[split]
    left_a[at] = 1 + 2 * rank
    right_a[at] = 2 + 2 * rank
    return Nodes(feat_a, left_a, right_a, n_a, gain_a, label_a, node_count)


def _preorder(rec, split, n_splits):
    """(rank, node id) of every node record: a split node's rank among its
    tree's split nodes in depth-first order, and the node's id.

    A node's segment starts where its X == 0 child's does and before its
    X == 1 child's, and a node is taken before its children, so a stable
    sort by START lists the nodes of each tree in depth-first order.  The
    builder numbers children as it splits, so split node r of a tree in
    that order has children 1 + 2r and 2 + 2r."""
    start, parent, tree = rec[:, 0], rec[:, 1], rec[:, 2]
    order = np.argsort(start, kind="stable")
    rank = np.empty(len(rec), dtype=np.int32)
    rank[order] = np.cumsum(split[order], dtype=np.int32)
    del order
    rank -= (np.cumsum(n_splits) - n_splits + 1).astype(np.int32)[tree]
    node_id = np.zeros(len(rec), dtype=np.int32)
    child = parent >= 0
    up = parent[child]
    node_id[child] = 1 + 2 * rank[up] + (start[child] != start[up])
    return rank, node_id


def tree_labels(nodes: Nodes, patterns) -> np.ndarray:
    """The leaf label each tree of ``nodes`` gives each row of ``patterns``:
    a (trees, patterns) uint8 array.

    Walks every tree for every pattern at once, one level per round, each
    round over the (tree, pattern) pairs not yet at a leaf; a path never
    splits one feature twice, so no walk outlasts k rounds.
    """
    patterns = np.ascontiguousarray(patterns, dtype=np.uint8)
    n_patterns, k = patterns.shape
    width = nodes.feature.shape[1]
    feature, left, right = (a.reshape(-1) for a in (nodes.feature, nodes.left, nodes.right))
    # Per (tree, pattern) pair, tree after tree: its node as a flat index.
    node = np.repeat(np.arange(len(nodes.count), dtype=np.intp) * width, n_patterns)
    live = np.arange(node.size)
    while live.size:
        at = node[live]
        feat = feature[at]
        split = feat >= 0
        live, at, feat = live[split], at[split], feat[split]
        go_right = patterns.reshape(-1)[live % n_patterns * k + feat] != 0
        node[live] = at - at % width + np.where(go_right, right[at], left[at])
    return nodes.label.reshape(-1)[node].reshape(len(nodes.count), n_patterns)


def predict_votes(nodes: Nodes, X):
    """Majority vote over the trees of ``nodes`` for each row of X; ties
    resolve to 0.  Each distinct row is walked once (``tree_labels``)."""
    patterns, inverse = np.unique(np.ascontiguousarray(X, dtype=np.uint8), axis=0,
                                  return_inverse=True)
    votes = tree_labels(nodes, patterns).sum(axis=0, dtype=np.int64)
    return (2 * votes[inverse.reshape(-1)] > len(nodes.count)).astype(np.uint8)
