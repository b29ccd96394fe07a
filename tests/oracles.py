"""Independent oracles used to cross-check the statistics and forest
implementations.

The tail probabilities are computed here by adaptive-Simpson quadrature over
the density (with a rational substitution mapping the infinite tail onto
[0, 1)), sharing no code with the continued-fraction implementations they
verify.  Statistics are recomputed with plain Python arithmetic.

The forest oracle grows trees row by row and one at a time, the way a
textbook greedy builder does, drawing every bootstrap index and every
feature subset with the scalar splitmix64 below.  The kernels grow a batch
of trees in lockstep from per-pattern counts with vectorised draws, so the
two must agree node for node.

The one-table chi-squared test, ``chi_square_independence`` with its
``collapse_low_mass_columns`` and ``DegenerateTableError``, is the test
flagging ran per record before it was batched; only tests call it.
``forest_dict`` writes a trained forest out as nested dicts for the forest
digests; no artifact holds a model.

The (X, y) learner is the reference for the pattern-table forests:
``train_forest`` builds the pattern table of its own rows with
``np.unique``, and ``predict_batch``, ``accuracy`` and ``predict_votes``
vote each row of a ``ForestModel`` through the distinct rows it holds, the
way inference fit and scored its final forests before every forest of an
inference grew and was scored on one shared table (``forest.holdout_fit``
must give equal accuracies and gains).  ``_fold_assignment`` deals rows of
any persona order into folds; ``forest.fold_masks``, which takes the rows
as persona blocks in sorted order, must give equal masks.

The flagging oracle pools the controls into dense vectors the width of the
corpus and tests every record on the full dense 2 x V table, the way the
flagging code once did; the sparse tables must give the same floats.  The
batched flags of ``stattest.flags_against`` are checked against one
``chi_square_independence`` call per record on the table over the union of
the two supports, the way flagging tested each record before it was
batched.

The simulation oracle draws every knowledge uniform, bid noise and creative
token with its own scalar numpy call, in the order the simulator's draw
contract states, runs each auction with ``auction_rtb`` or ``auction_hb``
(one call per (persona, slot), bids as (advertiser, value) pairs), and
sorts the logs into canonical order at the end; the simulator, which
computes a round slot-major over (personas x advertisers) arrays, must give
equal log rows.  ``knowledge_state`` and ``generate_creative`` resolve one
advertiser's knowledge and draw one creative, the way the simulator did
per persona before it went slot-major.

The grid-search oracle scores one grid point at a time: its fold forests
grow as one batch over the advertiser's own rows, and each fold's held-out
rows are voted by ``predict_votes``, the way inference scored
before it packed (advertiser, grid point) units into shared batches; the
packed ``forest.cv_scores`` must give equal scores.

The design oracle builds one advertiser's forest rows from one
``FlaggedRecord`` per line of ``records.jsonl``, sorted by (persona, flag),
the way inference did before it read the flags as one array; the grid
search and final fit of the (X, y) learner over those rows must give the
report ``run_inference`` builds from the array's (pattern, label) cells.

The collation oracle builds one ``DeliveredAd`` per ad and counts each
creative's tokens into a per-(advertiser, persona, run) dict, token by
token, over a ``build_corpus`` corpus, the way the flag stage collated
before it read the ad log into columns; the columnar collation must give
equal records.  ``jsonl_lines`` encodes whole records with one
``json.JSONEncoder``; the stages' fragment-built lines must equal it.

The cookie-sync oracle, ``detect_cookie_sync``, reads any request log: it
keeps one ``RequestLogEntry`` per line, sorts them into chains, rejects a
chain with a position gap and classifies every entry on its own, the way
``syncdetect`` did before it read the log as the config's chain grid.  On a
log the stage accepts, ``sync_pairs.json`` must equal its report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from adtomo import stattest
from adtomo.config import ForestParams, HyperGrid, StatConfig
from adtomo.ecosim import AuctionSlot, InterestGroup, Persona, World
from adtomo.errors import ConfigError, StatError
from adtomo.forest import best_point, kernels
from adtomo.forest.model import _n_sub, _tree_seeds
from adtomo.rng import GAMMA, MASK64, substream, substream_key

_U_MAX = 1.0 - 1e-12


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-12,
                     max_depth: int = 60) -> float:
    fa, fm, fb = f(a), f((a + b) / 2), f(b)
    whole = (b - a) / 6 * (fa + 4 * fm + fb)

    def rec(a, b, fa, fm, fb, whole, tol, depth):
        m = (a + b) / 2
        lm, rm = (a + m) / 2, (m + b) / 2
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6 * (fa + 4 * flm + fm)
        right = (b - m) / 6 * (fm + 4 * frm + fb)
        err = left + right - whole
        if depth <= 0 or abs(err) < 15 * tol:
            return left + right + err / 15
        return (rec(a, m, fa, flm, fm, left, tol / 2, depth - 1)
                + rec(m, b, fm, frm, fb, right, tol / 2, depth - 1))

    return rec(a, b, fa, fm, fb, whole, tol, max_depth)


def _tail_integral(pdf, x0: float) -> float:
    """Integral of pdf over [x0, inf) via x = x0 + u/(1-u)."""

    def g(u):
        if u >= 1.0:
            return 0.0
        s = 1.0 - u
        return pdf(x0 + u / s) / (s * s)

    return adaptive_simpson(g, 0.0, _U_MAX)


def t_pdf(x: float, df: float) -> float:
    ln = (math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
          - 0.5 * math.log(df * math.pi)
          - (df + 1) / 2 * math.log1p(x * x / df))
    return math.exp(ln)


def t_two_sided_p(t: float, df: float) -> float:
    """Two-sided t-test p-value by quadrature."""
    return min(1.0, 2.0 * _tail_integral(lambda x: t_pdf(x, df), abs(t)))


def chi2_pdf(x: float, df: float) -> float:
    if x <= 0:
        return 0.0
    ln = ((df / 2 - 1) * math.log(x) - x / 2
          - math.lgamma(df / 2) - (df / 2) * math.log(2))
    return math.exp(ln)


def chi2_sf(x: float, df: float) -> float:
    """Chi-squared survival function by quadrature."""
    if x <= 0:
        return 1.0
    return min(1.0, _tail_integral(lambda y: chi2_pdf(y, df), x))


def welch_statistic(a: list[float], b: list[float]) -> tuple[float, float]:
    """(t, df) recomputed with plain Python arithmetic."""

    def mean(v):
        return sum(v) / len(v)

    def var(v):
        m = mean(v)
        return sum((x - m) ** 2 for x in v) / (len(v) - 1)

    qa = var(a) / len(a)
    qb = var(b) / len(b)
    t = (mean(a) - mean(b)) / math.sqrt(qa + qb)
    df = (qa + qb) ** 2 / (qa * qa / (len(a) - 1) + qb * qb / (len(b) - 1))
    return t, df


def chi2_statistic_collapsed(table: list[list[float]], min_expected: float) -> tuple[float, int]:
    """(statistic, df) with the low-mass collapsing rule, reimplemented
    independently with list arithmetic."""
    n_cols = len(table[0])
    col_totals = [table[0][j] + table[1][j] for j in range(n_cols)]
    kept = [j for j in range(n_cols) if col_totals[j] >= min_expected]
    dropped = [j for j in range(n_cols) if col_totals[j] < min_expected]
    cols = [[table[0][j], table[1][j]] for j in kept]
    residual = [sum(table[i][j] for j in dropped) for i in (0, 1)]
    if residual[0] + residual[1] > 0:
        cols.append(residual)
    v = len(cols)
    assert v >= 2, "oracle applied to a degenerate table"
    row_totals = [sum(c[i] for c in cols) for i in (0, 1)]
    total = row_totals[0] + row_totals[1]
    stat = 0.0
    for c in cols:
        col_total = c[0] + c[1]
        for i in (0, 1):
            e = row_totals[i] * col_total / total
            if e > 0:
                stat += (c[i] - e) ** 2 / e
    return stat, v - 1


class DegenerateTableError(StatError):
    """Table cannot support a chi-squared test (all-zero, or fewer than two
    effective columns after low-mass collapsing)."""


def collapse_low_mass_columns(table: np.ndarray, min_expected: float) -> np.ndarray:
    """Fold every column whose total count falls below ``min_expected`` into a
    single trailing residual column (dropped again if it carries no mass).

    A column's total observed count equals its total expected count under
    independence, so this is the classic validity repair that preserves the
    table's total mass.
    """
    col_totals = table.sum(axis=0)
    keep = col_totals >= min_expected
    kept = table[:, keep]
    residual = table[:, ~keep].sum(axis=1)
    if residual.sum() > 0:
        kept = np.column_stack([kept, residual])
    return kept


def chi_square_independence(table, config: StatConfig = StatConfig()) -> stattest.TestResult:
    """Chi-squared test of independence on a 2 x V table of counts, the
    test ``stattest.flags_against`` runs per record, on one table at a time.

    Columns below ``config.min_expected`` total mass are collapsed into one
    residual column first; df = V' - 1 over the V' surviving columns.
    Raises ``DegenerateTableError`` when no valid test exists.
    """
    obs = np.asarray(table, dtype=float)
    if obs.ndim != 2 or obs.shape[0] != 2:
        raise StatError(f"expected a 2 x V table, got shape {obs.shape}")
    if (obs < 0).any():
        raise StatError("counts must be non-negative")
    total = obs.sum()
    if total == 0:
        raise DegenerateTableError("all-zero table")
    obs = collapse_low_mass_columns(obs, config.min_expected)
    n_cols = obs.shape[1]
    if n_cols < 2:
        raise DegenerateTableError(
            f"fewer than 2 effective columns after collapsing (got {n_cols})"
        )
    row_totals = obs.sum(axis=1)
    col_totals = obs.sum(axis=0)
    expected = np.outer(row_totals, col_totals) / obs.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        contrib = (obs - expected) ** 2 / expected
    contrib[expected == 0.0] = 0.0  # zero row: O == E == 0
    statistic = float(contrib.sum())
    df = float(n_cols - 1)
    return stattest.TestResult(statistic, df, stattest.chi2_sf(statistic, df))


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state once; returns (new_state, draw), in
    pure-Python ints masked to 64 bits: the scalar reference for
    ``rng.splitmix64_draws``."""
    state = (state + GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    z = z ^ (z >> 31)
    return state, z


def _entropy_bits(pos: int, n: int) -> float:
    if pos <= 0 or pos >= n:
        return 0.0
    p = pos / n
    q = 1.0 - p
    return -(p * math.log2(p) + q * math.log2(q))


def forest_by_rows(X, y, tree_seeds, max_depth, n_sub: int, min_leaf: int,
                   bootstrap: bool) -> list[list[tuple]]:
    """Row-wise reference for ``kernels.build_forest``: each tree as a list of
    (feature, left, right, n, gain, label) nodes in node-id order."""
    n, k = len(X), len(X[0])
    depth_cap = math.inf if max_depth is None else max_depth
    forest = []
    for seed in tree_seeds:
        state = int(seed)
        rows = list(range(n))
        if bootstrap:
            for i in range(n):
                state, draw = splitmix64(state)
                rows[i] = draw % n
        nodes = {}
        stack = [(0, rows, 0)]
        count = 1
        while stack:
            node, rows, depth = stack.pop()
            nn = len(rows)
            pos = sum(y[r] for r in rows)
            leaf = (-1, -1, -1, nn, 0.0, 1 if 2 * pos > nn else 0)
            if pos == 0 or pos == nn or depth >= depth_cap or nn < 2 * min_leaf:
                nodes[node] = leaf
                continue
            cand = list(range(k))
            if n_sub < k:
                for i in range(n_sub):
                    state, draw = splitmix64(state)
                    j = i + draw % (k - i)
                    cand[i], cand[j] = cand[j], cand[i]
                cand = cand[:n_sub]
            best_gain, best_feat = -1.0, -1
            for feat in cand:
                ones = [r for r in rows if X[r][feat]]
                n1, n0 = len(ones), nn - len(ones)
                if n0 < min_leaf or n1 < min_leaf:
                    continue
                p1 = sum(y[r] for r in ones)
                p0 = pos - p1
                gain = _entropy_bits(pos, nn) - (
                    n0 * _entropy_bits(p0, n0) + n1 * _entropy_bits(p1, n1)) / nn
                if gain > best_gain or (gain == best_gain and feat < best_feat):
                    best_gain, best_feat = gain, feat
            if best_feat < 0:
                nodes[node] = leaf
                continue
            nodes[node] = (best_feat, count, count + 1, nn, best_gain, 0)
            stack.append((count + 1, [r for r in rows if X[r][best_feat]], depth + 1))
            stack.append((count, [r for r in rows if not X[r][best_feat]], depth + 1))
            count += 2
        forest.append([nodes[i] for i in range(count)])
    return forest


def votes_by_rows(forest: list[list[tuple]], X) -> list[int]:
    """Majority vote of ``forest_by_rows`` trees, one walk per row and tree;
    ties resolve to 0."""
    out = []
    for row in X:
        votes = 0
        for nodes in forest:
            node = 0
            while nodes[node][0] >= 0:
                feat, left, right = nodes[node][:3]
                node = right if row[feat] else left
            votes += nodes[node][5]
        out.append(1 if 2 * votes > len(forest) else 0)
    return out


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


def train_forest(X, y, params: ForestParams, seed: int) -> ForestModel:
    """Bagged forest on the rows (X, y): each tree trains on a same-size
    bootstrap resample of the rows, drawn from its own seed-derived
    substream.  The pattern table is the distinct rows of X."""
    X, y = _rows(X, y)
    patterns, cells = kernels.pattern_cells(X, y)
    nodes = kernels.build_forest(
        patterns, [(cells, _tree_seeds(seed, params.n_trees))], params.max_depth,
        _n_sub(params, X.shape[1]), params.min_leaf, bootstrap=True)
    return ForestModel(nodes, params, seed, X.shape[1])


def predict_votes(nodes: kernels.Nodes, X) -> np.ndarray:
    """Majority vote over the trees of ``nodes`` for each row of X; ties
    resolve to 0.  Each distinct row is walked once (``tree_labels``)."""
    patterns, inverse = np.unique(np.ascontiguousarray(X, dtype=np.uint8), axis=0,
                                  return_inverse=True)
    votes = kernels.tree_labels(nodes, patterns).sum(axis=0, dtype=np.int64)
    return (2 * votes[inverse.reshape(-1)] > len(nodes.count)).astype(np.uint8)


def predict_batch(model: ForestModel, X) -> np.ndarray:
    """Majority vote across trees for each row of X; ties resolve to 0."""
    X = np.asarray(X, dtype=np.uint8)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected (rows, {model.n_features}) features, got {X.shape}")
    return predict_votes(model.nodes, X)


def accuracy(model: ForestModel, X, y) -> float:
    X, y = _rows(X, y)
    return float((predict_batch(model, X) == y).mean())


def forest_dict(model) -> dict:
    """A ``ForestModel`` as nested dicts, each tree from the root down: the
    form the forest digests hash."""
    n = model.nodes
    return {
        "params": {
            "n_trees": model.params.n_trees,
            "max_depth": model.params.max_depth,
            "features_per_split": model.params.features_per_split,
            "min_leaf": model.params.min_leaf,
        },
        "seed": model.seed,
        "n_features": model.n_features,
        "trees": [_tree_dict(*(a.tolist() for a in tree))
                  for tree in zip(n.feature, n.left, right_children(n), n.n_samples, n.gain,
                                  n.label)],
    }


def right_children(nodes: kernels.Nodes) -> np.ndarray:
    """Each node's X == 1 child, ``left + 1`` at a split and -1 at a leaf."""
    return np.where(nodes.left >= 0, nodes.left + 1, -1)


def _tree_dict(feature, left, right, n_samples, gain, label) -> dict:
    """One tree's node lists as nested dicts from the root down."""
    def node(i: int) -> dict:
        if feature[i] < 0:
            return {"kind": "leaf", "n": n_samples[i], "label": bool(label[i])}
        return {"kind": "split", "feature": feature[i], "n": n_samples[i], "gain": gain[i],
                "left": node(left[i]), "right": node(right[i])}

    return {"n_samples": n_samples[0], "root": node(0)}


def cv_score(X: np.ndarray, y: np.ndarray, test: np.ndarray, params: ForestParams,
             gi: int, seed: int) -> float:
    """Mean held-out-fold accuracy of grid point ``gi`` (``params``) over the
    folds of ``test`` (from ``fold_masks``); X and y as ``_rows`` returns
    them.  The fold forests grow as one batch of ``params.n_trees`` trees
    each; fold k's forest equals train_forest(X[~test[k]], y[~test[k]],
    params, substream_key(seed, "cv", gi, k))."""
    folds = len(test)
    patterns, cells = kernels.pattern_cells(X, y)
    nodes = kernels.build_forest(
        patterns, [(cells[~test[k]], _tree_seeds(substream_key(seed, "cv", gi, k),
                                                 params.n_trees)) for k in range(folds)],
        params.max_depth, _n_sub(params, X.shape[1]), params.min_leaf, bootstrap=True)
    accs = []
    for k in range(folds):
        trees = slice(k * params.n_trees, (k + 1) * params.n_trees)
        fold = kernels.Nodes(*(a[trees] for a in nodes))
        votes = predict_votes(fold, X[test[k]])
        accs.append(float((votes == y[test[k]]).mean()))
    return float(np.mean(accs))


def cross_validate_grid(X, y, personas: Sequence[str], grid: HyperGrid, folds: int,
                        seed: int) -> tuple[ForestParams, float]:
    """Persona-balanced k-fold grid search over the rows of (X, y), whose
    personas are ``personas``: the grid point with the highest mean
    held-out-fold accuracy, one ``cv_score`` per point; exact ties go to the
    earlier point in canonical parameter order."""
    test = _fold_assignment(personas, folds, seed) == np.arange(folds)[:, None]
    X, y = _rows(X, y)
    points = grid.points()
    return best_point(points, [cv_score(X, y, test, params, gi, seed)
                               for gi, params in enumerate(points)])


def _fold_assignment(personas: Sequence[str], folds: int, seed: int) -> np.ndarray:
    """Fold id per row such that every fold holds the same number of rows of
    each persona, the rows in any order; requires per-persona counts
    divisible by folds."""
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


class VectorRecord(NamedTuple):
    """The count vector of one (advertiser, persona, run) record."""

    advertiser: str
    persona: str
    run: int
    vector: dict[int, int]   # column index -> count (>= 1 only)


class FlaggedRecord(NamedTuple):
    """One line of ``records.jsonl`` without its counts."""

    advertiser: str
    persona: str
    run: int
    is_different_from_control: bool


def design_by_records(records: Sequence[FlaggedRecord], trackers: Sequence[str],
                      blocking_by_persona: Mapping[str, Iterable[str]]
                      ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(X, y, personas) of one advertiser's records, rows sorted by (persona,
    flag): X[i, j] is 1 when the row's persona blocks ``trackers[j]``, y[i]
    is its change flag."""
    ordered = sorted(records, key=lambda r: (r.persona, r.is_different_from_control))
    personas = [rec.persona for rec in ordered]
    rows: dict[str, list[bool]] = {}
    for persona in personas:
        if persona not in rows:
            blocked = set(blocking_by_persona[persona])
            rows[persona] = [t in blocked for t in trackers]
    X = np.array([rows[p] for p in personas], dtype=np.uint8)
    y = np.array([rec.is_different_from_control for rec in ordered], dtype=np.uint8)
    return X, y, personas


def chi2_by_dense_tables(records, control_records, size: int, config) -> list:
    """Dense reference for the flags of ``tomography.flag_records``: per
    record, the chi-squared TestResult on the dense 2 x ``size`` table of
    its (advertiser, run)'s pooled control records over the record, or None
    where the table is degenerate."""

    def to_dense(counts):
        dense = np.zeros(size, dtype=float)
        for idx, c in counts.items():
            dense[idx] = c
        return dense

    control_dense = {}
    for rec in control_records:
        key = (rec.advertiser, rec.run)
        control_dense[key] = control_dense.get(key, 0.0) + to_dense(rec.vector)
    out = []
    for rec in records:
        table = np.vstack([control_dense[(rec.advertiser, rec.run)], to_dense(rec.vector)])
        try:
            out.append(chi_square_independence(table, config))
        except DegenerateTableError:
            out.append(None)
    return out


def chi2_by_union_tables(control, vectors, config) -> list:
    """Per-record reference for ``stattest.flags_against``: the
    TestResult of each vector's 2 x V table (control over vector) over the
    union of the two supports, columns ascending, or None where the table is
    degenerate."""
    out = []
    for vector in vectors:
        columns = sorted(control.keys() | vector.keys())
        table = np.array([[control.get(i, 0) for i in columns],
                          [vector.get(i, 0) for i in columns]], dtype=float)
        try:
            out.append(chi_square_independence(table, config))
        except DegenerateTableError:
            out.append(None)
    return out


class AuctionOutcome(NamedTuple):
    winner: str | None
    price: float | None

    @property
    def filled(self) -> bool:
        return self.winner is not None


UNFILLED = AuctionOutcome(None, None)


def _top_bid(bids: Iterable[tuple[str, float]]) -> tuple[str, float] | None:
    best = None
    for advertiser, value in bids:
        if best is None or value > best[1] or (value == best[1] and advertiser < best[0]):
            best = (advertiser, value)
    return best


def auction_rtb(slot: AuctionSlot,
                tiers: Sequence[Sequence[tuple[str, float]]]) -> AuctionOutcome:
    """Waterfall over SSP tiers: the first tier whose max bid >= floor sells,
    first-price, ties to the lowest advertiser id; the impression can go
    unsold even when a later tier holds a higher bid."""
    for tier in tiers:
        for advertiser, value in tier:
            if value < 0:
                raise ValueError(f"negative bid {value} from {advertiser}")
        best = _top_bid(tier)
        if best is not None and best[1] >= slot.floor_price:
            return AuctionOutcome(*best)
    return UNFILLED


def auction_hb(slot: AuctionSlot, bids: Iterable[tuple[str, float, float]],
               timeout: float) -> tuple[AuctionOutcome, list[tuple[str, float]]]:
    """Simultaneous auction among bids arriving within ``timeout``,
    first-price, ties to the lowest advertiser id.

    Returns the outcome plus the recorded on-time bid list (what a browser
    sees under client-side header bidding; callers model server-side HB by
    discarding it).
    """
    if timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    on_time = []
    for advertiser, value, latency in bids:
        if latency < 0:
            raise ValueError(f"negative latency {latency} from {advertiser}")
        if latency <= timeout:
            on_time.append((advertiser, value))
    best = _top_bid(on_time)
    if best is None or best[1] < slot.floor_price:
        return UNFILLED, on_time
    return AuctionOutcome(*best), on_time


def _knows(incoming, visited: frozenset[str], blocked: frozenset[str], draws) -> bool:
    """The knowledge rule over an advertiser's ``incoming`` (tracker, edge)
    pairs and their draws, two per edge (observe, then reliability).  An
    edge (t -> advertiser) fires when the persona does not block t, t
    covers at least one site the persona visited during training, the
    visit is observed (observe draw below observe_prob), and the
    reliability draw is below the edge's reliability."""
    for i, (tracker, edge) in enumerate(incoming):
        if (tracker.id not in blocked and not visited.isdisjoint(tracker.site_coverage)
                and draws[2 * i] < tracker.observe_prob
                and draws[2 * i + 1] < edge.reliability):
            return True
    return False


def knowledge_state(advertiser: str, persona: Persona, world: World,
                    rng: np.random.Generator) -> bool:
    """True iff any sharing edge into the advertiser fires for this persona.

    Two draws are consumed per incoming edge regardless of outcome, so the
    stream position never depends on the blocking configuration.
    """
    if advertiser not in world.advertiser_by_id:
        raise ConfigError(f"unknown advertiser {advertiser!r}")
    if persona.group not in world.group_by_id:
        raise ConfigError(f"unknown group {persona.group!r}")
    incoming = [(world.tracker_by_id[e.tracker], e) for e in world.graph.edges_into(advertiser)]
    return _knows(incoming, world.visited_sites(persona.group), frozenset(persona.blocked),
                  rng.random(2 * len(incoming)).tolist())


def _creative_tokens(length: int, known: bool, source: Sequence[str],
                     rng: np.random.Generator) -> list[str]:
    """``length`` creative tokens drawn from ``source``, the group
    vocabulary when ``known`` and the generic pool otherwise."""
    if not source:
        raise ConfigError("empty vocabulary" if known else "empty generic pool")
    return [source[i] for i in rng.integers(0, len(source), size=length).tolist()]


class AdCreative(NamedTuple):
    advertiser: str
    tokens: tuple[str, ...]
    slot: str
    run: int


def generate_creative(advertiser: str, known: bool, group: InterestGroup,
                      world: World, rng: np.random.Generator, *,
                      slot: str = "", run: int = 0) -> AdCreative:
    """Creative tokens drawn uniformly with replacement from the group
    vocabulary when the advertiser knows the persona's interest, from the
    generic pool otherwise."""
    adv = world.advertiser_by_id.get(advertiser)
    if adv is None:
        raise ConfigError(f"unknown advertiser {advertiser!r}")
    return AdCreative(
        advertiser,
        tuple(_creative_tokens(adv.creative_length, known,
                               group.vocabulary if known else world.generic_pool, rng)),
        slot, run)


def simulate_by_scalar_draws(world, personas, runs: int, seed: int):
    """(ads, requests, bids): the adlog, requestlog and bidlog rows of runs
    0 .. runs - 1, one scalar draw at a time."""
    ads, bids, requests = [], [], []
    advertisers = sorted(world.advertisers, key=lambda a: a.id)
    slots = sorted(world.slots, key=lambda s: s.id)
    for run in range(runs):
        for persona in sorted(personas, key=lambda p: p.id):
            rng = substream(seed, "sim", run, persona.id)
            visited = world.visited_sites(persona.group)
            known = {}
            for a in advertisers:
                known[a.id] = False
                for edge in sorted((e for e in world.graph.edges if e.advertiser == a.id),
                                   key=lambda e: e.tracker):
                    tracker = world.tracker_by_id[edge.tracker]
                    obs, rel = rng.random(), rng.random()
                    if (tracker.id not in persona.blocked
                            and visited & set(tracker.site_coverage)
                            and obs < tracker.observe_prob and rel < edge.reliability):
                        known[a.id] = True
            hops = [(s.website, t.id, f"c:{t.id}", None)
                    for s in slots for t in world.trackers if s.website in t.site_coverage]
            hops += [(src, dst, f"c:{dst}", f"uid:{src}") for src, dst in world.sync_pairs]
            requests += [{"run": run, "persona": persona.id, "chain_position": i,
                          "source_domain": src, "destination_domain": dst,
                          "cookie_sent": cookie, "uid_param": uid}
                         for i, (src, dst, cookie, uid) in enumerate(hops)]
            for slot in slots:
                bid = {}
                for a in advertisers:
                    noise = rng.normal(0.0, a.bid_noise_sd)
                    bid[a.id] = max(0.0, a.base_bid + (a.knowledge_boost if known[a.id] else 0.0)
                                    + noise)
                if slot.mechanism == "rtb_waterfall":
                    tiers = slot.tiers if slot.tiers is not None else ([a.id for a in advertisers],)
                    outcome = auction_rtb(slot, [[(aid, bid[aid]) for aid in t] for t in tiers])
                else:
                    outcome, recorded = auction_hb(slot, [(a.id, bid[a.id], 0.0) for a in advertisers],
                                                   slot.timeout)
                    if slot.mechanism == "hb_client":
                        bids += [{"run": run, "persona": persona.id, "slot": slot.id,
                                  "advertiser": aid, "bid": v} for aid, v in recorded]
                if outcome.filled:
                    winner = world.advertiser_by_id[outcome.winner]
                    source = (world.group_by_id[persona.group].vocabulary if known[winner.id]
                              else world.generic_pool)
                    picks = rng.choice(len(source), size=winner.creative_length, replace=True)
                    ads.append({"run": run, "persona": persona.id, "slot": slot.id,
                                "advertiser": winner.id, "tokens": [source[i] for i in picks]})
    ads.sort(key=lambda r: (r["run"], r["persona"], r["slot"]))
    bids.sort(key=lambda r: (r["run"], r["persona"], r["slot"], r["advertiser"]))
    requests.sort(key=lambda r: (r["run"], r["persona"], r["chain_position"]))
    return ads, requests, bids


@dataclass(frozen=True)
class DeliveredAd:
    """One ``adlog.jsonl`` line: the winning creative plus the persona it was
    shown to."""

    run: int
    persona: str
    slot: str
    advertiser: str
    tokens: tuple[str, ...]


class OutOfCorpusError(KeyError):
    pass


def build_corpus(token_lists: Iterable[Iterable[str]]) -> dict[str, int]:
    """Corpus over the union of all tokens: token -> column, tokens indexed
    lexicographically."""
    vocab = set()
    for tokens in token_lists:
        vocab.update(tokens)
    return {token: i for i, token in enumerate(sorted(vocab))}


def add_tokens(counts: dict[int, int], tokens: Iterable[str],
               corpus: dict[str, int]) -> None:
    """Add one count per token to its column in ``counts``."""
    for token in tokens:
        try:
            idx = corpus[token]
        except KeyError:
            raise OutOfCorpusError(token) from None
        counts[idx] = counts.get(idx, 0) + 1


def vectorize_tokens(tokens: Iterable[str], corpus: dict[str, int]) -> dict[int, int]:
    """Token frequencies over the corpus: column index -> count."""
    counts: dict[int, int] = {}
    add_tokens(counts, tokens, corpus)
    return counts


def collate(adlog: Iterable[DeliveredAd], corpus: dict[str, int], personas: Sequence[str],
            runs: Sequence[int]) -> list[VectorRecord]:
    """Per-ad reference for the vectors of ``tomography.flag_records``: one
    record per (advertiser, persona, run), advertisers sorted, over the
    cross product of the advertisers observed in ``adlog`` with ``personas``
    and ``runs`` in the order given; a cell without an ad gets an empty
    vector."""
    ads = list(adlog)
    advertisers = sorted({a.advertiser for a in ads})
    merged: dict[tuple[str, str, int], dict[int, int]] = {}
    for ad in ads:
        add_tokens(merged.setdefault((ad.advertiser, ad.persona, ad.run), {}), ad.tokens,
                   corpus)
    return [VectorRecord(a, p, r, merged.get((a, p, r), {}))
            for a in advertisers for p in personas for r in runs]


# One encoder for every JSON line: json.dumps with these arguments builds a
# new encoder per call.  The encoder holds no state between calls.
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


def dumps_line(record) -> str:
    return _LINE_ENCODER.encode(record)


def jsonl_lines(records: Iterable) -> Iterator[str]:
    """Each record as one JSON line, newline included: the lines of a
    JSON-lines file."""
    for rec in records:
        yield dumps_line(rec) + "\n"


class RequestLogEntry(NamedTuple):
    run: int
    persona: str
    chain_position: int
    source_domain: str
    destination_domain: str
    cookie_sent: str | None = None
    uid_param: str | None = None


class SyncPair(NamedTuple):
    initiator: str
    receiver: str
    evidence: tuple[tuple[int, str, int], ...]  # (run, persona, chain position)


class SyncReport(NamedTuple):
    pairs: tuple[SyncPair, ...]
    weak_candidates: tuple[SyncPair, ...]


def _owner(value: str | None, prefix: str) -> str | None:
    """Domain that owns a structured identifier, else None (unknown)."""
    if value is not None and value.startswith(prefix):
        return value[len(prefix):]
    return None


def _validate_chains(entries: list[RequestLogEntry], where: str) -> None:
    """ConfigError naming ``where`` and the chain unless every (run,
    persona) chain holds the positions 0 .. n - 1 once each."""
    chains: dict[tuple[int, str], list[int]] = {}
    for e in entries:
        chains.setdefault((e.run, e.persona), []).append(e.chain_position)
    for (run, persona), positions in chains.items():
        if sorted(positions) != list(range(len(positions))):
            raise ConfigError(f"position gaps in chain (run {run}, persona {persona!r})", where)


def detect_cookie_sync(log: Iterable[RequestLogEntry],
                       where: str = "requestlog.jsonl") -> SyncReport:
    """Scan redirect chains for cookie-sync hops; a chain with a gap raises
    ConfigError naming ``where``, the log's file.

    Order-invariant: chains are reconstructed per (run, persona) and read in
    position order regardless of how the log was shuffled.
    """
    entries = sorted(log, key=lambda e: (e.run, e.persona, e.chain_position))
    _validate_chains(entries, where)
    strict: dict[tuple[str, str], list[tuple[int, str, int]]] = {}
    weak: dict[tuple[str, str], list[tuple[int, str, int]]] = {}
    for e in entries:
        if e.cookie_sent is None or e.source_domain == e.destination_domain:
            continue
        cookie_owner = _owner(e.cookie_sent, "c:")
        if cookie_owner is not None and cookie_owner != e.destination_domain:
            continue  # someone else's cookie: not a delivery to its owner
        uid_owner = _owner(e.uid_param, "uid:")
        has_source_uid = e.uid_param is not None and uid_owner in (None, e.source_domain)
        bucket = strict if has_source_uid else weak
        bucket.setdefault((e.source_domain, e.destination_domain), []).append(
            (e.run, e.persona, e.chain_position))

    def as_pairs(found: dict) -> tuple[SyncPair, ...]:
        return tuple(SyncPair(src, dst, tuple(sorted(ev)))
                     for (src, dst), ev in sorted(found.items()))

    return SyncReport(pairs=as_pairs(strict), weak_candidates=as_pairs(weak))


def sync_pairs_document(report: SyncReport) -> dict:
    """``report`` as ``sync_pairs.json`` holds it."""
    def rows(pairs: tuple[SyncPair, ...]) -> list[dict]:
        return [{"initiator": p.initiator, "receiver": p.receiver,
                 "evidence": [list(e) for e in p.evidence]} for p in pairs]

    return {"pairs": rows(report.pairs), "weak_candidates": rows(report.weak_candidates)}


def pair_keys(report: SyncReport) -> set[tuple[str, str]]:
    """The (initiator, receiver) of every detected cookie-sync pair."""
    return {(p.initiator, p.receiver) for p in report.pairs}
