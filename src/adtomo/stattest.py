"""Statistical tests behind change flagging and the similarity analysis.

Provides the unequal-variance (Welch) two-sample t-test and the
chi-squared test of independence over 2 x V count tables that change
flagging runs.  A table's columns whose total count falls below
``min_expected`` are folded into one trailing residual column first, and
df = V' - 1 over the V' surviving columns; an all-zero table, or one left
with fewer than two columns, is degenerate and supports no test.  All tests
are two-sided; reports emitted by the pipeline record that choice.  The
test of one table is the reference ``chi_square_independence`` in
``tests/oracles.py``.

``flags_against`` decides, for many sparse count vectors against one shared
control row, whether each vector's table (control over vector) differs at
``alpha``, as change flagging needs for every record of an (advertiser,
run).  It works on one dense block per batch of records.  The block's
columns are the control's support plus every column some record fills to
``min_expected`` on its own.  Any other column has control count 0 and a
record count below ``min_expected`` for every record, so it is folded into
the residual in every record's table; its counts go straight into the
record's residual.  All counts are integers held exactly in float64, so
totals and residuals do not depend on summation order, and the per-cell
expressions are those of the one-table test, laid out in its order.

Per df, ``critical_bracket`` bisects ``chi2_sf`` once for ``lo < hi`` with
``chi2_sf(lo) >= alpha > chi2_sf(hi)``.  Each record's statistic comes from
one ``np.add.reduceat`` over the block's cells: below ``lo`` by more than a
relative 1e-9 it is not flagged, above ``hi`` by more it is, and only a
statistic in between gets one pairwise sum over its cells, bit-identical to
``chi_square_independence``'s, and a ``chi2_sf`` call.  So each flag is the
one a ``chi_square_independence`` call on the record's own table gives.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .config import StatConfig
from .errors import StatError
from .special import regularized_gamma_q, regularized_incomplete_beta


class TestResult(NamedTuple):
    statistic: float
    df: float
    p_value: float
    degenerate: bool = False


def student_t_sf(t: float, df: float) -> float:
    """Upper-tail P(T > t) of Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        raise StatError(f"df must be positive, got {df}")
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    x = df / (df + t * t)
    p = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    if t < 0:
        p = 1.0 - p
    return min(max(p, 0.0), 1.0)


def chi2_sf(x: float, df: float) -> float:
    """Upper-tail P(X > x) of the chi-squared distribution."""
    if df <= 0:
        raise StatError(f"df must be positive, got {df}")
    if x <= 0:
        return 1.0
    return min(max(regularized_gamma_q(df / 2.0, x / 2.0), 0.0), 1.0)


def welch_t_test(sample_a: Sequence[float], sample_b: Sequence[float]) -> TestResult:
    """Two-sided Welch t-test.

    Degenerate cases (both sample variances zero) return p=1 for equal means
    and p=0 for unequal means, with ``degenerate`` set and df reported as 0.
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise StatError("each sample needs at least 2 elements")
    ma, mb = float(a.mean()), float(b.mean())
    va, vb = float(a.var(ddof=1)), float(b.var(ddof=1))
    na, nb = a.size, b.size
    if va == 0.0 and vb == 0.0:
        if ma == mb:
            return TestResult(0.0, 0.0, 1.0, degenerate=True)
        return TestResult(math.copysign(math.inf, ma - mb), 0.0, 0.0, degenerate=True)
    qa, qb = va / na, vb / nb
    t = (ma - mb) / math.sqrt(qa + qb)
    df = (qa + qb) ** 2 / (qa * qa / (na - 1) + qb * qb / (nb - 1))
    p = min(1.0, 2.0 * student_t_sf(abs(t), df))
    return TestResult(t, df, p)


# Records per batch in flags_against: bounds a batch's memory (records x 2 x
# columns floats) whatever the group size.
_BATCH_RECORDS = 64


def flags_against(control: Mapping[int, int], vectors: Sequence[Mapping[int, int]],
                  config: StatConfig = StatConfig()) -> list[bool]:
    """Per sparse count vector (column -> count), in input order, whether
    ``chi_square_independence`` of its 2 x V table (control over vector)
    gives ``p < config.alpha``; False where the table is degenerate.
    Columns both rows leave at zero are left out, which changes nothing:
    they have no mass to keep.  The flags are decided from critical values:
    a record's statistic is compared with its df's bracket from
    ``critical_bracket``, and only a statistic within ``_BAND`` of the
    bracket gets its exact sum and a ``chi2_sf`` call."""
    return [flag for start in range(0, len(vectors), _BATCH_RECORDS)
            for flag in _flags_from_cells(
                *_block_cells(control, vectors[start:start + _BATCH_RECORDS],
                              config.min_expected), config.alpha)]


@lru_cache(maxsize=None)
def critical_bracket(df: int, alpha: float) -> tuple[float, float]:
    """(lo, hi) with lo < hi and chi2_sf(lo, df) >= alpha > chi2_sf(hi, df),
    hi - lo at most 1e-12 hi, bisected on ``chi2_sf`` itself."""
    lo, hi = 0.0, float(df)
    while chi2_sf(hi, df) >= alpha:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if chi2_sf(mid, df) >= alpha:
            lo = mid
        else:
            hi = mid
    return lo, hi


# Relative margin around a bracket.  A record's cells are non-negative, so
# any two summation orders of its 2k cells agree within a relative 2k * 2^-52:
# below 1e-9 for any table under 10^6 columns.  A statistic summed one way
# and below lo * (1 - _BAND) is below lo summed the other way, and one above
# hi * (1 + _BAND) is above hi.
_BAND = 1e-9


def _flags_from_cells(contrib: np.ndarray, n_cols: np.ndarray, alpha: float) -> list[bool]:
    """Per record, whether its p-value is below ``alpha``; ``contrib`` and
    ``n_cols`` as ``_block_cells`` returns them."""
    flags = np.zeros(n_cols.size, dtype=bool)
    tested = np.flatnonzero(n_cols)
    if tested.size == 0:
        return flags.tolist()
    k = n_cols[tested]
    ends = np.cumsum(2 * k)
    starts = ends - 2 * k
    statistic = np.add.reduceat(contrib, starts)
    lo, hi = np.empty(k.max() + 1), np.empty(k.max() + 1)
    for cols in set(k.tolist()):
        lo[cols], hi[cols] = critical_bracket(cols - 1, alpha)
    above = statistic > hi[k] * (1.0 + _BAND)
    band = ~above & (statistic >= lo[k] * (1.0 - _BAND))
    for i in np.flatnonzero(band).tolist():
        exact = float(contrib[starts[i]:ends[i]].sum())
        above[i] = chi2_sf(exact, float(k[i] - 1)) < alpha
    flags[tested] = above
    return flags.tolist()


def _block_cells(control: Mapping[int, int], vectors: Sequence[Mapping[int, int]],
                 min_expected: float) -> tuple[np.ndarray, np.ndarray]:
    """(contrib, n_cols): per record, its table's effective column count,
    0 where the table is degenerate, and the per-cell chi-squared terms of
    every testable record, 2 * n_cols of them each, in record order."""
    n = len(vectors)
    sizes = [len(v) for v in vectors]
    ctrl_cols = np.fromiter(control.keys(), dtype=np.int64, count=len(control))
    ctrl_counts = np.fromiter(control.values(), dtype=float, count=len(control))
    cols = np.fromiter(chain.from_iterable(vectors), dtype=np.int64, count=sum(sizes))
    counts = np.fromiter(chain.from_iterable(v.values() for v in vectors), dtype=float,
                         count=cols.size)
    if (ctrl_counts < 0).any() or (counts < 0).any():
        raise StatError("counts must be non-negative")
    owner = np.repeat(np.arange(n), sizes)
    # Sorted in Python: np.union1d and np.unique import numpy.ma on first use,
    # about 14 ms that every CLI process running the flag stage would pay.
    block = np.array(sorted(control.keys() | set(cols[counts >= min_expected].tolist())),
                     dtype=np.int64)
    width = block.size
    inside = np.isin(cols, block)

    # obs[r, 0] is the control row and obs[r, 1] record r's row of its table,
    # with the residual in the last column.
    obs = np.zeros((n, 2, width + 1))
    obs[:, 0, np.searchsorted(block, ctrl_cols)] = ctrl_counts
    obs[owner[inside], 1, np.searchsorted(block, cols[inside])] = counts[inside]
    col_totals = np.empty((n, width + 1))
    col_totals[:, :width] = obs[:, 0, :width] + obs[:, 1, :width]
    keep = col_totals[:, :width] >= min_expected
    obs[:, :, width] = np.where(keep[:, None, :], 0.0, obs[:, :, :width]).sum(axis=2)
    obs[:, 1, width] += np.bincount(owner[~inside], weights=counts[~inside], minlength=n)
    col_totals[:, width] = obs[:, :, width].sum(axis=1)
    row_totals = np.empty((n, 2))
    row_totals[:, 0] = ctrl_counts.sum()
    row_totals[:, 1] = np.bincount(owner, weights=counts, minlength=n)
    total = row_totals.sum(axis=1)
    has_residual = col_totals[:, width] > 0
    n_cols = keep.sum(axis=1) + has_residual
    testable = (total > 0) & (n_cols >= 2)

    # Each testable record's cells in chi_square_independence's order: kept
    # control cells, control residual, kept record cells, record residual.
    cells = np.zeros((n, 2, width + 1), dtype=bool)
    cells[:, :, :width] = keep[:, None, :]
    cells[:, :, width] = has_residual[:, None]
    cells[~testable] = False
    observed = obs[cells]
    expected = (row_totals[:, :, None] * col_totals[:, None, :])[cells] / np.repeat(
        total[testable], 2 * n_cols[testable])
    with np.errstate(divide="ignore", invalid="ignore"):
        contrib = (observed - expected) ** 2 / expected
    contrib[expected == 0.0] = 0.0  # zero row: O == E == 0
    return contrib, np.where(testable, n_cols, 0)
