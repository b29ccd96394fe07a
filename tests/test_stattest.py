import math

import numpy as np
import pytest

from adtomo import stattest
from adtomo.special import regularized_gamma_q, regularized_incomplete_beta
from adtomo.stattest import (
    _BAND,
    _BATCH_RECORDS,
    StatConfig,
    StatError,
    chi2_sf,
    critical_bracket,
    flags_against,
    student_t_sf,
    welch_t_test,
)

import oracles
from oracles import DegenerateTableError, chi_square_independence, collapse_low_mass_columns


class TestSpecialFunctions:
    def test_beta_edge_values(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_beta_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.uniform(0.5, 30, size=2)
            x = rng.uniform(0.01, 0.99)
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_beta_uniform_case(self):
        # I_x(1, 1) is the uniform CDF.
        for x in (0.1, 0.25, 0.5, 0.9):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-13)

    def test_gamma_exponential_case(self):
        # Q(1, x) = exp(-x).
        for x in (0.1, 1.0, 5.0, 40.0):
            assert regularized_gamma_q(1.0, x) == pytest.approx(math.exp(-x), rel=1e-12)

    def test_gamma_chi2_even_df(self):
        # For df=4, sf(x) = (1 + x/2) exp(-x/2).
        for x in (0.5, 3.0, 10.0):
            expect = (1 + x / 2) * math.exp(-x / 2)
            assert chi2_sf(x, 4) == pytest.approx(expect, rel=1e-12)


class TestWelch:
    def test_identical_samples(self):
        r = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.statistic == 0.0
        assert r.p_value == 1.0

    def test_separated_samples(self):
        r = welch_t_test([1, 2, 3, 4], [11, 12, 13, 14])
        assert r.p_value < 0.001

    def test_zero_variance_unequal_means(self):
        r = welch_t_test([0.0, 0.0, 0.0], [5.0, 5.0, 5.0])
        assert r.degenerate
        assert r.p_value == 0.0

    def test_zero_variance_equal_means(self):
        r = welch_t_test([2.0, 2.0], [2.0, 2.0, 2.0])
        assert r.degenerate
        assert r.statistic == 0.0
        assert r.p_value == 1.0

    def test_sample_size_guard(self):
        with pytest.raises(StatError):
            welch_t_test([1.0], [1.0, 2.0])

    def test_swap_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(0, 1, rng.integers(2, 12)).tolist()
            b = rng.normal(0.5, 2, rng.integers(2, 12)).tolist()
            r1 = welch_t_test(a, b)
            r2 = welch_t_test(b, a)
            assert r1.p_value == pytest.approx(r2.p_value, abs=1e-15)
            assert r1.statistic == pytest.approx(-r2.statistic, abs=1e-15)

    def test_p_monotone_in_separation(self):
        # Same shapes, growing mean gap: p must fall monotonically.
        base = np.array([0.1, -0.2, 0.4, 0.0, -0.3])
        other = np.array([0.2, -0.1, 0.3, -0.2, 0.1])
        ps = []
        for delta in np.linspace(0.0, 3.0, 13):
            ps.append(welch_t_test(base, other + delta).p_value)
        assert all(ps[i] >= ps[i + 1] for i in range(3, len(ps) - 1))
        assert ps[-1] < ps[0]

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a = rng.normal(0, 1, rng.integers(2, 20)).tolist()
            b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 3),
                           rng.integers(2, 20)).tolist()
            r = welch_t_test(a, b)
            t, df = oracles.welch_statistic(a, b)
            assert r.statistic == pytest.approx(t, abs=1e-9)
            assert r.df == pytest.approx(df, abs=1e-9)
            assert r.p_value == pytest.approx(oracles.t_two_sided_p(t, df), abs=1e-9)


class TestChiSquare:
    def test_identical_rows(self):
        r = chi_square_independence([[10, 10], [10, 10]])
        assert r.statistic == 0.0
        assert r.p_value == 1.0

    def test_hand_computed_example(self):
        # E = 30 in every cell; statistic = 4 * 400/30 = 53.333...
        r = chi_square_independence([[50, 10], [10, 50]])
        assert r.statistic == pytest.approx(53.33, abs=0.01)
        assert r.df == 1.0
        assert r.p_value < 1e-10

    def test_proportional_rows_exact_zero(self):
        r = chi_square_independence([[5, 10, 15], [15, 30, 45]])
        assert r.statistic == 0.0
        assert r.p_value == 1.0

    def test_column_order_invariance(self):
        rng = np.random.default_rng(3)
        table = rng.integers(0, 40, size=(2, 8))
        r1 = chi_square_independence(table)
        perm = rng.permutation(8)
        r2 = chi_square_independence(table[:, perm])
        assert r1.statistic == pytest.approx(r2.statistic, abs=1e-9)
        assert r1.df == r2.df

    def test_collapsing_folds_small_columns(self):
        table = np.array([[10.0, 1.0, 1.0, 1.0], [10.0, 1.0, 0.0, 1.0]])
        collapsed = collapse_low_mass_columns(table, 5.0)
        assert collapsed.shape == (2, 2)
        assert collapsed[:, 1].tolist() == [3.0, 2.0]  # residual keeps the mass

    def test_zero_total_columns_vanish(self):
        table = np.array([[10.0, 0.0, 8.0], [9.0, 0.0, 11.0]])
        collapsed = collapse_low_mass_columns(table, 5.0)
        assert collapsed.shape == (2, 2)

    def test_all_zero_table_raises(self):
        with pytest.raises(DegenerateTableError):
            chi_square_independence([[0, 0], [0, 0]])

    def test_zero_row_is_trivially_independent(self):
        # A row with no mass is proportional to anything: statistic 0, p 1.
        r = chi_square_independence([[0, 0], [10, 10]])
        assert r.statistic == 0.0
        assert r.p_value == 1.0

    def test_insufficient_columns_raises(self):
        with pytest.raises(DegenerateTableError):
            chi_square_independence([[1, 1, 1], [1, 0, 0]], StatConfig(min_expected=5))

    def test_against_oracle_with_collapsing(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            v = int(rng.integers(3, 15))
            table = rng.integers(0, 25, size=(2, v)).astype(float)
            cfg = StatConfig(min_expected=5)
            try:
                r = chi_square_independence(table, cfg)
            except DegenerateTableError:
                continue
            stat, df = oracles.chi2_statistic_collapsed(table.tolist(), 5)
            assert r.statistic == pytest.approx(stat, abs=1e-9)
            assert r.df == df
            assert r.p_value == pytest.approx(oracles.chi2_sf(stat, df), abs=1e-9)

    def test_type_i_rate_calibrated(self):
        # Control-vs-control resampling: flag rate must stay near alpha.
        rng = np.random.default_rng(5)
        p = np.full(30, 1 / 30)
        flagged = 0
        n_tables = 1000
        for _ in range(n_tables):
            a = rng.multinomial(900, p)
            b = rng.multinomial(120, p)
            r = chi_square_independence(np.vstack([a, b]).astype(float))
            flagged += r.p_value < 0.05
        assert flagged / n_tables <= 0.05 + 0.03


def random_group(rng, n, columns=40):
    """A pooled control and ``n`` record vectors over ``columns`` columns:
    a mix of empty, all-low-mass, control-like and heavy records, where the
    heavy ones put large counts on columns outside the control's support."""
    def draw(max_support, low, high, pool):
        support = rng.choice(pool, size=min(int(rng.integers(0, max_support + 1)), pool.size),
                             replace=False)
        return {int(i): int(rng.integers(low, high)) for i in support}

    everything = np.arange(columns)
    control = {} if rng.random() < 0.15 else draw(25, 1, 30, everything)
    outside = np.setdiff1d(everything, list(control))
    vectors = []
    for _ in range(n):
        kind = rng.integers(4)
        if kind == 0:
            vectors.append({})
        elif kind == 1:
            vectors.append(draw(8, 1, 3, everything))
        elif kind == 2:
            vectors.append(draw(20, 1, 12, everything))
        else:
            heavy = draw(4, 8, 40, outside) if outside.size else {}
            vectors.append({**draw(10, 1, 12, everything), **heavy})
    return control, vectors


def assert_flags_match_oracle(control, vectors, min_expected):
    """``flags_against`` equals the per-record oracle's ``p < alpha`` at
    alpha 0.05, at 0.01 and at one tested record's own oracle p-value, which
    puts that record's statistic inside the band.  Returns the oracle's
    results and that record's index (None when no record has 0 < p < 1)."""
    expected = oracles.chi2_by_union_tables(control, vectors,
                                            StatConfig(min_expected=min_expected))
    inner = [i for i, r in enumerate(expected) if r is not None and 0 < r.p_value < 1]
    own = inner[len(inner) // 2] if inner else None
    alphas = [0.05, 0.01] + ([] if own is None else [expected[own].p_value])
    for alpha in alphas:
        got = flags_against(control, vectors, StatConfig(alpha=alpha, min_expected=min_expected))
        assert got == [r is not None and r.p_value < alpha for r in expected], alpha
    return expected, own


class TestChiSquareAgainst:
    """The chi-squared test of many records against one shared control, as
    ``flags_against`` decides it, checked against the per-record oracle."""

    def test_randomized_groups_match_per_record_tables(self):
        rng = np.random.default_rng(31)
        seen = {"degenerate": 0, "outside_kept": 0, "empty_control_tested": 0}
        for trial in range(60):
            n = int(rng.integers(1, 301))
            control, vectors = random_group(rng, n)
            min_expected = float([1, 5, 12][trial % 3])
            expected, _ = assert_flags_match_oracle(control, vectors, min_expected)
            for vector, result in zip(vectors, expected):
                seen["degenerate"] += result is None
                if result is not None:
                    seen["outside_kept"] += any(
                        c >= min_expected for i, c in vector.items() if i not in control)
                    seen["empty_control_tested"] += not control
        assert all(seen.values()), seen

    @pytest.mark.parametrize("n", sorted({1, _BATCH_RECORDS - 1, _BATCH_RECORDS,
                                          _BATCH_RECORDS + 1, 2 * _BATCH_RECORDS + 3, 300}))
    def test_group_sizes_around_batch_cap(self, n):
        rng = np.random.default_rng(n)
        control, vectors = random_group(rng, n)
        assert len(flags_against(control, vectors)) == n
        assert_flags_match_oracle(control, vectors, 5.0)

    @pytest.mark.parametrize("control", [{0: 30, 1: 2, 3: 40}, {}], ids=["control", "empty_control"])
    def test_mixed_group_edge_cases(self, control):
        vectors = [
            {},                           # no mass of its own
            {0: 1, 2: 1, 9: 2},           # all low-mass
            {0: 9, 1: 9},                 # testable against either control
            {7: 6, 8: 5, 2: 1},           # kept columns outside the control support
            {4: 2, 5: 2, 6: 2, 0: 12},    # out-of-block columns only in the residual
            {},
        ]
        expected, _ = assert_flags_match_oracle(control, vectors, 5.0)
        # An empty record against a control is a zero row: statistic 0, p 1.
        assert expected[0] == expected[5] and (expected[0] is None) == (not control)
        if control:
            assert (expected[0].statistic, expected[0].p_value) == (0.0, 1.0)
        assert expected[2] is not None and expected[3] is not None

    def test_no_vectors(self):
        assert flags_against({0: 5}, []) == []

    @pytest.mark.parametrize("control, vector", [({0: 5, 1: -1}, {0: 5}),
                                                 ({0: 5}, {0: 5, 2: -3})])
    def test_negative_counts_rejected(self, control, vector):
        with pytest.raises(StatError, match="non-negative"):
            flags_against(control, [{0: 1}, vector])


class TestFlagsAgainst:
    @pytest.mark.parametrize("alpha", [0.05, 0.01])
    def test_randomized_groups_match_chi_square_against(self, alpha, monkeypatch):
        # The reference is one chi_square_independence call per record.  At
        # a record's own p-value, chi2_sf decides that record from its exact
        # statistic: real tables reach the band, not only planted cells.
        calls = []

        def spy(x, k):
            calls.append((x, k))
            return chi2_sf(x, k)

        monkeypatch.setattr(stattest, "chi2_sf", spy)
        rng = np.random.default_rng(31)
        flagged = tested = 0
        for trial in range(60):
            control, vectors = random_group(rng, int(rng.integers(1, 301)))
            calls.clear()
            expected, own = assert_flags_match_oracle(control, vectors,
                                                      float([1, 5, 12][trial % 3]))
            if own is not None:
                assert (expected[own].statistic, expected[own].df) in calls
            flagged += sum(r is not None and r.p_value < alpha for r in expected)
            tested += sum(r is not None for r in expected)
        assert 0 < flagged < tested

    @pytest.mark.parametrize("alpha", [0.05, 0.01])
    def test_bracket_holds_for_df_1_to_400(self, alpha):
        for df in range(1, 401):
            lo, hi = critical_bracket(df, alpha)
            assert lo < hi and hi - lo <= 1e-12 * hi
            assert chi2_sf(lo, df) >= alpha > chi2_sf(hi, df)
            # chi2_sf keeps the same side of alpha just outside the band.
            assert chi2_sf(lo * (1 - _BAND), df) >= alpha
            assert chi2_sf(hi * (1 + _BAND), df) < alpha

    @pytest.mark.parametrize("alpha", [0.05, 0.01])
    def test_planted_statistics_take_their_path(self, alpha, monkeypatch):
        df = 2
        lo, hi = critical_bracket(df, alpha)
        # (statistic, flag, decided by chi2_sf), each planted as the first of
        # a (df + 1)-column table's 2 (df + 1) cells.
        planted = [
            (lo * (1 - 2 * _BAND), False, False),
            (lo, False, True),
            (0.5 * (lo + hi), chi2_sf(0.5 * (lo + hi), df) < alpha, True),
            (hi, True, True),
            (hi * (1 + 2 * _BAND), True, False),
            (0.0, False, False),
            (10 * hi, True, False),
        ]
        records = [None, *planted[:2], None, *planted[2:]]  # None: a degenerate table
        n_cols = np.array([0 if r is None else df + 1 for r in records])
        contrib = np.concatenate([[stat] + [0.0] * (2 * df + 1) for stat, _, _ in planted])
        calls = []

        def spy(x, k):
            calls.append((x, k))
            return chi2_sf(x, k)

        monkeypatch.setattr(stattest, "chi2_sf", spy)
        got = stattest._flags_from_cells(contrib, n_cols, alpha)
        assert got == [r is not None and r[1] for r in records]
        assert calls == [(stat, float(df)) for stat, _, exact in planted if exact]


def test_t_sf_basic_values():
    # df=1 is a Cauchy: sf(1) = 1/4.
    assert student_t_sf(1.0, 1.0) == pytest.approx(0.25, abs=1e-12)
    assert student_t_sf(0.0, 7.0) == pytest.approx(0.5, abs=1e-12)
