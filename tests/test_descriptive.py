import warnings

import numpy as np
import pytest
import scipy.stats

from retailrisk.dataset import (
    NUMERIC_COLUMNS,
    RATIO_PRECISIONS,
    DataValidationError,
    Dataset,
    embedded_dataset,
    parse_dataset,
)
from retailrisk.descriptive import (
    CORRELATION_COLUMNS,
    SUMMARY_COLUMNS,
    DegenerateDataError,
    correlation_matrix,
    describe,
    mean_std,
    pearson_corr,
    shapiro_wilk,
)

from _one_series import (assert_correlations_keep_each_pair, assert_describe_keeps_each_column,
                         one_pair_r)
from _panel import panel_csv


class TestMeanStd:
    def test_constant_series(self):
        assert mean_std([5.0, 5.0, 5.0]) == (5.0, 0.0)

    def test_revenue_column(self):
        mean, std = mean_std(embedded_dataset().column("revenue"))
        assert mean == pytest.approx(16854.81, abs=0.01)
        assert std == pytest.approx(8105.03, abs=0.01)

    def test_acsi_column(self):
        mean, std = mean_std(embedded_dataset().column("acsi"))
        assert mean == pytest.approx(76.31, abs=0.01)
        assert std == pytest.approx(3.11, abs=0.01)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(25) * 7 + 2
        mean, std = mean_std(x)
        mean_shift, std_shift = mean_std(x + 13.25)
        assert mean_shift == pytest.approx(mean + 13.25, abs=1e-10)
        assert std_shift == pytest.approx(std, abs=1e-10)

    @pytest.mark.parametrize("exponent", [-1000, -540, 500, 1000, 1008])
    def test_any_power_of_two_unit_gives_the_scaled_summary(self, exponent):
        # Taken on the series scaled to peak near 1, the mean and SD are the
        # unit ones times 2^exponent, bit for bit, where the raw squares
        # would underflow (2^-540) or overflow (2^500 and up).
        revenue = embedded_dataset().column("revenue")
        mean, std = mean_std(np.ldexp(revenue, exponent))
        assert (mean, std) == tuple(np.ldexp(mean_std(revenue), exponent).tolist())

    def test_too_short(self):
        with pytest.raises(DegenerateDataError):
            mean_std([1.0])


class TestShapiroWilk:
    def test_matches_scipy_on_every_dataset_column(self):
        # scipy.stats.shapiro is the independent reference implementation.
        ds = embedded_dataset()
        for name in SUMMARY_COLUMNS:
            values = ds.column(name)
            w, p = shapiro_wilk(values)
            ref = scipy.stats.shapiro(values)
            assert w == pytest.approx(ref.statistic, abs=1e-6), name
            assert p == pytest.approx(ref.pvalue, abs=1e-6), name

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 11, 12, 20, 32, 50, 200])
    def test_matches_scipy_across_sample_sizes(self, n):
        rng = np.random.default_rng(n)
        for values in (rng.standard_normal(n), rng.exponential(size=n)):
            w, p = shapiro_wilk(values)
            ref = scipy.stats.shapiro(values)
            assert w == pytest.approx(ref.statistic, abs=1e-6)
            assert p == pytest.approx(ref.pvalue, abs=1e-6)

    def test_acsi_reference_values(self):
        w, p = shapiro_wilk(embedded_dataset().column("acsi"))
        assert w == pytest.approx(0.959, abs=0.005)
        assert p == pytest.approx(0.257, abs=0.02)

    def test_pandemic_reference_values(self):
        w, p = shapiro_wilk(embedded_dataset().column("pandemic"))
        assert w == pytest.approx(0.512, abs=0.005)
        assert p < 0.001

    def test_normal_quantiles_score_near_one(self):
        # The weights are built from these quantiles, so W must be ~1.
        n = 32
        quantiles = scipy.stats.norm.ppf((np.arange(1, n + 1) - 0.375) / (n + 0.25))
        w, _ = shapiro_wilk(quantiles)
        assert w >= 0.99

    def test_affine_invariance(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(30)
        w, _ = shapiro_wilk(x)
        w_scaled, _ = shapiro_wilk(3.7 * x + 11.0)
        assert w_scaled == pytest.approx(w, abs=1e-10)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 2.0 ** -1000, 1e154, 1e300])
    def test_any_unit_gives_the_same_test(self, scale):
        # At 1e-160 the squares underflow and at 1e154 their sum overflows,
        # unless the series is first brought near 1; a power of two is exact.
        revenue = embedded_dataset().column("revenue")
        expected = shapiro_wilk(revenue)
        got = shapiro_wilk(revenue * scale)
        assert got == (expected if scale == 2.0 ** -1000 else pytest.approx(expected, rel=1e-13))

    def test_rejects_bad_sizes_and_constant_input(self):
        with pytest.raises(DegenerateDataError):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(DegenerateDataError):
            shapiro_wilk(np.zeros(5001))
        with pytest.raises(DegenerateDataError):
            shapiro_wilk([2.0, 2.0, 2.0, 2.0])


class TestPearson:
    def test_self_correlation(self):
        x = np.array([1.0, 4.0, 2.0, 8.0])
        assert pearson_corr(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_fail_vs_ebitda_ratio(self):
        ds = embedded_dataset()
        r = pearson_corr(ds.column("fail"), ds.column("ebitda_over_rev"))
        assert r == pytest.approx(-0.73, abs=0.005)

    def test_year_vs_pandemic(self):
        ds = embedded_dataset()
        r = pearson_corr(ds.column("year"), ds.column("pandemic"))
        assert r == pytest.approx(0.75, abs=0.005)

    def test_fail_vs_sga_ratio_printed_precision(self):
        ds = embedded_dataset(ratio_precision="printed")
        r = pearson_corr(ds.column("fail"), ds.column("sga_over_rev"))
        assert r == pytest.approx(0.50, abs=0.005)

    def test_matches_numpy(self):
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal(40), rng.standard_normal(40)
        assert pearson_corr(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)

    @pytest.mark.parametrize("sx,sy", [(1e-160, 1.0), (1e-160, 1e-160), (1e150, 1e150),
                                       (1e150, 1.0), (1e-160, 1e150)])
    def test_extreme_scales(self, sx, sy):
        # sxx * syy under- or overflows here; the result must not.
        rng = np.random.default_rng(6)
        x = rng.standard_normal(32)
        y = x + rng.standard_normal(32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = pearson_corr(x * sx, y * sy)
        assert r == pytest.approx(pearson_corr(x, y), abs=1e-14)

    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
    def test_random_pairs_keep_the_one_pair_bits(self, scale):
        # Lengths from 2 to 5,000 and each series in its own unit, offset
        # from zero, so the scaling and the centring both change the bits.
        rng = np.random.default_rng(8)
        for n in np.geomspace(2, 5000, 40).astype(int):
            x = (rng.standard_normal(n) + rng.normal(scale=3)) * scale
            y = (0.4 * x / scale + rng.standard_normal(n)) * scale * 10.0 ** rng.uniform(-5, 5)
            assert pearson_corr(x, y).hex() == one_pair_r(x, y).hex(), n

    @pytest.mark.parametrize("source", ["full", "printed", "panel"])
    def test_embedded_correlations_keep_their_bits(self, source):
        """Each cell is the two-pass arithmetic on its own pair, on the
        embedded data in both ratio modes and on a 1,508-row panel."""
        assert_correlations_keep_each_pair(_source(source))

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateDataError):
            pearson_corr([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateDataError):
            pearson_corr([1.0, 2.0], [1.0, 2.0, 3.0])


class TestCorrelationMatrix:
    def test_default_columns(self):
        matrix = correlation_matrix(embedded_dataset())
        assert matrix.labels == CORRELATION_COLUMNS
        assert matrix.r.shape == (16, 16)

    def test_exact_symmetry_and_unit_diagonal(self):
        for precision in ("full", "printed"):
            matrix = correlation_matrix(embedded_dataset(ratio_precision=precision))
            assert np.array_equal(matrix.r, matrix.r.T)
            assert np.array_equal(np.diag(matrix.r), np.ones(16))
            assert np.all(np.abs(matrix.r) <= 1.0 + 1e-12)

    def test_constant_column_propagates_error(self):
        text_rows = [
            "A,2015,0,100,70,20,5,10,2,1.5,30,0,75",
            "A,2016,1,100,70,20,5,10,2,1.5,30,0,75",
        ]
        from retailrisk.dataset import CSV_HEADER, parse_dataset

        ds = parse_dataset(",".join(CSV_HEADER) + "\n" + "\n".join(text_rows) + "\n")
        with pytest.raises(DegenerateDataError, match="zero-variance"):
            correlation_matrix(ds)
        one_row = parse_dataset(",".join(CSV_HEADER) + "\n" + text_rows[1] + "\n")
        with pytest.raises(DegenerateDataError, match="equal length >= 2"):
            correlation_matrix(one_row)


#: Seeds of 275-chain panels: 1,508 rows for seed 3, and for seed 22 a
#: panel where squaring W's numerator as an array, not by the scalar ``**``,
#: moves a bit.
PANEL_SEEDS = {"panel": 3, "panel-seed22": 22}


def _source(source):
    """The embedded data in a ratio mode, or a panel of PANEL_SEEDS."""
    if source in RATIO_PRECISIONS:
        return embedded_dataset(ratio_precision=source)
    return parse_dataset(panel_csv(seed=PANEL_SEEDS[source], chains=275))


def _embedded_with(rows=None, **changes):
    """The embedded data with each named column replaced by the value
    ``changes[name](column)``, cut to its first ``rows`` rows; None where
    the constructor refuses it."""
    ds = embedded_dataset()
    table = np.array([ds.column(name) for name in NUMERIC_COLUMNS])
    for name, change in changes.items():
        with np.errstate(over="ignore"):
            table[NUMERIC_COLUMNS.index(name)] = change(table[NUMERIC_COLUMNS.index(name)])
    try:
        return Dataset(ds.column("chain")[:rows], table[:, :rows])
    except DataValidationError:
        return None


#: The numeric columns that a unit may scale: all but the year and the two flags.
SCALABLE = tuple(name for name in NUMERIC_COLUMNS if name not in ("year", "fail", "pandemic"))


class TestWholeTablePasses:
    """describe() and correlation_matrix() run each over one table of all
    their columns; every value keeps the bits of the one-series functions."""

    @pytest.mark.parametrize("source", ["full", "printed", *PANEL_SEEDS])
    def test_summaries_keep_each_column_bits(self, source):
        assert_describe_keeps_each_column(_source(source))

    @pytest.mark.parametrize("name", SCALABLE)
    def test_every_unit_keeps_each_series_bits(self, name):
        """One column x10^k for every fifth k from -320 to 313: the sums of
        squares and their products under- and overflow, which takes the
        rescale branches. Only the columns the scale changed are compared."""
        base = embedded_dataset()
        checked = 0
        for k in range(-320, 314, 5):
            ds = _embedded_with(**{name: lambda x: x * float(f"1e{k}")})
            if ds is None:
                continue
            changed = {column for column in CORRELATION_COLUMNS + SUMMARY_COLUMNS
                       if not np.array_equal(ds.column(column), base.column(column))}
            assert_describe_keeps_each_column(ds, [c for c in SUMMARY_COLUMNS if c in changed])
            assert_correlations_keep_each_pair(ds, changed)
            checked += 1
        assert checked >= 60

    @pytest.mark.parametrize("rows", [1, 2, 3, 4])
    def test_shortest_series(self, rows):
        ds = _embedded_with(rows=rows)
        assert ds.n == rows
        assert_describe_keeps_each_column(ds)
        assert_correlations_keep_each_pair(ds)


class TestDescribeErrorOrder:
    """Every column has the dataset's n, so a size error names the first
    column; a constant column is named in SUMMARY_COLUMNS order."""

    def test_one_row(self):
        with pytest.raises(DegenerateDataError) as refused:
            describe(_embedded_with(rows=1))
        assert str(refused.value) == "revenue: need a 1-d series of length >= 2"

    def test_more_rows_than_shapiro_wilk_takes(self):
        lines = panel_csv(seed=5, chains=1000).splitlines(keepends=True)
        ds = parse_dataset("".join(lines[:5002]))
        assert ds.n == 5001
        with pytest.raises(DegenerateDataError) as refused:
            describe(ds)
        assert str(refused.value) == "revenue: Shapiro-Wilk requires 3 <= n <= 5000, got 5001"

    def test_the_first_constant_column_is_named(self):
        ds = _embedded_with(pandemic=np.zeros_like, stores=lambda x: np.full_like(x, 100.0))
        with pytest.raises(DegenerateDataError) as refused:
            describe(ds)
        assert str(refused.value) == "stores: Shapiro-Wilk is undefined for a constant series"


def test_describe_covers_all_summary_columns():
    rows = describe(embedded_dataset())
    assert [r.name for r in rows] == list(SUMMARY_COLUMNS)
    for row in rows:
        assert row.std >= 0
        assert 0 < row.sw_w <= 1
        assert 0 <= row.sw_p <= 1
