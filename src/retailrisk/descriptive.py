"""Descriptive statistics: means, sample SDs, Shapiro-Wilk tests, correlations.

The Shapiro-Wilk test is the Royston (1995) approximation (Applied Statistics
algorithm R94): polynomial-corrected weights from expected normal order
statistics at ranks (i - 0.375)/(n + 0.25), with a normalizing transform of W
for the p-value. Valid for 3 <= n <= 5000.

Every statistic is taken on series scaled by powers of two
(``linalg.binary_exponents``): W and the correlations are unit-free, and the
means and SDs are scaled back, so only an SD beyond the float range is inf (NA).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dataset import Dataset
from .distributions import norm_ppf, norm_sf
from .errors import DegenerateDataError
from .linalg import binary_exponents

#: Column order of the descriptive-summary table.
SUMMARY_COLUMNS = (
    "revenue",
    "sga",
    "cost_of_revenue",
    "ebitda",
    "stores",
    "us_interest_rate",
    "us_inflation_rate",
    "acsi",
    "long_term_debt",
    "pandemic",
    "sga_over_rev",
    "cor_over_rev",
    "ebitda_over_rev",
    "ltd_over_rev",
)

#: Column order of the full correlation matrix.
CORRELATION_COLUMNS = (
    "year",
    "fail",
    "revenue",
    "cost_of_revenue",
    "sga",
    "ebitda",
    "stores",
    "us_interest_rate",
    "us_inflation_rate",
    "sga_over_rev",
    "cor_over_rev",
    "long_term_debt",
    "ebitda_over_rev",
    "ltd_over_rev",
    "pandemic",
    "acsi",
)


@dataclass(frozen=True)
class ColumnSummary:
    name: str
    mean: float
    std: float
    sw_w: float
    sw_p: float


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    labels: tuple[str, ...]
    r: np.ndarray


_SHORT_SERIES = "need a 1-d series of length >= 2"
_CONSTANT_SERIES = "Shapiro-Wilk is undefined for a constant series"
_SHORT_PAIR = "need two 1-d series of equal length >= 2"
_ZERO_VARIANCE = "correlation is undefined for a zero-variance series"


def mean_std(series) -> tuple[float, float]:
    """Arithmetic mean and sample standard deviation (n-1 divisor)."""
    x = np.array(series, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise DegenerateDataError(_SHORT_SERIES)
    (mean,), (std,) = _scaled_mean_std(x[None])
    return mean, std


def _scaled_mean_std(table: np.ndarray) -> tuple[list[float], list[float]]:
    """Mean and sample SD of each row of a (k, n) table, n >= 2, taken on
    the row scaled to peak in [0.5, 1) and scaled back: the raw-unit bits
    wherever those stay in the normal range, and finite for every finite
    row whose SD is a float. The table is left scaled."""
    e = binary_exponents(table, 1)
    # A non-finite row keeps its exponent 0 and gives inf or NaN, printed NA,
    # as does an SD beyond the float range.
    with np.errstate(over="ignore", invalid="ignore"):
        np.ldexp(table, -e, out=table)
        e = e[:, 0]
        return (np.ldexp(table.mean(axis=1), e).tolist(),
                np.ldexp(table.std(axis=1, ddof=1), e).tolist())


# Royston (1995) polynomial coefficients, ascending powers.
_C1 = (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_SMALL_N_MU = (0.5440, -0.39978, 0.025054, -0.0006714)
_SMALL_N_LOG_SIGMA = (1.3822, -0.77857, 0.062767, -0.0020322)
_LARGE_N_MU = (-1.5861, -0.31082, -0.083751, 0.0038915)
_LARGE_N_LOG_SIGMA = (-0.4803, -0.082676, 0.0030302)


def _poly(coefficients, x: float) -> float:
    return sum(c * x**k for k, c in enumerate(coefficients))


@lru_cache(maxsize=8)
def _sw_weights(n: int) -> np.ndarray:
    # Expected normal order statistics via the Blom-type approximation, then
    # Royston's corrections to the two extreme weights on each side. Cached
    # because every column of a dataset has the same n; read-only because
    # every caller shares the cached array.
    m = norm_ppf((np.arange(1, n + 1) - 0.375) / (n + 0.25))
    ssm = float(m @ m)
    c = m / math.sqrt(ssm)
    rsn = 1.0 / math.sqrt(n)
    a = np.empty(n)
    if n == 3:
        a[0], a[2] = -math.sqrt(0.5), math.sqrt(0.5)
        a[1] = 0.0
        a.flags.writeable = False
        return a
    a_n = c[-1] + _poly(_C1, rsn)
    if n > 5:
        a_n1 = c[-2] + _poly(_C2, rsn)
        phi = (ssm - 2 * m[-1] ** 2 - 2 * m[-2] ** 2) / (1 - 2 * a_n**2 - 2 * a_n1**2)
        a[2:-2] = m[2:-2] / math.sqrt(phi)
        a[1], a[-2] = -a_n1, a_n1
    else:
        phi = (ssm - 2 * m[-1] ** 2) / (1 - 2 * a_n**2)
        a[1:-1] = m[1:-1] / math.sqrt(phi)
    a[0], a[-1] = -a_n, a_n
    a.flags.writeable = False
    return a


def _check_shapiro_wilk_size(n: int) -> None:
    if n < 3 or n > 5000:
        raise DegenerateDataError(f"Shapiro-Wilk requires 3 <= n <= 5000, got {n}")


def shapiro_wilk(series) -> tuple[float, float]:
    """Shapiro-Wilk W and p-value for normality, 3 <= n <= 5000."""
    x = np.sort(np.asarray(series, dtype=float))
    _check_shapiro_wilk_size(x.size)
    if x[-1] - x[0] == 0.0:
        raise DegenerateDataError(_CONSTANT_SERIES)
    x = x[None]
    np.ldexp(x, -binary_exponents(x, 1), out=x)
    return _shapiro_wilk_sorted(x)[0]


def _shapiro_wilk_sorted(x: np.ndarray) -> list[tuple[float, float]]:
    """(W, p) of each row of a (k, n) table of ascending, non-constant rows
    with 3 <= n <= 5000, each scaled to peak in [0.5, 1) (W is unit-free);
    the table is overwritten.

    Each row's two products are their own BLAS dot call (a stacked matmul
    of row vectors, never a gemv of the table), and W's square is the
    scalar ``**`` (libm ``pow``, not the array square): one row alone or in
    a table gives the same bits."""
    n = x.shape[1]
    a = _sw_weights(n)
    # A non-finite input gives W = NaN, and a NaN p-value, printed NA.
    with np.errstate(over="ignore", invalid="ignore"):
        ax = (a @ x[:, :, None]).ravel()
        x -= x.mean(axis=1, keepdims=True)
        ss = (x[:, None, :] @ x[:, :, None]).ravel()
        ws = [min(float(v**2 / s), 1.0) for v, s in zip(ax, ss)]
    return [(w, _shapiro_wilk_p(w, n)) for w in ws]


def _shapiro_wilk_p(w: float, n: int) -> float:
    if n == 3:
        # Exact small-sample distribution.
        p = 6.0 / math.pi * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        return min(max(p, 0.0), 1.0)

    y = math.log1p(-w)
    if n <= 11:
        gamma = -2.273 + 0.459 * n
        if y >= gamma:
            return 0.0
        y = -math.log(gamma - y)
        mu = _poly(_SMALL_N_MU, n)
        sigma = math.exp(_poly(_SMALL_N_LOG_SIGMA, n))
    else:
        ln_n = math.log(n)
        mu = _poly(_LARGE_N_MU, ln_n)
        sigma = math.exp(_poly(_LARGE_N_LOG_SIGMA, ln_n))
    return norm_sf((y - mu) / sigma)


def pearson_corr(x, y) -> float:
    """Pearson product-moment correlation of two equal-length series: the
    two-row case of :func:`correlation_matrix`'s table."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise DegenerateDataError(_SHORT_PAIR)
    r, flat = _correlations(np.array([x, y]))
    if flat.any():
        raise DegenerateDataError(_ZERO_VARIANCE)
    return float(r[0, 1])


# A non-finite input leaves a NaN correlation, printed NA, and a zero-variance
# row 0/0, which the callers refuse.
@np.errstate(invalid="ignore")
def _correlations(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pearson correlations of the rows of a fresh (k, n) table, n >= 2, as a
    (k, k) matrix, exactly symmetric with unit diagonal, and the mask of the
    rows of zero variance; the table is overwritten.

    Each row is scaled to peak in [0.5, 1) and centred, so its sum of
    squares is 0 or in [2^-112, n]. Each sum of squares and each pair's
    dx @ dy is its own BLAS dot call, as for the pair alone: row m meets
    rows m+1.. in one stacked matmul of views, never a gemv of the table.
    So a pair has the same bits alone and in any table."""
    np.ldexp(table, -binary_exponents(table, 1), out=table)
    table -= table.mean(axis=1, keepdims=True)
    squares = (table[:, None, :] @ table[:, :, None]).ravel()
    r = np.eye(len(table))
    for m in range(len(table) - 1):
        dots = (table[m] @ table[m + 1:, :, None]).ravel()
        r[m, m + 1:] = r[m + 1:, m] = dots / np.sqrt(squares[m] * squares[m + 1:])
    return r, ~table.any(axis=1)


def correlation_matrix(dataset: Dataset) -> CorrelationMatrix:
    """Pearson correlations of the CORRELATION_COLUMNS; exactly symmetric
    with unit diagonal. Every pair has the bits of :func:`pearson_corr` of
    the pair alone. A zero-variance column is an error that names it first."""
    labels = CORRELATION_COLUMNS
    if dataset.n < 2:
        raise DegenerateDataError(_SHORT_PAIR)
    r, flat = _correlations(np.array([dataset.column(name) for name in labels]))
    if flat.any():
        raise DegenerateDataError(f"{labels[flat.argmax()]}: {_ZERO_VARIANCE}")
    return CorrelationMatrix(labels=labels, r=r)


def describe(dataset: Dataset) -> list[ColumnSummary]:
    """Mean, sample SD, and Shapiro-Wilk test for every summary column; an
    error names its column first. The columns are one table, and every
    value has the bits of :func:`mean_std` and :func:`shapiro_wilk` of its
    column alone. Every column has the dataset's n, so a size error names
    the first column, and a constant column the first constant one."""
    names = SUMMARY_COLUMNS
    table = np.array([dataset.column(name) for name in names])
    try:
        if dataset.n < 2:
            raise DegenerateDataError(_SHORT_SERIES)
        _check_shapiro_wilk_size(dataset.n)
    except DegenerateDataError as exc:
        raise DegenerateDataError(f"{names[0]}: {exc}") from None
    # The rows stay scaled for Shapiro-Wilk; scaling keeps their order.
    means, stds = _scaled_mean_std(table)
    table.sort(axis=1)
    constant = table[:, -1] - table[:, 0] == 0.0
    if constant.any():
        raise DegenerateDataError(f"{names[constant.argmax()]}: {_CONSTANT_SERIES}")
    tests = _shapiro_wilk_sorted(table)
    return [ColumnSummary(name=name, mean=mean, std=std, sw_w=w, sw_p=p)
            for name, mean, std, (w, p) in zip(names, means, stds, tests)]
