"""``describe`` and ``correlation_matrix`` against the one-series functions.

The whole-table passes must give every value the bits of ``mean_std``,
``shapiro_wilk`` and ``pearson_corr`` of its own column or pair, and every
refusal the error of the first column that fails. W is also checked against
the one-series arithmetic (1-D dot products and a scalar square), written out
here as the reference, since ``shapiro_wilk`` runs the table code on one row.
"""

import numpy as np
import pytest

from retailrisk.descriptive import (
    CORRELATION_COLUMNS,
    SUMMARY_COLUMNS,
    DegenerateDataError,
    _sw_weights,
    correlation_matrix,
    describe,
    mean_std,
    pearson_corr,
    shapiro_wilk,
)


def one_series_w(series) -> float:
    """Shapiro-Wilk W of one non-constant series from 1-D dot products."""
    x = np.sort(np.asarray(series, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.ldexp(x, -np.frexp(max(-x[0], x[-1]))[1])
        centered = x - np.mean(x)
        return min(float((_sw_weights(x.size) @ x) ** 2 / (centered @ centered)), 1.0)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def assert_describe_keeps_each_column(dataset, names=SUMMARY_COLUMNS):
    """describe() is mean_std and shapiro_wilk of each column in turn, on
    the given columns; every other column must pass both."""
    expected = []
    for name in names:
        values = dataset.column(name)
        try:
            mean, std = mean_std(values)
            w, p = shapiro_wilk(values)
        except DegenerateDataError as exc:
            with pytest.raises(DegenerateDataError) as refused:
                describe(dataset)
            assert str(refused.value) == f"{name}: {exc}"
            return
        assert w.hex() == one_series_w(values).hex(), name
        expected.append([name, *_hex((mean, std, w, p))])
    got = [[row.name, *_hex((row.mean, row.std, row.sw_w, row.sw_p))]
           for row in describe(dataset) if row.name in names]
    assert got == expected


def assert_correlations_keep_each_pair(dataset, names=CORRELATION_COLUMNS):
    """correlation_matrix() is pearson_corr of each pair with a column in
    ``names``, and the first zero-variance column in CORRELATION_COLUMNS
    order is the one named."""
    if dataset.n < 2:
        with pytest.raises(DegenerateDataError, match="need two 1-d series of equal length >= 2"):
            correlation_matrix(dataset)
        return
    columns = [dataset.column(name) for name in CORRELATION_COLUMNS]
    with np.errstate(over="ignore", invalid="ignore"):
        flat = [name for name, x in zip(CORRELATION_COLUMNS, columns) if not (x - x.mean()).any()]
    if flat:
        with pytest.raises(DegenerateDataError) as refused:
            correlation_matrix(dataset)
        assert str(refused.value) == f"{flat[0]}: correlation is undefined for a zero-variance series"
        return
    r = correlation_matrix(dataset).r
    for i, a in enumerate(CORRELATION_COLUMNS):
        for j, b in enumerate(CORRELATION_COLUMNS[i + 1:], i + 1):
            if a in names or b in names:
                expected = pearson_corr(columns[i], columns[j])
                assert _hex((r[i, j], r[j, i])) == [expected.hex()] * 2, (a, b)
