"""Logistic, normal and chi-square functions on numpy and the standard library.

Each function takes a Python number or an array. A number goes straight to
``math`` and comes back as a float; an array is mapped element by element
(``expit`` in one numpy expression) and keeps its shape.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

_STANDARD_NORMAL = NormalDist()
_SQRT_2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _elementwise(fn, x):
    if isinstance(x, (int, float)):
        return fn(float(x))
    values = np.asarray(x, dtype=float)
    return np.array([fn(v) for v in values.ravel().tolist()]).reshape(values.shape)


def expit(x):
    """Logistic function 1/(1+exp(-x)).

    The tanh form never overflows. It returns exactly 0.0 below about -38,
    where the exact value (under 1e-16) is lost to cancellation. Above about
    37 it returns exactly 1.0, as does the exact value rounded to a double.
    """
    if isinstance(x, (int, float)):
        return 0.5 * math.tanh(0.5 * x) + 0.5
    return 0.5 * np.tanh(0.5 * np.asarray(x, dtype=float)) + 0.5


def _norm_sf(x: float) -> float:
    return 0.5 * math.erfc(x / _SQRT_2)


def norm_sf(x):
    """Standard normal upper tail P(Z > x)."""
    return _elementwise(_norm_sf, x)


def _norm_ppf(q: float) -> float:
    if 0.0 < q < 1.0:
        return _STANDARD_NORMAL.inv_cdf(q)
    if q == 0.0:
        return -math.inf
    if q == 1.0:
        return math.inf
    return math.nan


def norm_ppf(q):
    """Standard normal quantile; -inf at 0, inf at 1, nan outside [0, 1]."""
    return _elementwise(_norm_ppf, q)


def _chi2_sf(x: float, df: int) -> float:
    if math.isnan(x):
        return math.nan
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    half = 0.5 * x
    # Both series sum positive terms; near x = 0 the rounded sum can pass 1.
    if df % 2 == 0:
        # exp(-x/2) * sum_{i<df/2} (x/2)^i / i!
        term = total = math.exp(-half)
        for i in range(1, df // 2):
            term *= half / i
            total += term
        return min(total, 1.0)
    # erfc(sqrt(x/2)) + sqrt(2x/pi) exp(-x/2) * sum_{i<(df-1)/2} x^i / (1*3*...*(2i+1))
    root = math.sqrt(x)
    term = _SQRT_2_OVER_PI * root * math.exp(-half)
    total = math.erfc(root / _SQRT_2)
    for i in range(1, (df + 1) // 2):
        total += term
        term *= x / (2 * i + 1)
    return min(total, 1.0)


def chi2_sf(x, df: int):
    """Chi-square upper tail P(X > x) on a positive integer ``df``."""
    if int(df) != df or df < 1:
        raise ValueError(f"df must be a positive integer, got {df}")
    df = int(df)
    return _elementwise(lambda v: _chi2_sf(v, df), x)
