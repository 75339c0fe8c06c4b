"""Logistic, normal and chi-square functions on numpy and the standard library.

Each function takes a Python number or an array. A number goes straight to
``math`` and comes back as a float; an array is mapped element by element
(``expit`` in one numpy expression) and keeps its shape.
"""

from __future__ import annotations

import math

import numpy as np

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


# Wichura's AS 241 (PPND16; Applied Statistics 37(3), 1988), the algorithm
# of CPython's ``statistics.NormalDist.inv_cdf``: the numerator and the
# denominator of each rational function, highest power first. The central
# one serves |q - 1/2| <= 0.425; the tails take r = sqrt(-log(min(q, 1 - q))),
# the near one up to r = 5.
_CENTRAL_NUM = (2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4,
                6.72657_70927_00870_0853e+4, 4.59219_53931_54987_1457e+4,
                1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
                1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0)
_CENTRAL_DEN = (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4,
                3.93078_95800_09271_0610e+4, 2.12137_94301_58659_5867e+4,
                5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
                4.23133_30701_60091_1252e+1, 1.0)
_NEAR_NUM = (7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2,
             2.41780_72517_74506_11770e-1, 1.27045_82524_52368_38258e+0,
             3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
             4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0)
_NEAR_DEN = (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4,
             1.51986_66563_61645_71966e-2, 1.48103_97642_74800_74590e-1,
             6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
             2.05319_16266_37758_82187e+0, 1.0)
_FAR_NUM = (2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5,
            1.24266_09473_88078_43860e-3, 2.65321_89526_57612_30930e-2,
            2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
            5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0)
_FAR_DEN = (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7,
            1.84631_83175_10054_68180e-5, 7.86869_13114_56132_59100e-4,
            1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
            5.99832_20655_58879_37690e-1, 1.0)


def _horner(coefficients, r: float) -> float:
    # ((c0*r + c1)*r + c2)...: inv_cdf's operations in its order, so its bits.
    value = coefficients[0]
    for c in coefficients[1:]:
        value = value * r + c
    return value


def _norm_ppf(q: float) -> float:
    if 0.0 < q < 1.0:
        half = q - 0.5
        if math.fabs(half) <= 0.425:
            r = 0.180625 - half * half
            return _horner(_CENTRAL_NUM, r) * half / _horner(_CENTRAL_DEN, r)
        r = math.sqrt(-math.log(q if half <= 0.0 else 1.0 - q))
        if r <= 5.0:
            r -= 1.6
            x = _horner(_NEAR_NUM, r) / _horner(_NEAR_DEN, r)
        else:
            r -= 5.0
            x = _horner(_FAR_NUM, r) / _horner(_FAR_DEN, r)
        return -x if half < 0.0 else x
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
