"""A 50-digit oracle for every printed failure probability.

The oracle prices each row of a dataset from the exact decimal values of the
float coefficients and of the float columns the grid reads: the linear
predictor eta = b0 + b1 x1 + b2 x2 + b3 x3 is summed exactly, and
p = 1 / (1 + exp(-eta)) is taken at 50 significant digits (``decimal``'s
``exp`` is correctly rounded). Beyond |eta| = ``SATURATED``, p is taken as
exactly 0 or 1, which it is to within e^-1000; ``exp`` of the largest etas
of a drawn panel (1e300 and more) would leave decimal's exponent range.

A printed cell must be the oracle's value rounded half to even to
``ROUNDING["probability"]`` decimals, with ``-0.000`` read as ``0.000``, as
``fmt_number`` prints it. A cell whose exact value lies within ``NEAR`` of a
rounding boundary is left out and counted: a float within rounding error of
it may print either way.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal

from retailrisk.pipeline import FINAL_MODEL_PREDICTORS, REFERENCE_FAILURE_PROBABILITIES
from retailrisk.report import (
    CELL_MARKERS,
    ROUNDING,
    cell_section,
    drift_section,
    probability_section,
)

DIGITS = decimal.Context(prec=50)
#: Sums and products of floats are exact in this context.
EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
SATURATED = 1000
NEAR = Decimal("1e-12")
STEP = Decimal(1).scaleb(-ROUNDING["probability"])
HALF_STEP = STEP / 2


def logistic(eta: Decimal) -> Decimal:
    """1 / (1 + exp(-eta)) at 50 digits; exactly 0 or 1 beyond |eta| = SATURATED."""
    if eta.copy_abs() > SATURATED:
        return Decimal(int(eta > 0))
    return DIGITS.divide(1, DIGITS.add(1, DIGITS.exp(eta.copy_negate())))


def probabilities(beta, dataset) -> dict[tuple[str, int], Decimal]:
    """The oracle's failure probability of each (chain, year) row of
    ``dataset`` under the coefficients ``beta``."""
    b0, *slopes = (Decimal(float(b)) for b in beta)
    columns = [dataset.column(name).tolist() for name in FINAL_MODEL_PREDICTORS]
    out = {}
    for chain, year, *xs in zip(dataset.column("chain"), dataset.column("year").tolist(),
                                *columns):
        eta = b0
        for b, x in zip(slopes, xs):
            eta = EXACT.add(eta, EXACT.multiply(b, Decimal(x)))
        out[chain, int(year)] = logistic(eta)
    return out


@dataclass
class Tally:
    """Values certified, values left out within ``NEAR`` of a rounding
    boundary, and the smallest distance of a certified value to one."""

    certified: int = 0
    near_boundary: int = 0
    nearest: Decimal = STEP

    def check(self, texts, exact: Decimal, where) -> None:
        """Every one of ``texts`` prints ``exact`` rounded, unless ``exact``
        is within ``NEAR`` of a boundary, where it is counted instead."""
        rounded = exact.quantize(STEP, rounding=ROUND_HALF_EVEN, context=EXACT)
        distance = EXACT.subtract(HALF_STEP, EXACT.subtract(exact, rounded).copy_abs())
        if distance < NEAR:
            self.near_boundary += 1
            return
        self.certified += 1
        self.nearest = min(self.nearest, distance)
        expected = f"{rounded.copy_abs() if rounded.is_zero() else rounded:f}"
        assert all(text == expected for text in texts), (where, texts, expected, exact)


def certify(table, beta, dataset, grid: Tally, drift: Tally) -> None:
    """Every cell of ``probability_section(table)``, the ``cell_section`` of
    each of them and every computed value and delta of
    ``drift_section(table)`` print the oracle's value, where ``table`` is
    the grid of ``beta`` on ``dataset``."""
    exact = probabilities(beta, dataset)
    section = probability_section(table)
    printed = {(chain, int(row[0])): text for row in section.rows
               for chain, text in zip(section.columns[1:], row[1:]) if text not in CELL_MARKERS}
    assert printed.keys() == exact.keys()
    for (chain, year), p in exact.items():
        grid.check((printed[chain, year], cell_section(table, chain, year).rows[0][2]), p,
                   (chain, year))
    for chain, year, computed, _, delta in drift_section(table).rows:
        p = exact[chain, int(year)]
        published = Decimal(REFERENCE_FAILURE_PROBABILITIES[chain, int(year)])
        drift.check((computed,), p, (chain, year))
        drift.check((delta,), EXACT.subtract(p, published), (chain, year, "delta"))
