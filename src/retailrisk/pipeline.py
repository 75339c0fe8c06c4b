"""End-to-end failure modeling: univariate screens, final model, predictions.

The final failure model is fixed to three predictors -- the annual average US
inflation rate, long-term debt/revenue, and EBITDA/revenue -- fitted by Firth
penalized likelihood (plain maximum likelihood diverges on this design). The
probability table lays fitted failure probabilities out on a year-by-chain
grid with explicit markers for years outside a chain's observed window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, design_matrix
from .firth import FirthFit, fit_firth
from .logistic import MleFit, fit_logistic

SCREEN_GROUPS: dict[str, tuple[str, ...]] = {
    "external": ("acsi", "pandemic", "us_interest_rate", "us_inflation_rate"),
    "internal": ("revenue", "sga", "cost_of_revenue", "stores", "ebitda", "long_term_debt"),
    "ratios": ("sga_over_rev", "cor_over_rev", "ebitda_over_rev", "ltd_over_rev"),
}

FINAL_MODEL_PREDICTORS = ("us_inflation_rate", "ltd_over_rev", "ebitda_over_rev")

#: Published rounded coefficients of the failure model fitted on the embedded
#: dataset (intercept, inflation, LTD/revenue, EBITDA/revenue). Used by the
#: forensics mode that reproduces arithmetic from the rounded published values.
REFERENCE_MODEL_COEFFICIENTS = (-4.349, 0.592, 1.374, -1.606)

CELL_PROBABILITY = "probability"
CELL_NOT_AVAILABLE = "not_available"
CELL_CEASED = "ceased_operations"

#: Published failure-probability estimates for the embedded dataset, keyed by
#: (chain, year). Kept for drift reporting only -- the published grid is not
#: exactly reproducible from the published model's printed precision, so the
#: pipeline reports per-cell deltas against these instead of matching them.
REFERENCE_FAILURE_PROBABILITIES: dict[tuple[str, int], float] = {
    ("Bed Bath & Beyond", 2015): 0.017,
    ("Bed Bath & Beyond", 2016): 0.033,
    ("Bed Bath & Beyond", 2017): 0.056,
    ("Bed Bath & Beyond", 2018): 0.074,
    ("Bed Bath & Beyond", 2019): 0.059,
    ("Bed Bath & Beyond", 2020): 0.043,
    ("Bed Bath & Beyond", 2021): 0.263,
    ("Bed Bath & Beyond", 2022): 0.884,
    ("Rite Aid", 2013): 0.063,
    ("Rite Aid", 2014): 0.054,
    ("Rite Aid", 2015): 0.039,
    ("Rite Aid", 2016): 0.040,
    ("Rite Aid", 2017): 0.063,
    ("Rite Aid", 2018): 0.085,
    ("Rite Aid", 2019): 0.082,
    ("Rite Aid", 2020): 0.056,
    ("Rite Aid", 2021): 0.304,
    ("Rite Aid", 2022): 0.760,
    ("Sears Holdings", 2013): 0.042,
    ("Sears Holdings", 2014): 0.042,
    ("Sears Holdings", 2015): 0.019,
    ("Sears Holdings", 2016): 0.047,
    ("Sears Holdings", 2017): 0.070,
    ("Sears Holdings", 2018): 0.162,
    ("J.C. Penney", 2013): 0.130,
    ("J.C. Penney", 2014): 0.110,
    ("J.C. Penney", 2015): 0.043,
    ("J.C. Penney", 2016): 0.072,
    ("J.C. Penney", 2017): 0.101,
    ("J.C. Penney", 2018): 0.129,
    ("J.C. Penney", 2019): 0.103,
    ("J.C. Penney", 2020): 0.998,
}


@dataclass(frozen=True)
class ScreenReport:
    """One univariate logistic fit per predictor in a screen group."""

    group: str
    fits: tuple[tuple[str, MleFit], ...]

    def fit_for(self, predictor: str) -> MleFit:
        for name, fit in self.fits:
            if name == predictor:
                return fit
        raise KeyError(f"no fit for predictor {predictor!r} in group {self.group!r}")

    def lowest_aic(self) -> str:
        return min(self.fits, key=lambda item: item[1].aic)[0]


def run_screen(dataset: Dataset, group: str) -> ScreenReport:
    """Fit fail ~ intercept + x for every predictor x in the group."""
    if group not in SCREEN_GROUPS:
        raise KeyError(f"unknown group {group!r}; valid: {', '.join(SCREEN_GROUPS)}")
    fits = tuple(
        (name, fit_logistic(design_matrix(dataset, [name])))
        for name in SCREEN_GROUPS[group]
    )
    return ScreenReport(group=group, fits=fits)


def fit_final_model(dataset: Dataset) -> FirthFit:
    """Firth fit of the fixed three-predictor failure model."""
    return fit_firth(design_matrix(dataset, list(FINAL_MODEL_PREDICTORS)))


def _probability(beta: tuple[float, ...], inflation, ltd_over_rev, ebitda_over_rev) -> float:
    eta = beta[0] + beta[1] * inflation + beta[2] * ltd_over_rev + beta[3] * ebitda_over_rev
    if eta >= 0:
        return 1.0 / (1.0 + math.exp(-eta))
    z = math.exp(eta)
    return z / (1.0 + z)


def odds_ratio(coef: float) -> float:
    """exp(coef): multiplicative change in failure odds per unit increase."""
    if not math.isfinite(coef):
        raise ValueError(f"coefficient must be finite, got {coef}")
    return math.exp(coef)


@dataclass(frozen=True)
class PredictionCell:
    """Exactly one of: a probability, 'not available', or 'ceased operations'."""

    kind: str
    probability: float | None = None

    def __post_init__(self):
        if self.kind == CELL_PROBABILITY:
            # A saturated logistic is exactly 0.0 or 1.0; NaN fails both bounds.
            if self.probability is None or not 0.0 <= self.probability <= 1.0:
                raise ValueError(f"probability cell needs a value in [0, 1], got {self.probability}")
        elif self.kind in (CELL_NOT_AVAILABLE, CELL_CEASED):
            if self.probability is not None:
                raise ValueError(f"{self.kind} cell must not carry a probability")
        else:
            raise ValueError(f"unknown cell kind {self.kind!r}")


@dataclass(frozen=True)
class PredictionTable:
    """Year-by-chain grid of failure probabilities with marker cells."""

    years: tuple[int, ...]
    chains: tuple[str, ...]
    cells: tuple[tuple[PredictionCell, ...], ...]  # cells[year_index][chain_index]
    _year_index: dict = field(init=False, repr=False, compare=False)
    _chain_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_year_index", {y: i for i, y in enumerate(self.years)})
        object.__setattr__(self, "_chain_index", {c: i for i, c in enumerate(self.chains)})

    def cell(self, chain: str, year: int) -> PredictionCell:
        return self.cells[self._year_index[year]][self._chain_index[chain]]


def table_from_coefficients(beta, dataset: Dataset) -> PredictionTable:
    """Grid of failure probabilities over observed years x chains.

    ``beta`` is the final model's (intercept, inflation, long-term
    debt/revenue, EBITDA/revenue); the ratios honor the dataset's
    ``ratio_precision``. Years before a chain's first observation are 'not
    available'; years after a failure year are 'ceased operations' (after
    the last observation of a never-failing chain they are 'not available'
    as well). The coefficients are used as given: check ``fit.converged``
    before tabulating a fit.
    """
    beta = tuple(float(b) for b in beta)
    if len(beta) != 1 + len(FINAL_MODEL_PREDICTORS):
        raise ValueError(
            f"expected {1 + len(FINAL_MODEL_PREDICTORS)} coefficients, got {len(beta)}"
        )
    chain_of_row = dataset.column("chain")
    year_of_row = dataset.column("year").astype(int).tolist()
    years = tuple(sorted(set(year_of_row)))
    row_of = {key: i for i, key in enumerate(zip(chain_of_row, year_of_row))}
    failure_year = dict.fromkeys(dataset.chains)
    for i in np.flatnonzero(dataset.column("fail") == 1).tolist():
        failure_year[chain_of_row[i]] = year_of_row[i]
    inflation, ltd, ebitda = (dataset.column(name).tolist() for name in FINAL_MODEL_PREDICTORS)
    ceased, not_available = PredictionCell(CELL_CEASED), PredictionCell(CELL_NOT_AVAILABLE)

    rows = []
    for year in years:
        row = []
        for chain in dataset.chains:
            failed = failure_year[chain]
            i = row_of.get((chain, year))
            if i is not None:
                prob = _probability(beta, inflation[i], ltd[i], ebitda[i])
                row.append(PredictionCell(CELL_PROBABILITY, prob))
            elif failed is not None and year > failed:
                row.append(ceased)
            else:
                row.append(not_available)
        rows.append(tuple(row))
    return PredictionTable(years=years, chains=tuple(dataset.chains), cells=tuple(rows))


def probability_drift(table: PredictionTable) -> list[tuple[str, int, float, float, float]]:
    """Per-cell (chain, year, computed, published, delta) against the
    published reference grid, for cells present in both, in chain order
    then ascending year."""
    present = [(table._chain_index[chain], year, chain)
               for chain, year in REFERENCE_FAILURE_PROBABILITIES
               if chain in table._chain_index and year in table._year_index]
    out = []
    for _, year, chain in sorted(present):
        cell = table.cell(chain, year)
        if cell.kind == CELL_PROBABILITY:
            reference = REFERENCE_FAILURE_PROBABILITIES[chain, year]
            out.append((chain, year, cell.probability, reference, cell.probability - reference))
    return out
