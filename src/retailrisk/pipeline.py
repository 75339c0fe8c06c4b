"""End-to-end failure modeling: univariate screens, final model, predictions.

The final failure model is fixed to three predictors -- the annual average US
inflation rate, long-term debt/revenue, and EBITDA/revenue -- fitted by Firth
penalized likelihood (plain maximum likelihood diverges on this design). The
probability table holds the fitted failure probability of every observed
chain-year and each chain's failure year.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .dataset import Dataset, design_matrix
from .errors import DegenerateDataError, RetailRiskError
from .firth import FirthFit, fit_firth
from .logistic import MleFit, _fit_stack

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


def run_screen(dataset: Dataset, group: str) -> ScreenReport:
    """Fit fail ~ intercept + x for every predictor x in the group, as one
    Newton stack (:func:`_run_screens` of the one group).

    A design the fits refuse (a single-class response, fewer rows than
    coefficients) raises with ``{group} screen:`` before the cause."""
    return _run_screens(dataset, (group,))[0]


def _run_screens(dataset: Dataset, groups: Sequence[str]) -> list[ScreenReport]:
    """:func:`run_screen` of every group, in order, from one Newton stack of
    all their designs; each fit has the bits of its own ``fit_logistic``.

    The stack is built from the dataset's columns without ``DesignMatrix``,
    whose checks a ``Dataset`` has already proved. The designs share the
    response and have two columns, so the fits refuse all of them or none,
    and the error names the first group, as running the groups in turn would."""
    for group in groups:
        if group not in SCREEN_GROUPS:
            raise KeyError(f"unknown group {group!r}; valid: {', '.join(SCREEN_GROUPS)}")
    names = [name for group in groups for name in SCREEN_GROUPS[group]]
    X = np.ones((len(names), dataset.n, 2))
    X[:, :, 1] = [dataset.column(name) for name in names]
    try:
        fits = iter(_fit_stack(X, dataset.column("fail"), [("intercept", name) for name in names]))
    except RetailRiskError as exc:
        raise type(exc)(f"{groups[0]} screen: {exc}") from None
    return [ScreenReport(group, tuple((name, next(fits)) for name in SCREEN_GROUPS[group]))
            for group in groups]


def fit_final_model(dataset: Dataset) -> FirthFit:
    """Firth fit of the fixed three-predictor failure model."""
    return fit_firth(design_matrix(dataset, list(FINAL_MODEL_PREDICTORS)))


def _probability(eta: float) -> float:
    if eta >= 0:
        return 1.0 / (1.0 + math.exp(-eta))
    z = math.exp(eta)
    return z / (1.0 + z)


@dataclass(frozen=True)
class PredictionTable:
    """Year-by-chain grid of failure probabilities.

    ``probabilities[chain]`` maps each observed year of the chain, ascending,
    to its failure probability; ``failure_years[chain]`` is the chain's
    failure year, or None. The marker of every other cell follows from them
    and is decided by ``report.probability_section`` alone. Both mappings are
    read-only.
    """

    years: tuple[int, ...]
    chains: tuple[str, ...]
    probabilities: Mapping[str, Mapping[int, float]]
    failure_years: Mapping[str, int | None]


def table_from_coefficients(beta, dataset: Dataset) -> PredictionTable:
    """Grid of failure probabilities over observed years x chains.

    ``beta`` is the final model's (intercept, inflation, long-term
    debt/revenue, EBITDA/revenue); the ratios honor the dataset's
    ``ratio_precision``. The coefficients are used as given: check
    ``fit.converged`` before tabulating a fit. A NaN probability, from a
    non-finite coefficient, is a DegenerateDataError naming its chain and year.
    """
    beta = tuple(float(b) for b in beta)
    if len(beta) != 1 + len(FINAL_MODEL_PREDICTORS):
        raise ValueError(
            f"expected {1 + len(FINAL_MODEL_PREDICTORS)} coefficients, got {len(beta)}"
        )
    chain_of_row = dataset.column("chain")
    year_of_row = dataset.column("year").astype(int).tolist()
    inflation, ltd, ebitda = map(dataset.column, FINAL_MODEL_PREDICTORS)
    # Python's left-to-right order, one IEEE operation per element as on
    # floats; a non-finite coefficient leaves NaN, refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        eta = beta[0] + beta[1] * inflation + beta[2] * ltd + beta[3] * ebitda
    # A chain's years ascend in file order, so each chain's dict is in year order.
    probabilities = {chain: {} for chain in dataset.chains}
    for chain, year, e in zip(chain_of_row, year_of_row, eta.tolist()):
        prob = _probability(e)
        # A saturated logistic is exactly 0.0 or 1.0; NaN fails both bounds.
        if not 0.0 <= prob <= 1.0:
            raise DegenerateDataError(
                f"{chain} {year}: failure probability must be in [0, 1], got {prob}")
        probabilities[chain][year] = prob
    failure_years = dict.fromkeys(dataset.chains)
    for i in np.flatnonzero(dataset.column("fail") == 1).tolist():
        failure_years[chain_of_row[i]] = year_of_row[i]
    return PredictionTable(
        years=tuple(sorted(set(year_of_row))),
        chains=tuple(dataset.chains),
        probabilities=MappingProxyType({c: MappingProxyType(p) for c, p in probabilities.items()}),
        failure_years=MappingProxyType(failure_years),
    )


def probability_drift(table: PredictionTable) -> list[tuple[str, int, float, float, float]]:
    """Per-cell (chain, year, computed, published, delta) against the
    published reference grid, for cells present in both, in chain order
    then ascending year."""
    order = {chain: i for i, chain in enumerate(table.chains)}
    present = sorted((order[chain], year, chain) for chain, year in REFERENCE_FAILURE_PROBABILITIES
                     if year in table.probabilities.get(chain, ()))
    out = []
    for _, year, chain in present:
        computed = table.probabilities[chain][year]
        reference = REFERENCE_FAILURE_PROBABILITIES[chain, year]
        out.append((chain, year, computed, reference, computed - reference))
    return out
