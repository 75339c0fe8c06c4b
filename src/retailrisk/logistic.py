"""Binary logistic regression by iteratively reweighted least squares.

Newton-Raphson on the Bernoulli log-likelihood with step-halving, Wald
z-tests against the standard normal, AIC, and separation diagnostics. A
singular Fisher information mid-iteration is treated as a divergence signal
rather than an error: the fit is returned unconverged with its separation
diagnosis so callers can decide what to do (the penalized fitter exists for
exactly these designs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .dataset import DesignMatrix
from .distributions import expit, norm_sf
from .errors import DegenerateDataError, RetailRiskError

SEPARATION_NONE = "none"
SEPARATION_QUASI = "quasi"
SEPARATION_COMPLETE = "complete"

# |slope| * sd(column) beyond this is treated as divergence of the MLE.
DIVERGENCE_BOUND = 15.0


class DegenerateResponseError(RetailRiskError):
    """Response vector contains a single class; the MLE does not exist."""


@dataclass(frozen=True, eq=False)
class MleFit:
    """Maximum-likelihood logistic fit with Wald inference."""

    labels: tuple[str, ...]
    beta: np.ndarray
    se: np.ndarray
    z: np.ndarray
    p_values: np.ndarray
    log_lik: float
    aic: float
    cov: np.ndarray
    iterations: int
    converged: bool
    separation: str = SEPARATION_NONE

    def coef(self, label: str) -> float:
        return float(self.beta[self.labels.index(label)])


def log_likelihood(beta, dm: DesignMatrix) -> float:
    """Bernoulli log-likelihood at beta, overflow-safe for large |eta|."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (dm.p,):
        raise ValueError(f"expected {dm.p} coefficients, got shape {beta.shape}")
    return _log_likelihood(dm.X, dm.y, beta)[0]


def _log_likelihood(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> tuple[float, np.ndarray]:
    """The log-likelihood at beta and the linear predictor X @ beta it used."""
    eta = X @ beta
    # y*eta - log(1 + exp(eta)), with log1p/exp handled by logaddexp.
    return float(y @ eta - np.sum(np.logaddexp(0.0, eta))), eta


def check_fittable(dm: DesignMatrix, model: str) -> None:
    """Refuse a design with fewer rows than coefficients or a single-class
    response, on which ``model`` is undefined."""
    if dm.n < dm.p:
        raise DegenerateDataError(f"need n >= p to fit, got n={dm.n}, p={dm.p}")
    ones = int(np.sum(dm.y))
    if ones == 0 or ones == dm.n:
        raise DegenerateResponseError(f"response contains a single class; {model} is undefined")


def _fisher_information(X: np.ndarray, prob: np.ndarray) -> np.ndarray:
    w = prob * (1.0 - prob)
    return (X * w[:, None]).T @ X


def fit_logistic(dm: DesignMatrix, max_iter: int = 50, tol: float = 1e-8,
                 score_tol: float = 1e-6) -> MleFit:
    """Fit ``y ~ X`` by IRLS from beta = 0.

    Converged means both the largest coefficient change fell below ``tol``
    and the score's max-norm fell below ``score_tol``. Non-convergence (or a
    singular information matrix on the way) is reported through
    ``converged=False`` plus the ``separation`` diagnosis, never silently.
    """
    check_fittable(dm, "logistic MLE")
    X, y, p = dm.X, dm.y, dm.p
    beta = np.zeros(p)
    ll, eta = _log_likelihood(X, y, beta)
    # prob and score always belong to the current beta.
    prob = expit(eta)
    score = X.T @ (y - prob)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        try:
            delta = linalg.Cholesky(_fisher_information(X, prob)).solve(score)
        except linalg.SingularMatrixError:
            # Weights collapsed: coefficients are running off to infinity.
            break
        new = beta + delta
        new_ll, new_eta = _log_likelihood(X, y, new)
        halvings = 0
        while new_ll < ll and halvings < 10:
            delta = delta / 2.0
            new = beta + delta
            new_ll, new_eta = _log_likelihood(X, y, new)
            halvings += 1
        moved = float(np.max(np.abs(new - beta)))
        beta, ll = new, new_ll
        prob = expit(new_eta)
        score = X.T @ (y - prob)
        if moved <= tol and float(np.max(np.abs(score))) <= score_tol:
            converged = True
            break

    try:
        cov = linalg.Cholesky(_fisher_information(X, prob)).inverse()
        se = np.sqrt(np.diag(cov))
    except linalg.SingularMatrixError:
        cov = np.full((p, p), np.nan)
        se = np.full(p, np.nan)
    with np.errstate(invalid="ignore"):
        z = beta / se
    p_values = 2.0 * norm_sf(np.abs(z))
    aic = 2.0 * p - 2.0 * ll
    fit = MleFit(
        labels=dm.labels,
        beta=beta,
        se=se,
        z=z,
        p_values=p_values,
        log_lik=ll,
        aic=aic,
        cov=cov,
        iterations=iterations,
        converged=converged,
    )
    return replace(fit, separation=detect_separation(dm, fit))


def detect_separation(dm: DesignMatrix, fit: MleFit) -> str:
    """Diagnose complete/quasi separation from a fitted (or stalled) model.

    Divergence is flagged when any slope exceeds the bound on the column's
    standard-deviation scale, or when an unconverged fit has pushed fitted
    probabilities onto the 0/1 boundary. Diverged fits are ``complete`` when
    every observation is classified to within 1e-4, otherwise ``quasi``.
    """
    beta = fit.beta
    if not np.all(np.isfinite(beta)):
        diverged = True
    else:
        scales = np.std(dm.X[:, 1:], axis=0, ddof=1) if dm.p > 1 else np.array([])
        standardized = np.abs(beta[1:]) * scales
        diverged = bool(np.any(standardized > DIVERGENCE_BOUND))
        if not diverged and not fit.converged:
            prob = expit(dm.X @ beta)
            diverged = bool(np.any((prob < 1e-8) | (prob > 1.0 - 1e-8)))
    if not diverged:
        return SEPARATION_NONE
    prob = expit(dm.X @ beta)
    if np.all(np.abs(prob - dm.y) < 1e-4):
        return SEPARATION_COMPLETE
    return SEPARATION_QUASI


def significance_code(p: float) -> str:
    """Conventional significance stars; boundaries belong to the weaker code.

    A non-finite p-value (from a singular information matrix) reads ``NA``.
    """
    if not math.isfinite(p):
        return "NA"
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p-value must be in [0, 1], got {p}")
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    if p < 0.1:
        return "."
    return " "
