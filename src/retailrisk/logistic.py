"""Binary logistic regression by iteratively reweighted least squares.

Newton-Raphson on the Bernoulli log-likelihood with step-halving, Wald
z-tests against the standard normal, AIC, and separation diagnostics. A
singular or overflowed Fisher information is a divergence signal, not an
error: the fit is returned unconverged with its separation diagnosis so
callers can decide what to do (the penalized fitter, which shares the
damped-Newton kernel :func:`newton`, exists for exactly these designs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

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

# The stopping rule of :func:`newton`, for both objectives. A fit has
# converged when the full Newton step, before any halving, moves no fitted
# linear predictor x_i'beta by more than ETA_TOL. Fitted values do not change
# when X becomes XA for an invertible A, so neither units, shifts nor the
# intercept's scale matter; a fit that diverges under separation keeps moving
# some x_i'beta by O(1) and never passes. It stops unconverged after the
# objective's step cap. The step after one this small is quadratically
# smaller, so the final max |score| is of rounding size (at most 4e-10 on the
# 1,500-row benchmark panels; 2.4e-9 at 1e-6, which saves 3 of a report's 144
# factorizations).
ETA_TOL = 1e-7
# A step is halved only while the trial objective is below the current one by
# more than this share of |objective|, the rounding noise of an n-term sum.
HALVING_RTOL = 1e-12
MLE_MAX_STEPS = 50          # the log-likelihood l
FIRTH_MAX_STEPS = 100       # Firth's l*


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


def _coefficients(beta, dm: DesignMatrix) -> np.ndarray:
    """beta as a float vector of the design's p coefficients, else ValueError."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (dm.p,):
        raise ValueError(f"expected {dm.p} coefficients, got shape {beta.shape}")
    return beta


def log_likelihood(beta, dm: DesignMatrix) -> float:
    """Bernoulli log-likelihood at beta, overflow-safe for large |eta|."""
    return _log_likelihood(dm.X, dm.y, _coefficients(beta, dm))[0]


def _log_likelihood(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> tuple[float, np.ndarray]:
    """The log-likelihood at beta and the linear predictor X @ beta it used."""
    eta = X @ beta
    # y*eta - log(1 + exp(eta)), with log1p/exp handled by logaddexp.
    return float(y @ eta - np.logaddexp(0.0, eta).sum()), eta


def check_fittable(dm: DesignMatrix, model: str) -> None:
    """Refuse a design with fewer rows than coefficients or a single-class
    response, on which ``model`` is undefined."""
    if dm.n < dm.p:
        raise DegenerateDataError(f"need n >= p to fit, got n={dm.n}, p={dm.p}")
    ones = int(np.sum(dm.y))
    if ones == 0 or ones == dm.n:
        raise DegenerateResponseError(f"response contains a single class; {model} is undefined")


def _information(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """X' diag(w) X."""
    return (X * w[:, None]).T @ X


#: A factorization that failed: the matrix is singular or has overflowed.
FACTOR_ERRORS = (linalg.SingularMatrixError, linalg.NonFiniteMatrixError)


class NewtonTrace(NamedTuple):
    """Steps, step-halvings, final max |score| over the free coefficients."""

    steps: int
    halvings: int
    max_score: float
    converged: bool


def _evaluate(X: np.ndarray, y: np.ndarray, beta: np.ndarray, penalized: bool):
    """(objective, eta = X beta, prob, w = p(1-p), score, q, z) at beta;
    q = z = None for l.
    For l* = l + 0.5*log det X'WX: the modified score X'(y - p + h(0.5 - p)),
    z = L^-1 X' for the factor L of X'WX and q = colsum(z^2), so h = w*q."""
    ll, eta = _log_likelihood(X, y, beta)
    prob = expit(eta)
    w = prob * (1.0 - prob)
    if not penalized:
        return ll, eta, prob, w, X.T @ (y - prob), None, None
    factor = linalg.Cholesky(_information(X, w))
    z = factor.whiten(X.T)
    q = (z * z).sum(axis=0)
    score = X.T @ (y - prob + w * q * (0.5 - prob))
    return ll + 0.5 * factor.log_det(), eta, prob, w, score, q, z


def _negative_hessian(X: np.ndarray, prob: np.ndarray, w: np.ndarray, q: np.ndarray,
                      z: np.ndarray) -> np.ndarray:
    """-d2 l*/d beta2 = X'WX - H_P with H_P = 0.5 [X' diag(q w'') X - U'(Q o Q)U],
    Q = X (X'WX)^-1 X', U = diag(w') X, w' = w(1-2p) and w'' = w(1-6w). The
    p^2 row products of z form K with Q o Q = K'K, so U'(Q o Q)U = (KU)'(KU)."""
    p, n = z.shape
    u = X * (w * (1.0 - 2.0 * prob))[:, None]
    ku = (z[:, None, :] * z[None, :, :]).reshape(p * p, n) @ u
    return _information(X, w - 0.5 * q * w * (1.0 - 6.0 * w)) + 0.5 * (ku.T @ ku)


def _step_factor(X, prob, w, q, z, free) -> linalg.Cholesky:
    """The factored step matrix on the free coefficients: X'WX for l; for l*
    the exact negative Hessian, else the augmented X' diag(w(1+h)) X."""
    if q is None:
        return linalg.Cholesky(_information(X, w)[free][:, free])
    try:
        return linalg.Cholesky(_negative_hessian(X, prob, w, q, z)[free][:, free])
    except FACTOR_ERRORS:
        return linalg.Cholesky(_information(X, w * (1.0 + w * q))[free][:, free])


# An information matrix that overflows is refused by linalg as non-finite;
# numpy's own overflow warnings would only repeat that on stderr.
@np.errstate(over="ignore", invalid="ignore")
def newton(X: np.ndarray, y: np.ndarray, penalized: bool = False, free_idx=None):
    """Damped Newton from beta = 0 on the log-likelihood l or, if
    ``penalized``, on Firth's l* = l + 0.5*log det X'WX.

    Only the ``free_idx`` coefficients (default: all) move; the others stay
    at zero but still enter the penalty. A step is halved up to 10 times
    while the objective falls by more than rounding noise (HALVING_RTOL).
    The fit has converged once a full step moves no linear predictor by
    more than ETA_TOL, and stops unconverged after MLE_MAX_STEPS or
    FIRTH_MAX_STEPS steps; a singular or overflowed step matrix stops it too.
    Returns (beta, objective, w = p(1-p), hat diagonals h or None, trace).
    """
    max_steps = FIRTH_MAX_STEPS if penalized else MLE_MAX_STEPS
    p = X.shape[1]
    free = slice(None) if free_idx is None else list(free_idx)
    beta = np.zeros(p)
    # The objective and its derivatives always belong to the current beta.
    value, eta, prob, w, score, q, z = _evaluate(X, y, beta, penalized)
    converged = False
    steps = halvings = 0
    for steps in range(1, max_steps + 1):
        try:
            step = _step_factor(X, prob, w, q, z, free)
        except FACTOR_ERRORS:
            # Weights collapsed: coefficients are running off to infinity.
            break
        delta = np.zeros(p)
        delta[free] = step.solve(score[free])
        new = beta + delta
        trial = _evaluate(X, y, new, penalized)
        # x_i'delta of the full step, from the linear predictor it produced.
        moved = float(np.abs(trial[1] - eta).max())
        halved = 0
        while trial[0] < value - HALVING_RTOL * abs(value) and halved < 10:
            delta = delta / 2.0
            new = beta + delta
            trial = _evaluate(X, y, new, penalized)
            halved += 1
        halvings += halved
        beta = new
        value, eta, prob, w, score, q, z = trial
        if moved <= ETA_TOL:
            converged = True
            break
    h = None if q is None else w * q
    max_score = float(np.abs(score[free]).max())
    return beta, value, w, h, NewtonTrace(steps, halvings, max_score, converged)


def fit_logistic(dm: DesignMatrix) -> MleFit:
    """Fit ``y ~ X`` by IRLS from beta = 0 under the MLE stopping rule.

    Non-convergence (or a singular or overflowed information matrix) is
    reported through ``converged=False`` plus the ``separation`` diagnosis,
    never silently.
    """
    check_fittable(dm, "logistic MLE")
    X, p = dm.X, dm.p
    beta, ll, w, _, trace = newton(X, dm.y)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            cov = linalg.Cholesky(_information(X, w)).inverse()
            se = np.sqrt(np.diag(cov))
        except FACTOR_ERRORS:
            cov = np.full((p, p), np.nan)
            se = np.full(p, np.nan)
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
        iterations=trace.steps,
        converged=trace.converged,
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
        # A column near the float limit has an infinite SD: the product is
        # inf or NaN, and only an inf above the bound counts as divergence.
        with np.errstate(over="ignore", invalid="ignore"):
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
