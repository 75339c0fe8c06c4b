"""Firth penalized-likelihood logistic regression.

The estimator maximizes l*(beta) = l(beta) + 0.5*log det I(beta), the
Bernoulli log-likelihood plus the Jeffreys-prior penalty on the Fisher
information I(beta) = X'WX, W = diag(p(1-p)). Solving the modified score
equations keeps coefficients finite even under complete separation, where
plain maximum likelihood diverges (Firth 1993; Heinze & Schemper 2002).

Conventions follow the standard penalized-logistic toolchain so that results
line up with published fits:

* Newton steps (with step-halving) use the hat-augmented information
  X' diag(w*(1+h)) X, which also converges much faster than plain X'WX near
  the optimum.
* The variance-covariance matrix is the inverse of that augmented
  information at the solution; per-coefficient Wald chi-squares are
  (beta/se)^2 on one degree of freedom.
* The likelihood-ratio test refits with the slopes pinned at zero (the
  penalty still uses the full design) and compares penalized likelihoods on
  p-1 degrees of freedom.
* The global Wald statistic is the quadratic form of the full coefficient
  vector in the inverse covariance, reported on p-1 degrees of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .dataset import DesignMatrix
from .distributions import chi2_sf, expit
from .logistic import _log_likelihood, check_fittable, log_likelihood


@dataclass(frozen=True, eq=False)
class FirthFit:
    """Penalized-likelihood logistic fit with Wald and LR inference."""

    labels: tuple[str, ...]
    beta: np.ndarray
    se: np.ndarray
    chisq: np.ndarray
    p_values: np.ndarray
    pen_log_lik: float
    lr_stat: float
    lr_df: int
    lr_p: float
    wald_stat: float
    wald_df: int
    wald_p: float
    cov: np.ndarray
    iterations: int
    converged: bool

    def coef(self, label: str) -> float:
        return float(self.beta[self.labels.index(label)])


def _weights(X: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    prob = expit(X @ beta)
    return prob, prob * (1.0 - prob)


def _information(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    return (X * w[:, None]).T @ X


def _factor(X: np.ndarray, w: np.ndarray) -> linalg.Cholesky:
    """Cholesky factor of the Fisher information X'WX, for the penalty's
    log-determinant and the hat diagonals."""
    return linalg.Cholesky(_information(X, w))


def _hat(X: np.ndarray, w: np.ndarray, factor: linalg.Cholesky) -> np.ndarray:
    """Diagonal of W^(1/2) X (X'WX)^-1 X' W^(1/2), given the Cholesky factor
    L of X'WX: h = colsum((L^-1 (sqrt(w) X)')^2)."""
    z = factor.whiten((X * np.sqrt(w)[:, None]).T)
    return np.sum(z * z, axis=0)


def hat_diagonals(beta, dm: DesignMatrix) -> np.ndarray:
    """Diagonal of H = W^(1/2) X (X'WX)^-1 X' W^(1/2) at beta."""
    beta = np.asarray(beta, dtype=float)
    _, w = _weights(dm.X, beta)
    return _hat(dm.X, w, _factor(dm.X, w))


def penalized_loglik(beta, dm: DesignMatrix) -> float:
    """l(beta) + 0.5*log det X'WX (the Jeffreys-prior penalty)."""
    beta = np.asarray(beta, dtype=float)
    _, w = _weights(dm.X, beta)
    return log_likelihood(beta, dm) + 0.5 * _factor(dm.X, w).log_det()


def firth_score(beta, dm: DesignMatrix) -> np.ndarray:
    """Modified score U*(beta): gradient of the penalized log-likelihood."""
    beta = np.asarray(beta, dtype=float)
    prob, w = _weights(dm.X, beta)
    h = _hat(dm.X, w, _factor(dm.X, w))
    return dm.X.T @ (dm.y - prob + h * (0.5 - prob))


def _newton(X: np.ndarray, y: np.ndarray, fit_idx: list[int], max_iter: int,
            tol: float) -> tuple[np.ndarray, float, int, bool, np.ndarray, linalg.Cholesky]:
    """Newton with step-halving on the modified score, restricted to fit_idx.

    Coefficients outside fit_idx stay at zero but still enter the penalty
    and the hat diagonals, so a restricted fit is nested inside the full
    penalized likelihood. Returns (beta, penalized log-likelihood,
    iterations, converged, weights p(1-p) at beta, Cholesky factor of X'WX
    at beta).
    """
    p = X.shape[1]
    beta = np.zeros(p)

    def pen_ll(b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, linalg.Cholesky]:
        ll, eta = _log_likelihood(X, y, b)
        prob = expit(eta)
        w = prob * (1.0 - prob)
        # The factor for the penalty also gives the next step's hat diagonals.
        factor = _factor(X, w)
        return ll + 0.5 * factor.log_det(), prob, w, factor

    # prob, w and factor always belong to the current beta.
    current, prob, w, factor = pen_ll(beta)
    converged = False
    iterations = 0
    sub = np.ix_(fit_idx, fit_idx)
    for iterations in range(1, max_iter + 1):
        h = _hat(X, w, factor)
        score = X.T @ (y - prob + h * (0.5 - prob))
        augmented = _information(X, w * (1.0 + h))
        delta = np.zeros(p)
        delta[fit_idx] = linalg.Cholesky(augmented[sub]).solve(score[fit_idx])
        new = beta + delta
        new_ll, new_prob, new_w, new_factor = pen_ll(new)
        halvings = 0
        while new_ll < current and halvings < 10:
            delta = delta / 2.0
            new = beta + delta
            new_ll, new_prob, new_w, new_factor = pen_ll(new)
            halvings += 1
        moved = float(np.max(np.abs(new - beta)))
        beta, current, prob, w, factor = new, new_ll, new_prob, new_w, new_factor
        if moved <= tol and float(np.max(np.abs(score[fit_idx]))) <= tol * 10:
            converged = True
            break
    return beta, current, iterations, converged, w, factor


def fit_firth(dm: DesignMatrix, max_iter: int = 100, tol: float = 1e-8) -> FirthFit:
    """Fit the penalized-likelihood logistic model on a design matrix."""
    check_fittable(dm, "the failure model")
    beta, pen_ll, iterations, converged, w, factor = _newton(
        dm.X, dm.y, list(range(dm.p)), max_iter, tol
    )

    h = _hat(dm.X, w, factor)
    augmented = _information(dm.X, w * (1.0 + h))
    cov = linalg.Cholesky(augmented).inverse()
    se = np.sqrt(np.diag(cov))
    chisq = (beta / se) ** 2
    p_values = chi2_sf(chisq, 1)

    df = dm.p - 1
    if df > 0:
        _, null_ll, *_ = _newton(dm.X, dm.y, [0], max_iter, tol)
        lr_stat = max(0.0, 2.0 * (pen_ll - null_ll))
        lr_p = chi2_sf(lr_stat, df)
        wald_stat = float(beta @ augmented @ beta)
        wald_p = chi2_sf(wald_stat, df)
    else:
        # Intercept-only model: nothing to test.
        lr_stat, lr_p = 0.0, 1.0
        wald_stat, wald_p = 0.0, 1.0

    return FirthFit(
        labels=dm.labels,
        beta=beta,
        se=se,
        chisq=chisq,
        p_values=p_values,
        pen_log_lik=pen_ll,
        lr_stat=lr_stat,
        lr_df=df,
        lr_p=lr_p,
        wald_stat=wald_stat,
        wald_df=df,
        wald_p=wald_p,
        cov=cov,
        iterations=iterations,
        converged=converged,
    )


def lr_test(full: FirthFit, dm: DesignMatrix) -> tuple[float, int, float]:
    """Penalized likelihood-ratio test of the full fit against intercept-only.

    Refits the null (slopes pinned at zero, penalty from the full design) on
    the same data; returns (statistic, df, p).
    """
    if not full.converged:
        raise ValueError("full fit did not converge; LR test would be meaningless")
    df = dm.p - 1
    if df == 0:
        return 0.0, 0, 1.0
    _, null_ll, *_ = _newton(dm.X, dm.y, [0], max_iter=100, tol=1e-8)
    stat = max(0.0, 2.0 * (full.pen_log_lik - null_ll))
    return stat, df, chi2_sf(stat, df)
