"""Firth penalized-likelihood logistic regression.

The estimator maximizes l*(beta) = l(beta) + 0.5*log det I(beta), the
Bernoulli log-likelihood plus the Jeffreys-prior penalty on the Fisher
information I(beta) = X'WX, W = diag(p(1-p)). Solving the modified score
equations keeps coefficients finite even under complete separation, where
plain maximum likelihood diverges (Firth 1993; Heinze & Schemper 2002).

Conventions follow the standard penalized-logistic toolchain so that results
line up with published fits:

* Newton steps (``logistic.newton``, with step-halving) solve with the
  exact negative Hessian of l*, so they converge quadratically even near
  separation; where it is not positive definite, with the hat-augmented
  information X' diag(w*(1+h)) X.
* The variance-covariance matrix is the inverse of the hat-augmented
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
from .distributions import chi2_sf
from .logistic import _coefficients, _evaluate, _information, check_fittable, newton


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


def penalized_loglik(beta, dm: DesignMatrix) -> float:
    """l(beta) + 0.5*log det X'WX (the Jeffreys-prior penalty)."""
    return _evaluate(dm.X, dm.y, _coefficients(beta, dm), True)[0]


def firth_score(beta, dm: DesignMatrix) -> np.ndarray:
    """Modified score U*(beta): gradient of the penalized log-likelihood."""
    return _evaluate(dm.X, dm.y, _coefficients(beta, dm), True)[4]


def fit_firth(dm: DesignMatrix) -> FirthFit:
    """Fit the penalized-likelihood logistic model on a design matrix, under
    the Firth stopping rule of :func:`logistic.newton` (the null refit too)."""
    check_fittable(dm, "the failure model")
    beta, pen_ll, w, h, trace = newton(dm.X, dm.y, penalized=True)

    augmented = _information(dm.X, w * (1.0 + h))
    cov = linalg.Cholesky(augmented).inverse()
    se = np.sqrt(np.diag(cov))
    chisq = (beta / se) ** 2
    p_values = chi2_sf(chisq, 1)

    df = dm.p - 1
    if df > 0:
        null_ll = newton(dm.X, dm.y, penalized=True, free_idx=[0])[1]
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
        iterations=trace.steps,
        converged=trace.converged,
    )

