"""Firth penalized-likelihood logistic regression.

The estimator maximizes l*(beta) = l(beta) + 0.5*log det I(beta), the
Bernoulli log-likelihood plus the Jeffreys-prior penalty on the Fisher
information I(beta) = X'WX, W = diag(p(1-p)). Solving the modified score
equations keeps coefficients finite even under complete separation, where
plain maximum likelihood diverges (Firth 1993; Heinze & Schemper 2002).

Conventions follow the standard penalized-logistic toolchain so that results
line up with published fits:

* Newton steps (the one Newton loop of ``logistic``, with step-halving)
  solve with the exact negative Hessian of l*, so they converge
  quadratically even near separation; where it is not positive definite,
  with the hat-augmented information X' diag(w*(1+h)) X.
* The standard errors are the square roots of the diagonal of the inverse
  of the hat-augmented information at the solution, read from its Cholesky
  factor without forming the inverse; per-coefficient Wald chi-squares are
  (beta/se)^2 on one degree of freedom.
* The likelihood-ratio test compares the penalized likelihood with its
  maximum over the null model, the slopes pinned at zero (the penalty still
  uses the full design), on p-1 degrees of freedom. That maximum has a closed
  form (see :func:`_fit_firth`), so no second fit is run.
* The global Wald statistic is the quadratic form of the full coefficient
  vector in the hat-augmented information, reported on p-1 degrees of freedom.

As the screens do, the fit runs on unit-scaled columns (``_fit_firth``): only
beta, se and l*, whose log det X'WX depends on the units, are scaled back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dataset import DesignMatrix
from .distributions import chi2_sf
from .errors import RetailRiskError
from .logistic import (_evaluate_design, _evaluate_stack, _information, _newton_stack,
                       _z_tests, check_fittable)


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
    iterations: int
    converged: bool


def penalized_loglik(beta, dm: DesignMatrix) -> float:
    """l(beta) + 0.5*log det X'WX (the Jeffreys-prior penalty)."""
    return _evaluate_design(beta, dm, True)[0]


def firth_score(beta, dm: DesignMatrix) -> np.ndarray:
    """Modified score U*(beta): gradient of the penalized log-likelihood."""
    return _evaluate_design(beta, dm, True)[1]


def fit_firth(dm: DesignMatrix) -> FirthFit:
    """Fit the penalized-likelihood logistic model on a design matrix, under
    the Firth stopping rule of :func:`logistic._newton_stack`.
    Errors start with ``failure model:``; every matrix factored here spans the
    whole design, so a failed pivot's row names its design column (its figures,
    in scaled units, are left out)."""
    try:
        return _fit_firth(dm)
    except linalg.SingularMatrixError as exc:
        cause = f"{dm.labels[exc.row]} is collinear with earlier design columns" if exc.row else exc
        raise linalg.SingularMatrixError(f"failure model: {cause}", exc.row) from None
    except RetailRiskError as exc:
        raise type(exc)(f"failure model: {exc}") from None


def _fit_firth(dm: DesignMatrix) -> FirthFit:
    """One Newton run, then l* at the null model's maximizer for the LR test.

    With the slopes pinned at zero every row has the same p, so X'WX =
    p(1-p) X'X and log det X'WX = dm.p * log(p(1-p)) + log det X'X. Since
    log(p(1-p)) = b0 - 2 log(1 + e^b0) for p = expit(b0), l* along the
    intercept b0 is

        (sum(y) + dm.p/2) * b0 - (n + dm.p) * log(1 + e^b0) + const,

    the log-likelihood of sum(y) + dm.p/2 successes in n + dm.p trials:
    strictly concave, with its one maximum at p = (sum(y) + dm.p/2) /
    (n + dm.p). There the intercept's modified score sum(y) - n p +
    sum(h) (1/2 - p) is zero, as the hat diagonals h sum to dm.p.
    """
    check_fittable(dm.X, dm.y, "the Firth fit")
    df = dm.p - 1
    e = linalg.binary_exponents(dm.X, 0)[0]
    X = np.ldexp(np.asarray(dm.X, dtype=float, order="C"), -e)  # layout sets the bits
    beta, pen_ll, w, h, trace = _newton_stack(X[None], dm.y, penalized=True)[0]

    augmented = _information(X, w * (1.0 + h))
    se = linalg.Cholesky(augmented).inverse_diag_sqrt()
    z, p_values = _z_tests(beta, se)
    # sqrt(z*z) == |z| in floating point: p_values == chi2_sf(chisq, 1) bit for bit.
    chisq = z * z

    if df > 0:
        prob = (float(dm.y.sum()) + 0.5 * dm.p) / (dm.n + dm.p)
        null = np.zeros(dm.p)
        null[0] = math.ldexp(math.log(prob / (1.0 - prob)), int(e[0]))  # on X[:, 0] = 2^-e[0]
        null_ll = _evaluate_stack(X[None], dm.y, null[None], True)[0][0]
        lr_stat = max(0.0, 2.0 * (pen_ll - null_ll))
        lr_p = chi2_sf(lr_stat, df)
        wald_stat = float(beta @ augmented @ beta)
        wald_p = chi2_sf(wald_stat, df)
    else:
        # Intercept-only model: nothing to test.
        lr_stat, lr_p = 0.0, 1.0
        wald_stat, wald_p = 0.0, 1.0

    with np.errstate(over="ignore"):  # a slope beyond the range of its unit is inf
        beta, se = np.ldexp(beta, -e), np.ldexp(se, -e)
    return FirthFit(
        labels=dm.labels,
        beta=beta,
        se=se,
        chisq=chisq,
        p_values=p_values,
        pen_log_lik=pen_ll + math.log(2.0) * sum(e.tolist()),
        lr_stat=lr_stat,
        lr_df=df,
        lr_p=lr_p,
        wald_stat=wald_stat,
        wald_df=df,
        wald_p=wald_p,
        iterations=trace.steps,
        converged=trace.converged,
    )

