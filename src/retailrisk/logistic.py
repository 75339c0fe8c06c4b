"""Binary logistic regression by iteratively reweighted least squares.

Newton-Raphson on the Bernoulli log-likelihood with step-halving, Wald
z-tests against the standard normal, AIC, and separation diagnostics. A
singular Fisher information is a divergence signal, not an error: the fit is
returned unconverged with its separation diagnosis so callers can decide what
to do (the penalized fitter, which shares the damped-Newton loop, exists for
exactly these designs).

The fits run on columns scaled by powers of two (``linalg.binary_exponents``),
exactly: only beta and se are scaled back, and no entry of X'WX exceeds n/4.

There is one Newton loop, :func:`_newton_stack`, and it runs a stack of
designs X (k, n, p) that share the response: the univariate designs of a
report's 14 screens, or the Firth fit as a stack of one. The n-row products
of a step (X beta, the log-likelihood, p, W, the score, X'WX) are stacked
numpy calls that make the same BLAS call per member as on the member's
design alone; each member's step matrix is factored on its own; every member
keeps its own coefficients, step count, halvings and stop, and leaves the
stack when it stops. So each member ends with the bits of its run as a stack
of one, which is what :func:`newton` and :func:`fit_logistic` are. The Wald
tests and the separation check's column SDs after the loop are taken once
per stack, elementwise or within each member, with the same bits.

Two row passes of an evaluation depend on the number of rows n alone, which
every member of a stack shares with its stack of one. Below LONG_ROWS (256)
they are single numpy calls: ``np.logaddexp(0, eta)``, which runs scalar
libm per element, and the broadcast product X * w[..., None], whose inner
loop is p elements long. From LONG_ROWS on they are SIMD loops over n rows:
log(1 + e^eta) is logaddexp's own formula max(eta, 0) + log1p(e^-|eta|) as
passes over one buffer, with |eta| clamped at 708 first (SIMD exp takes a
path about 150x slower below -708.4; a term below e^-708 = 3.3e-308 is taken
as e^-708), and X diag(w) is filled one column at a time into the same
C-ordered array as the broadcast product, so X'WX keeps its bits. A row's
log(1 + e^eta) may then differ from logaddexp's by a few ulp (at most 3 of
it, and 2 of max(|eta|, it), over 2.8e7 normal draws of eta with SDs from
1e-3 to 700), and so may the objective by a few ulp per row. The objective
only gates step-halving (HALVING_RTOL) and gives the log-likelihood, AIC and
the LR statistic, which are printed at 3 decimals: every iterate, weight and
X'WX is that of the logaddexp run unless a halving decision flips.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
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
# 1,500-row benchmark panels; 2.4e-9 at 1e-6, which saves 3 of a report's 134
# factorizations).
ETA_TOL = 1e-7
# A step is halved only while the trial objective is below the current one by
# more than this share of |objective|, the rounding noise of an n-term sum.
HALVING_RTOL = 1e-12
MLE_MAX_STEPS = 50          # the log-likelihood l
FIRTH_MAX_STEPS = 100       # Firth's l*
# A design of at least this many rows takes the SIMD forms of log(1 + e^eta)
# and X diag(w) (see the module docstring). In a sweep of 32-1,500 rows they
# gained on a stack of 14 from 64-128 rows, and on a stack of one from
# 768-1,024 rows, below which they cost it a few microseconds a call.
LONG_ROWS = 256


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
    iterations: int
    converged: bool
    separation: str


def _coefficients(beta, dm: DesignMatrix) -> np.ndarray:
    """beta as a float vector of the design's p coefficients, else ValueError."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (dm.p,):
        raise ValueError(f"expected {dm.p} coefficients, got shape {beta.shape}")
    return beta


def log_likelihood(beta, dm: DesignMatrix) -> float:
    """Bernoulli log-likelihood at beta, overflow-safe for large |eta|."""
    return _evaluate(dm.X, dm.y, _coefficients(beta, dm), False)[0]


def check_fittable(dm: DesignMatrix, model: str) -> None:
    """Refuse a design with fewer rows than coefficients or a single-class
    response, on which ``model`` is undefined."""
    if dm.n < dm.p:
        raise DegenerateDataError(f"need n >= p to fit, got n={dm.n}, p={dm.p}")
    ones = int(np.sum(dm.y))
    if ones == 0 or ones == dm.n:
        raise DegenerateResponseError(f"response contains a single class; {model} is undefined")


def _information(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """X' diag(w) X, or one per member for a stack X (k, n, p) and w (k, n).
    On a long design, X diag(w) is filled one column at a time: the same
    C-ordered array as the broadcast product, so the same BLAS call and bits."""
    if X.shape[-2] < LONG_ROWS:
        return (X * w[..., None]).swapaxes(-1, -2) @ X
    weighted = np.empty(X.shape)
    for j in range(X.shape[-1]):
        np.multiply(X[..., j], w, out=weighted[..., j])
    return weighted.swapaxes(-1, -2) @ X


#: A factorization that failed: the matrix is singular or has overflowed.
FACTOR_ERRORS = (linalg.SingularMatrixError, linalg.NonFiniteMatrixError)


class NewtonTrace(NamedTuple):
    """Steps, step-halvings, final max |score| over all coefficients."""

    steps: int
    halvings: int
    max_score: float
    converged: bool


def _softplus_simd(eta: np.ndarray) -> np.ndarray:
    """log(1 + e^eta) of a long design, overflow-safe, as SIMD passes over
    one buffer: max(eta, 0) + log1p(e^-min(|eta|, 708)), logaddexp(0, eta)'s
    own formula with |eta| clamped (see the module docstring)."""
    terms = np.abs(eta)
    np.minimum(terms, 708.0, out=terms)
    np.negative(terms, out=terms)
    np.exp(terms, out=terms)
    np.log1p(terms, out=terms)
    np.add(terms, eta, out=terms, where=eta > 0.0)
    return terms


def _evaluate_stack(X: np.ndarray, y: np.ndarray, beta: np.ndarray, penalized: bool):
    """(objective, eta = X beta, prob, w = p(1-p), score, q, z) at each row of
    beta (k, p) for the stack of designs X (k, n, p) sharing y: the
    objectives as a list of floats, the rest with one entry per member along
    the first axis. For l, whose Newton step needs none of them, prob = q =
    z = None, so neither the current nor the trial state keeps an n-row prob.
    For l* = l + 0.5*log det X'WX: the modified score X'(y - p + h(0.5 - p)),
    z = L^-1 X' for the factor L of X'WX and q = colsum(z^2), so h = w*q.
    Every member's numbers are those of the same operations on its own
    design: a stacked matmul makes one BLAS call per member, a reduction
    runs within each member, and each member's X'WX is factored on its own."""
    eta = (X @ beta[..., None])[..., 0]
    softplus = np.logaddexp(0.0, eta) if len(y) < LONG_ROWS else _softplus_simd(eta)
    value = ((eta[:, None, :] @ y)[:, 0] - softplus.sum(axis=-1)).tolist()
    del softplus  # an n-row buffer: freed before the next ones are made
    prob = expit(eta)
    w = prob * (1.0 - prob)
    Xt = X.swapaxes(1, 2)
    if not penalized:
        return value, eta, None, w, (Xt @ (y - prob)[..., None])[..., 0], None, None
    info = _information(X, w)
    factors = [linalg.Cholesky(a) for a in info]
    z = np.array([factor.whiten(Xt[i]) for i, factor in enumerate(factors)])
    q = (z * z).sum(axis=1)
    score = (Xt @ (y - prob + w * q * (0.5 - prob))[..., None])[..., 0]
    value = [v + 0.5 * factor.log_det() for v, factor in zip(value, factors)]
    return value, eta, prob, w, score, q, z


def _evaluate(X: np.ndarray, y: np.ndarray, beta: np.ndarray, penalized: bool):
    """:func:`_evaluate_stack` for one design X (n, p) at beta (p,)."""
    state = _evaluate_stack(X[None], y, beta[None], penalized)
    return tuple(None if a is None else a[0] for a in state)


def _negative_hessian(X: np.ndarray, prob: np.ndarray, w: np.ndarray, q: np.ndarray,
                      z: np.ndarray) -> np.ndarray:
    """-d2 l*/d beta2 = X'WX - H_P with H_P = 0.5 [X' diag(q w'') X - U'(Q o Q)U],
    Q = X (X'WX)^-1 X', U = diag(w') X, w' = w(1-2p) and w'' = w(1-6w). The
    p^2 row products of z form K with Q o Q = K'K, so U'(Q o Q)U = (KU)'(KU)."""
    p, n = z.shape
    u = X * (w * (1.0 - 2.0 * prob))[:, None]
    ku = (z[:, None, :] * z[None, :, :]).reshape(p * p, n) @ u
    return _information(X, w - 0.5 * q * w * (1.0 - 6.0 * w)) + 0.5 * (ku.T @ ku)


def _penalized_step(X, prob, w, q, z) -> linalg.Cholesky:
    """The factored step matrix of l*: the exact negative Hessian, else the
    augmented X' diag(w(1+h)) X."""
    try:
        return linalg.Cholesky(_negative_hessian(X, prob, w, q, z))
    except FACTOR_ERRORS:
        return linalg.Cholesky(_information(X, w * (1.0 + w * q)))


def _rows(arrays, rows):
    """The given rows, in ascending order, of every array or list that is
    not None."""
    return [None if a is None else [a[r] for r in rows] if isinstance(a, list) else a[rows]
            for a in arrays]


# A diverging fit can step beyond the float range even on unit-scaled columns;
# linalg refuses what follows, and numpy's warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def _newton_stack(X: np.ndarray, y: np.ndarray, penalized: bool = False):
    """Damped Newton from beta = 0 on the log-likelihood l or, if
    ``penalized``, on Firth's l* = l + 0.5*log det X'WX, for every member of
    a stack of designs X (k, n, p) that share the response y.

    A step is halved up to 10 times while the objective falls by more than
    rounding noise (HALVING_RTOL). A member has converged once a full step
    moves none of its linear predictors by more than ETA_TOL, and stops
    unconverged after MLE_MAX_STEPS or FIRTH_MAX_STEPS steps; a member whose
    step matrix is singular or has overflowed takes a zero step and stops
    unconverged at the end of that step, with the state of its last beta.
    Each member keeps its own beta, steps, halvings and stop, and its step
    matrix is factored on its own, so a member laid out as design_matrix
    lays designs out (C order) ends with the bits of its run as a stack of
    one. The members that stop leave the working stack at the end of the
    step; the n-sized products of the others run stacked at every step.
    Returns one (beta, objective, w = p(1-p), hat diagonals h or None, trace)
    per member, in stack order.
    """
    max_steps = FIRTH_MAX_STEPS if penalized else MLE_MAX_STEPS
    k, _, p = X.shape
    runs = [None] * k
    # Per row of the working stack: its member, halvings, beta and state.
    members, halvings = list(range(k)), [0] * k
    beta = np.zeros((k, p))
    # The objective and its derivatives always belong to the current beta.
    state = _evaluate_stack(X, y, beta, penalized)
    for steps in range(1, max_steps + 1):
        value, eta, prob, w, score, q, z = state
        info = _information(X, w) if q is None else None
        scores = score.tolist()
        deltas, failed = [], set()
        for r in range(len(members)):
            try:
                step = (linalg.Cholesky(info[r]) if q is None else
                        _penalized_step(X[r], prob[r], w[r], q[r], z[r]))
            except FACTOR_ERRORS:
                # Weights collapsed: coefficients are running off to infinity;
                # the member takes a zero step and stops after it.
                failed.add(r)
                deltas.append([0.0] * p)
            else:
                deltas.append(step.solve(scores[r]))
        delta = np.array(deltas)
        new = beta + delta
        # If every member failed, new is beta and its evaluation is the state's.
        trial = state if len(failed) == len(members) else _evaluate_stack(X, y, new, penalized)
        # x_i'delta of the full step, from the linear predictor it produced.
        moved = trial[1] - eta
        moved = np.abs(moved, out=moved).max(axis=-1).tolist()
        floors = [v - HALVING_RTOL * abs(v) for v in value]
        halve = [r for r, v in enumerate(trial[0]) if v < floors[r]]
        for _ in range(10):
            if not halve:
                break
            # A member that does not halve keeps its row of new and, evaluated
            # again at it, the same bits.
            delta[halve] = delta[halve] / 2.0
            new = beta + delta
            trial = _evaluate_stack(X, y, new, penalized)
            for r in halve:
                halvings[r] += 1
            halve = [r for r in halve if trial[0][r] < floors[r]]
        beta, state = new, trial
        value, _, _, w, score, q, _ = state
        stops = [r for r, m in enumerate(moved)
                 if m <= ETA_TOL or r in failed or steps == max_steps]
        for r in stops:
            h = None if q is None else w[r] * q[r]
            converged = moved[r] <= ETA_TOL and r not in failed
            trace = NewtonTrace(steps, halvings[r], float(np.abs(score[r]).max()), converged)
            runs[members[r]] = (beta[r], value[r], w[r], h, trace)
        if len(stops) == len(members):
            break
        if stops:
            kept = [r for r in range(len(members)) if r not in stops]
            X, beta, members, halvings, *state = _rows([X, beta, members, halvings, *state], kept)
    return runs


def newton(X: np.ndarray, y: np.ndarray, penalized: bool = False):
    """The run of :func:`_newton_stack` on one design X (n, p), a stack of
    one. Returns (beta, objective, w = p(1-p), hat diagonals h or None, trace)."""
    return _newton_stack(X[None], y, penalized)[0]


def _z_tests(beta: np.ndarray, se: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Wald z = beta / se and its two-sided p-value, elementwise, so a stack
    of coefficient vectors gets each member's bits in one pass."""
    z = beta / se
    return z, 2.0 * norm_sf(np.abs(z))


def fit_logistic(dm: DesignMatrix) -> MleFit:
    """Fit ``y ~ X`` by IRLS from beta = 0 under the MLE stopping rule.

    Non-convergence (or a singular information matrix) is
    reported through ``converged=False`` plus the ``separation`` diagnosis,
    never silently. The fit of a stack of one.
    """
    return _fit_stack([dm])[0]


def _fit_stack(dms: Sequence[DesignMatrix]) -> list[MleFit]:
    """:func:`fit_logistic` of every design, in one Newton loop over their
    stack; the designs share y and their shape, so the first is refused
    for all. Each fit has the bits of its own :func:`fit_logistic`.

    After the loop, z, the p-values and the separation check's column SDs
    are taken for the whole stack at once. Only each member's Wald factor
    (NaN se, z and p for that member alone if it fails) and the fitted
    probabilities of a diverged or unconverged member are its own."""
    check_fittable(dms[0], "logistic MLE")
    X = np.array([dm.X for dm in dms], dtype=float)  # a caller's X is never scaled
    e = linalg.binary_exponents(X, 1)
    np.ldexp(X, -e, out=X)
    runs = _newton_stack(X, dms[0].y)
    beta = np.array([b for b, _, _, _, _ in runs])
    se = np.full(beta.shape, np.nan)
    infos = _information(X, np.array([w for _, _, w, _, _ in runs]))
    for i, info in enumerate(infos):
        try:
            se[i] = linalg.Cholesky(info).inverse_diag_sqrt()
        except FACTOR_ERRORS:
            pass
    z, p_values = _z_tests(beta, se)
    sds = X[:, :, 1:].std(axis=1, ddof=1)
    with np.errstate(over="ignore"):  # a slope beyond the range of its unit is inf
        raw_beta, raw_se = np.ldexp(beta, -e[:, 0]), np.ldexp(se, -e[:, 0])
    return [MleFit(
        labels=dm.labels,
        beta=raw_beta[i],
        se=raw_se[i],
        z=z[i],
        p_values=p_values[i],
        log_lik=ll,
        aic=2.0 * dm.p - 2.0 * ll,
        iterations=trace.steps,
        converged=trace.converged,
        separation=_separation(X[i], dm.y, beta[i], trace.converged, sds[i]),
    ) for i, (dm, (_, ll, _, _, trace)) in enumerate(zip(dms, runs))]


# A diverged beta can be inf (see _newton_stack); the comparisons still diagnose it.
@np.errstate(over="ignore", invalid="ignore")
def _separation(X: np.ndarray, y: np.ndarray, beta: np.ndarray, converged: bool,
                sd: np.ndarray) -> str:
    """Diagnose complete/quasi separation from beta fitted (or stalled) on unit-scaled X.

    Divergence is flagged when any slope exceeds the bound on the column's
    standard-deviation scale (``sd``, the ``numpy.std(ddof=1)`` of the
    slope columns), or when an unconverged fit has pushed fitted probabilities
    onto the 0/1 boundary. Diverged fits are ``complete`` when every
    observation is classified to within 1e-4, otherwise ``quasi``.
    """
    if not np.all(np.isfinite(beta)):
        diverged = True
    else:
        standardized = np.abs(beta[1:]) * sd
        diverged = bool(np.any(standardized > DIVERGENCE_BOUND))
        if not diverged and not converged:
            prob = expit(X @ beta)
            diverged = bool(np.any((prob < 1e-8) | (prob > 1.0 - 1e-8)))
    if not diverged:
        return SEPARATION_NONE
    prob = expit(X @ beta)
    if np.all(np.abs(prob - y) < 1e-4):
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
