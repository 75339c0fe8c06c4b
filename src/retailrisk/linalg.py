"""Dense linear algebra for the small SPD systems arising in logistic fitting.

Everything here goes through a single unpivoted Cholesky factorization. The
matrices are Fisher informations at most ~8x8, which are symmetric positive
definite whenever the design has full rank and the fit is away from
separation; a failed pivot is therefore itself a useful diagnostic and is
reported as :class:`SingularMatrixError`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RetailRiskError

# A pivot this small relative to the largest diagonal entry is treated as zero.
PIVOT_RTOL = 1e-12

# Allowed relative asymmetry in the input (floating-point noise from X.T @ X).
SYMMETRY_RTOL = 1e-10


class SingularMatrixError(RetailRiskError):
    """Matrix is not positive definite (collinear design or separation)."""


def _as_spd_input(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a - a.T)) > SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric")
    return a


def cholesky(a) -> np.ndarray:
    """Lower-triangular L with L @ L.T == a, for symmetric positive-definite a."""
    a = _as_spd_input(a)
    n = a.shape[0]
    max_diag = float(np.max(np.diag(a)))
    if max_diag <= 0.0:
        raise SingularMatrixError("matrix has no positive diagonal entry")
    lower = np.zeros_like(a)
    for i in range(n):
        for j in range(i + 1):
            s = a[i, j] - lower[i, :j] @ lower[j, :j]
            if i == j:
                if s <= PIVOT_RTOL * max_diag:
                    raise SingularMatrixError(
                        f"non-positive pivot at row {i} (pivot={s:.3e})"
                    )
                lower[i, i] = math.sqrt(s)
            else:
                lower[i, j] = s / lower[j, j]
    return lower


def _forward_sub(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = lower.shape[0]
    x = np.zeros_like(b)
    for i in range(n):
        x[i] = (b[i] - lower[i, :i] @ x[:i]) / lower[i, i]
    return x


def _back_sub(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Solves L.T x = b.
    n = lower.shape[0]
    x = np.zeros_like(b)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - lower[i + 1 :, i] @ x[i + 1 :]) / lower[i, i]
    return x


def solve_spd(a, b) -> np.ndarray:
    """Solve a @ x = b via Cholesky. b may be a vector or a matrix of columns."""
    lower = cholesky(a)
    b = np.asarray(b, dtype=float)
    if b.shape[0] != lower.shape[0]:
        raise ValueError(f"dimension mismatch: {lower.shape[0]}x{lower.shape[0]} vs {b.shape}")
    return _back_sub(lower, _forward_sub(lower, b))


def inverse_spd(a) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix."""
    a = _as_spd_input(a)
    inv = solve_spd(a, np.eye(a.shape[0]))
    # Solving against I leaves tiny asymmetry; the exact inverse is symmetric.
    return (inv + inv.T) / 2.0


def log_det_spd(a) -> float:
    """log(det(a)) for symmetric positive-definite a, as 2*sum(log(diag(L)))."""
    lower = cholesky(a)
    return 2.0 * float(np.sum(np.log(np.diag(lower))))
