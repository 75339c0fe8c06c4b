"""Dense linear algebra for the small SPD systems arising in logistic fitting.

Everything here goes through one object, :class:`Cholesky`: it validates a
matrix once (square, finite, symmetric) and computes its unpivoted Cholesky
factor in scalar Python arithmetic, which for the 1x1 to 4x4 Fisher
informations of this package is far cheaper than a numpy call per element.
The factor then serves solves, the inverse, the log-determinant and the
whitening ``L^-1 B`` that gives hat diagonals, so a Newton step that needs
several of them factors its matrix once. The matrices are symmetric positive
definite whenever the design has full rank and the fit is away from
separation; a failed pivot is therefore itself a useful diagnostic and is
reported as :class:`SingularMatrixError`; an infinite or NaN entry (an
overflowed product) as :class:`NonFiniteMatrixError`.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import sub

import numpy as np

from .errors import RetailRiskError

# A pivot this small relative to its own diagonal entry is treated as zero: all
# of that row's mass lies in the span of the rows before it. The test is the
# same for D a D with any positive diagonal D, so column units do not matter.
PIVOT_RTOL = 1e-12

# Allowed relative asymmetry in the input (floating-point noise from X.T @ X).
SYMMETRY_RTOL = 1e-10


class SingularMatrixError(RetailRiskError):
    """Matrix is not positive definite (collinear design or separation)."""


class NonFiniteMatrixError(RetailRiskError):
    """Matrix has an infinite or NaN entry (overflow in its products)."""


def _validated_rows(a) -> list[list[float]]:
    """The rows of a square, finite, symmetric matrix as Python floats."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    rows = a.tolist()
    entries = list(chain.from_iterable(rows))
    if not all(map(math.isfinite, entries)):
        raise NonFiniteMatrixError("matrix has non-finite entries")
    scale = max(1.0, max(map(abs, entries)))
    transposed = chain.from_iterable(zip(*rows))
    if max(map(abs, map(sub, entries, transposed))) > SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric")
    return rows


class Cholesky:
    """Lower-triangular L with L @ L.T == a, for symmetric positive-definite a.

    The factor is kept as nested lists of Python floats (row i holds its
    i + 1 entries on and below the diagonal).
    """

    __slots__ = ("n", "_rows")

    def __init__(self, a):
        rows = _validated_rows(a)
        lower: list[list[float]] = []
        for i, a_i in enumerate(rows):
            l_i: list[float] = []
            for j, l_j in enumerate(lower):
                dot = 0.0
                for k in range(j):
                    dot += l_i[k] * l_j[k]
                l_i.append((a_i[j] - dot) / l_j[j])
            dot = 0.0
            for v in l_i:
                dot += v * v
            pivot = a_i[i] - dot
            if pivot <= PIVOT_RTOL * a_i[i]:
                if pivot <= 0.0:
                    raise SingularMatrixError(f"non-positive pivot at row {i} (pivot={pivot:.3e})")
                raise SingularMatrixError(
                    f"pivot at row {i} below {PIVOT_RTOL:g} x its diagonal "
                    f"(pivot={pivot:.3e}, diagonal={a_i[i]:.3e})"
                )
            l_i.append(math.sqrt(pivot))
            lower.append(l_i)
        self.n = len(rows)
        self._rows = lower

    def solve(self, b) -> np.ndarray:
        """x with a @ x == b for a vector b of length n."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}, got shape {b.shape}")
        lower = self._rows
        z = []
        for l_i, b_i in zip(lower, b.tolist()):  # L z = b
            dot = 0.0
            for l_ik, z_k in zip(l_i, z):
                dot += l_ik * z_k
            z.append((b_i - dot) / l_i[-1])
        x = [0.0] * self.n
        for i in range(self.n - 1, -1, -1):  # L.T x = z
            dot = 0.0
            for k in range(i + 1, self.n):
                dot += lower[k][i] * x[k]
            x[i] = (z[i] - dot) / lower[i][i]
        return np.array(x)

    def _inverse_lower(self) -> np.ndarray:
        """L^-1 (lower triangular), by forward substitution on the identity."""
        n, lower = self.n, self._rows
        inv = [[0.0] * n for _ in range(n)]
        for j in range(n):
            for i in range(j, n):
                l_i = lower[i]
                dot = 0.0
                for k in range(j, i):
                    dot += l_i[k] * inv[k][j]
                inv[i][j] = ((1.0 if i == j else 0.0) - dot) / l_i[i]
        return np.array(inv)

    def inverse(self) -> np.ndarray:
        """a^-1 = L^-T L^-1, exactly symmetric."""
        inv_lower = self._inverse_lower()
        return inv_lower.T @ inv_lower

    def log_det(self) -> float:
        """log(det(a)) = 2*sum(log(diag(L)))."""
        total = 0.0
        for row in self._rows:
            total += math.log(row[-1])
        return 2.0 * total

    def whiten(self, b) -> np.ndarray:
        """L^-1 @ b for a matrix b of columns (n rows)."""
        return self._inverse_lower() @ b
