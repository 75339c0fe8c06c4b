"""Dense linear algebra for the small SPD systems arising in logistic fitting.

Everything here goes through one object, :class:`Cholesky`, which computes
an unpivoted Cholesky factor in scalar Python arithmetic: for the 1x1 to 4x4
Fisher informations of this package that is far cheaper than a numpy call per
element. It has two entries to one factor loop. ``Cholesky(a)`` takes any
input and validates it first (square, finite, symmetric);
``Cholesky._of_symmetric`` takes the symmetric float matrices the package
forms itself (X'WX and its Firth variants) and checks only that every entry
is finite, as their shape and symmetry hold by construction.
The factor then serves solves, the log-determinant, the whitening ``L^-1 B``
that gives hat diagonals and the square roots of diag(a^-1) that give standard
errors, so a Newton step that needs several of them factors its matrix once.
The matrices are symmetric positive definite whenever the design has full rank
and the fit is away from separation; a failed pivot is therefore itself a
useful diagnostic and is reported as :class:`SingularMatrixError`; an infinite
or NaN entry (an overflowed product) as :class:`NonFiniteMatrixError`.
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

# Allowed relative asymmetry of a matrix given to ``Cholesky(a)`` (floating-point
# noise from X.T @ X).
SYMMETRY_RTOL = 1e-10


class SingularMatrixError(RetailRiskError):
    """Matrix is not positive definite (collinear design or separation) at
    the pivot of ``row``."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


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
        self._factor(_validated_rows(a))

    @classmethod
    def _of_symmetric(cls, a: np.ndarray) -> Cholesky:
        """The factor of a square float array that this package formed as a
        Gram matrix X'DX, or a sum of them: symmetric by construction up to
        rounding, of which the factor reads the lower triangle. Every entry is
        checked to be finite; the shape and the symmetry are not checked."""
        rows = a.tolist()
        if not all(map(math.isfinite, chain.from_iterable(rows))):
            raise NonFiniteMatrixError("matrix has non-finite entries")
        factor = cls.__new__(cls)
        factor._factor(rows)
        return factor

    def _factor(self, rows: list[list[float]]) -> None:
        """Factor the lower triangle of ``rows``, the one loop of both entries."""
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
                raise SingularMatrixError(
                    f"non-positive pivot at row {i} (pivot={pivot:.3e})" if pivot <= 0.0 else
                    f"pivot at row {i} below {PIVOT_RTOL:g} x its diagonal "
                    f"(pivot={pivot:.3e}, diagonal={a_i[i]:.3e})", i)
            l_i.append(math.sqrt(pivot))
            lower.append(l_i)
        self.n = len(rows)
        self._rows = lower

    def solve(self, b) -> np.ndarray:
        """x with a @ x == b for a vector b of length n."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}, got shape {b.shape}")
        return np.array(self._solve(b.tolist()))

    def _solve(self, b: list[float]) -> list[float]:
        """:meth:`solve` on the n Python floats of b, as Python floats."""
        lower = self._rows
        z = []
        for l_i, b_i in zip(lower, b):  # L z = b
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
        return x

    def _inverse_lower(self) -> list[list[float]]:
        """The rows of L^-1 (lower triangular), by forward substitution on I."""
        n, lower = self.n, self._rows
        inv = [[0.0] * n for _ in range(n)]
        for j in range(n):
            for i in range(j, n):
                l_i = lower[i]
                dot = 0.0
                for k in range(j, i):
                    dot += l_i[k] * inv[k][j]
                inv[i][j] = ((1.0 if i == j else 0.0) - dot) / l_i[i]
        return inv

    def inverse_diag_sqrt(self) -> np.ndarray:
        """sqrt(diag(a^-1)), the norms of the columns of L^-1 since a^-1 =
        L^-T L^-1. No entry of a^-1 is formed, so a root is refused only when
        it is itself beyond the float range (a :class:`NonFiniteMatrixError`)."""
        roots = np.array([math.hypot(*column) for column in zip(*self._inverse_lower())])
        if not np.all(np.isfinite(roots)):
            raise NonFiniteMatrixError("inverse has non-finite entries")
        return roots

    def log_det(self) -> float:
        """log(det(a)) = 2*sum(log(diag(L)))."""
        total = 0.0
        for row in self._rows:
            total += math.log(row[-1])
        return 2.0 * total

    def whiten(self, b) -> np.ndarray:
        """L^-1 @ b for a matrix b of columns (n rows)."""
        return np.array(self._inverse_lower()) @ b
