import math

import numpy as np
import pytest

from retailrisk import dataset, linalg
from retailrisk.linalg import NonFiniteMatrixError, SingularMatrixError


def random_spd(rng, size):
    m = rng.standard_normal((size, size))
    return m @ m.T + size * np.eye(size)


# --- independent oracles ------------------------------------------------------

def gauss_solve(a, b):
    """Gaussian elimination with partial pivoting (no Cholesky anywhere)."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    aug = np.hstack([a, b[:, None]])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, -1]


def laplace_det(a):
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * laplace_det(minor)
    return total


def adjugate_inverse(a):
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    det = laplace_det(a)
    cof = np.empty_like(a)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
            cof[i, j] = (-1.0) ** (i + j) * laplace_det(minor)
    return cof.T / det


def factor_of(a):
    """L^T = L^-1 a, read back from a factor's whitening of a itself."""
    return linalg.Cholesky(a).whiten(a).T


def inverse_of(factor):
    """a^-1 = L^-T L^-1, from a factor's whitening of the identity."""
    inv_lower = factor.whiten(np.eye(factor.n))
    return inv_lower.T @ inv_lower


class TestCholesky:
    def test_identity(self):
        factor = linalg.Cholesky(np.eye(3))
        b = np.array([3.0, -1.0, 2.0])
        assert factor.solve(b.tolist()) == b.tolist()
        assert np.array_equal(factor.inverse_diag_sqrt(), np.ones(3))
        assert factor.log_det() == 0.0

    def test_one_by_one(self):
        assert factor_of(np.array([[4.0]])).tolist() == [[2.0]]

    def test_hand_checked_2x2(self):
        # L = [[2, 0], [1, sqrt(2)]]: det 8, inverse [[3, -2], [-2, 4]] / 8.
        factor = linalg.Cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        np.testing.assert_allclose(factor.solve([6.0, 5.0]), [1.0, 1.0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(factor.inverse_diag_sqrt(), np.sqrt([0.375, 0.5]),
                                   rtol=0, atol=1e-15)
        assert factor.log_det() == pytest.approx(math.log(8.0), abs=1e-15)

    def test_final_model_gram_matrix_is_full_rank(self):
        dm = dataset.design_matrix(
            dataset.embedded_dataset(),
            ["us_inflation_rate", "ltd_over_rev", "ebitda_over_rev"],
        )
        gram = np.zeros((dm.p, dm.p))
        for row in dm.X:  # brute-force Gram accumulation
            gram += np.outer(row, row)
        assert np.linalg.matrix_rank(gram) == dm.p
        np.testing.assert_allclose(gram @ inverse_of(linalg.Cholesky(gram)), np.eye(dm.p),
                                   rtol=0, atol=1e-10)

    def test_reconstruction_random_spd(self):
        rng = np.random.default_rng(7)
        for size in range(1, 9):
            a = random_spd(rng, size)
            factor = linalg.Cholesky(a)
            b = rng.standard_normal(size)
            assert np.linalg.norm(a @ factor.solve(b.tolist()) - b) <= 1e-10 * np.linalg.norm(b)
            np.testing.assert_allclose(a @ inverse_of(factor), np.eye(size), rtol=0, atol=1e-10)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(SingularMatrixError):
            linalg.Cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
        with pytest.raises(SingularMatrixError):
            linalg.Cholesky(np.zeros((2, 2)))
        ones = np.ones((3, 3))  # rank one
        with pytest.raises(SingularMatrixError):
            linalg.Cholesky(ones)


class TestSolveSpd:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        assert linalg.Cholesky(np.eye(3)).solve(b.tolist()) == b.tolist()

    def test_diagonal(self):
        x = linalg.Cholesky(np.diag([2.0, 4.0])).solve([2.0, 4.0])
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)

    def test_matches_gaussian_elimination_oracle(self):
        rng = np.random.default_rng(11)
        a = random_spd(rng, 4)
        b = rng.standard_normal(4)
        np.testing.assert_allclose(linalg.Cholesky(a).solve(b.tolist()), gauss_solve(a, b),
                                   atol=1e-8)

    def test_residual_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = random_spd(rng, 6)
            b = rng.standard_normal(6)
            x = linalg.Cholesky(a).solve(b.tolist())
            assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)


class TestInverseSpd:
    def test_identity(self):
        np.testing.assert_array_equal(linalg.Cholesky(np.eye(4)).inverse_diag_sqrt(), np.ones(4))

    def test_diagonal(self):
        np.testing.assert_allclose(
            linalg.Cholesky(np.diag([2.0, 5.0])).inverse_diag_sqrt(), np.sqrt([0.5, 0.2]),
            atol=1e-14
        )

    def test_matches_adjugate_oracle(self):
        rng = np.random.default_rng(17)
        a = random_spd(rng, 4)
        factor = linalg.Cholesky(a)
        np.testing.assert_allclose(inverse_of(factor), adjugate_inverse(a), atol=1e-8)
        np.testing.assert_allclose(factor.inverse_diag_sqrt(),
                                   np.sqrt(np.diag(adjugate_inverse(a))), atol=1e-8)

    def test_product_is_identity(self):
        rng = np.random.default_rng(19)
        a = random_spd(rng, 7)
        np.testing.assert_allclose(a @ inverse_of(linalg.Cholesky(a)), np.eye(7), atol=1e-8)


class TestLogDetSpd:
    def test_identity_is_zero(self):
        assert linalg.Cholesky(np.eye(5)).log_det() == 0.0

    def test_diagonal_exact(self):
        a = np.diag([math.e, math.e**2])
        assert linalg.Cholesky(a).log_det() == pytest.approx(3.0, abs=1e-12)

    def test_matches_laplace_expansion_oracle(self):
        rng = np.random.default_rng(23)
        a = random_spd(rng, 3)
        expected = math.log(laplace_det(a))
        assert linalg.Cholesky(a).log_det() == pytest.approx(expected, rel=1e-10)

    def test_inverse_negates_log_det(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            a = random_spd(rng, 5)
            factor = linalg.Cholesky(a)
            total = factor.log_det() + linalg.Cholesky(inverse_of(factor)).log_det()
            assert abs(total) <= 1e-8

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            linalg.Cholesky(np.ones((2, 2)))


def test_solve_and_inverse_agree():
    rng = np.random.default_rng(31)
    a = random_spd(rng, 5)
    b = rng.standard_normal(5)
    factor = linalg.Cholesky(a)
    np.testing.assert_allclose(inverse_of(factor) @ b, factor.solve(b.tolist()), atol=1e-8)


class TestCholeskyFactor:
    """The factor object, against Cholesky-free oracles."""

    SIZES = range(1, 9)

    def test_factor_reconstructs_input(self):
        rng = np.random.default_rng(37)
        for size in self.SIZES:
            a = random_spd(rng, size)
            inv_lower = linalg.Cholesky(a).whiten(np.eye(size))
            assert np.array_equal(inv_lower, np.tril(inv_lower))
            lower = factor_of(a)
            np.testing.assert_allclose(lower @ lower.T, a, rtol=0, atol=1e-10 * np.max(a))

    def test_solve_matches_gaussian_elimination(self):
        rng = np.random.default_rng(41)
        for size in self.SIZES:
            a = random_spd(rng, size)
            b = rng.standard_normal(size)
            factor = linalg.Cholesky(a)
            np.testing.assert_allclose(factor.solve(b.tolist()), gauss_solve(a, b),
                                       rtol=0, atol=1e-10)

    def test_inverse_matches_oracles(self):
        rng = np.random.default_rng(43)
        for size in self.SIZES:
            a = random_spd(rng, size)
            factor = linalg.Cholesky(a)
            inverse = inverse_of(factor)
            assert np.array_equal(inverse, inverse.T)
            by_columns = np.column_stack([gauss_solve(a, e) for e in np.eye(size)])
            np.testing.assert_allclose(inverse, by_columns, rtol=0, atol=1e-10)
            np.testing.assert_allclose(factor.inverse_diag_sqrt(), np.sqrt(np.diag(by_columns)),
                                       rtol=1e-10, atol=0)
            if 2 <= size <= 5:  # the Laplace expansion grows as size!
                np.testing.assert_allclose(inverse, adjugate_inverse(a), rtol=0, atol=1e-10)

    def test_log_det_matches_oracles(self):
        rng = np.random.default_rng(47)
        for size in self.SIZES:
            a = random_spd(rng, size)
            log_det = linalg.Cholesky(a).log_det()
            sign, expected = np.linalg.slogdet(a)
            assert sign == 1.0
            assert log_det == pytest.approx(expected, rel=1e-12, abs=1e-12)
            if size <= 5:
                assert log_det == pytest.approx(math.log(laplace_det(a)), rel=1e-10)

    def test_whiten_inverts_the_factor(self):
        rng = np.random.default_rng(53)
        for size in self.SIZES:
            a = random_spd(rng, size)
            factor, lower = linalg.Cholesky(a), factor_of(a)
            b = rng.standard_normal((size, 32))
            z = factor.whiten(b)
            assert z.shape == b.shape
            expected = np.column_stack([gauss_solve(lower, col) for col in b.T])
            np.testing.assert_allclose(z, expected, rtol=0, atol=1e-10)
            np.testing.assert_allclose(lower @ z, b, rtol=0, atol=1e-10)

    def test_whitened_gram_gives_quadratic_forms(self):
        # colsum((L^-1 B)^2) = diag(B' a^-1 B), the identity behind hat diagonals.
        rng = np.random.default_rng(59)
        for size in self.SIZES:
            a = random_spd(rng, size)
            b = rng.standard_normal((size, 20))
            z = linalg.Cholesky(a).whiten(b)
            expected = np.einsum("ji,jk,ki->i", b, np.linalg.inv(a), b)
            np.testing.assert_allclose(np.sum(z * z, axis=0), expected, rtol=1e-10, atol=0)


#: Matrices the one entry refuses, and the exact error each use of the factor
#: raises: a non-finite entry anywhere, even in the upper triangle that the
#: factor does not read, is checked first, then every pivot in turn.
REFUSALS = [(np.array(a), cls, message) for a, cls, message in [
    ([[1.0, np.nan], [np.nan, 1.0]], NonFiniteMatrixError, "matrix has non-finite entries"),
    ([[np.inf, 0.0], [0.0, 1.0]], NonFiniteMatrixError, "matrix has non-finite entries"),
    ([[1.0, np.nan], [0.0, 1.0]], NonFiniteMatrixError, "matrix has non-finite entries"),
    ([[1.0, -np.inf], [-np.inf, 1.0]], NonFiniteMatrixError, "matrix has non-finite entries"),
    ([[1.0, 0.0], [0.0, np.nan]], NonFiniteMatrixError, "matrix has non-finite entries"),
    ([[1.0, 2.0], [2.0, 1.0]], SingularMatrixError,
     "non-positive pivot at row 1 (pivot=-3.000e+00)"),
    (np.ones((3, 3)), SingularMatrixError, "non-positive pivot at row 1 (pivot=0.000e+00)"),
    ([[1.0, 1.0], [1.0, 1.0 + 1e-13]], SingularMatrixError,
     "pivot at row 1 below 1e-12 x its diagonal (pivot=9.992e-14, diagonal=1.000e+00)"),
    ([[1.0, 1e6], [1e6, 1e12 + 0.125]], SingularMatrixError,
     "pivot at row 1 below 1e-12 x its diagonal (pivot=1.250e-01, diagonal=1.000e+12)"),
    (np.zeros((2, 2)), SingularMatrixError, "non-positive pivot at row 0 (pivot=0.000e+00)"),
    ([[-1.0, 0.0], [0.0, -2.0]], SingularMatrixError,
     "non-positive pivot at row 0 (pivot=-1.000e+00)"),
]]

#: Every use of a factor: none may reach a refused matrix.
ENTRY_POINTS = {
    "Cholesky": linalg.Cholesky,
    "solve": lambda a: linalg.Cholesky(a).solve([1.0] * len(a)),
    "inverse_diag_sqrt": lambda a: linalg.Cholesky(a).inverse_diag_sqrt(),
    "log_det": lambda a: linalg.Cholesky(a).log_det(),
    "whiten": lambda a: linalg.Cholesky(a).whiten(np.eye(len(a))),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("a,cls,message", REFUSALS)
def test_invalid_input_errors(entry, a, cls, message):
    with pytest.raises(cls) as info:
        ENTRY_POINTS[entry](a)
    assert type(info.value) is cls
    assert str(info.value) == message
    if cls is SingularMatrixError:
        assert f"pivot at row {info.value.row} " in message


def outcome(a):
    """What the entry makes of a: the factor's bits, or its refusal."""
    try:
        factor = linalg.Cholesky(a)
    except SingularMatrixError as exc:
        return type(exc), str(exc), exc.row
    # repr round-trips every float, so equal reprs are equal bits.
    return repr(factor.whiten(np.eye(factor.n)).tolist()), repr(factor.log_det())


#: Finite matrices whose factor or refusal the upper triangle must not change:
#: every pivot refusal, and positive-definite matrices of 2 to 6 rows.
LOWER_TRIANGLE_CASES = [a for a, cls, _ in REFUSALS if cls is SingularMatrixError] + [
    random_spd(np.random.default_rng(size), size) for size in range(2, 7)
]


@pytest.mark.parametrize("a", LOWER_TRIANGLE_CASES)
def test_the_factor_reads_only_the_lower_triangle(a):
    """Any finite strict upper triangle leaves the factor's bits, or the
    refusal's message and pivot row, as they are."""
    n = len(a)
    garbled = np.tril(a) + np.triu(1e3 * np.random.default_rng(n).standard_normal((n, n)), 1)
    assert not np.array_equal(garbled, a)
    assert outcome(garbled) == outcome(a)


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_solve_takes_and_returns_python_floats(size):
    """The fitters pass a list of Python floats and read one back."""
    a = random_spd(np.random.default_rng(size), size)
    b = np.random.default_rng(size + 100).standard_normal(size).tolist()
    x = linalg.Cholesky(a).solve(b)
    assert type(x) is list and len(x) == size
    assert all(type(v) is float for v in x)
    np.testing.assert_allclose(a @ x, b, rtol=0, atol=1e-12)
    np.testing.assert_allclose(x, gauss_solve(a, b), rtol=0, atol=1e-12)


@pytest.mark.parametrize("a", [[[1e-310]], [[1.0, 0.0], [0.0, 1e-310]]])
def test_inverse_diagonal_roots_are_finite_where_the_inverse_is_not(a):
    """1 / 1e-310 is not a float, but its square root 1e155 is: no entry of
    the inverse is formed on the way to it."""
    a = np.array(a)
    roots = linalg.Cholesky(a).inverse_diag_sqrt()
    assert np.all(np.isfinite(roots))
    np.testing.assert_allclose(roots, 1.0 / np.sqrt(np.diag(a)), rtol=1e-12, atol=0)


def test_small_diagonal_entry_is_not_a_small_pivot():
    # diag(1, 1e-13) is the identity once its diagonal is scaled to 1.
    factor = linalg.Cholesky(np.diag([1.0, 1e-13]))
    np.testing.assert_allclose(factor.solve([2.0, 3e-13]), [2.0, 3.0], rtol=1e-15, atol=0)
    np.testing.assert_allclose(inverse_of(factor), np.diag([1.0, 1e13]), rtol=1e-15, atol=0)
    assert factor.log_det() == pytest.approx(math.log(1e-13), abs=1e-14)


@pytest.mark.parametrize("k", [-150, -60, -20, 0, 20, 60, 150])
def test_pivot_test_is_invariant_to_diagonal_scaling(k):
    """D a D factors exactly when a does, for D = diag(1, 2**k, 2**-k): each
    pivot is compared with its own diagonal entry, never with another's."""
    d = np.array([1.0, 2.0**k, 2.0**-k])
    well_posed = np.array([[4.0, 2.0, 1.0], [2.0, 3.0, 0.5], [1.0, 0.5, 2.0]])
    collinear = np.array([[1.0, 1.0, 1.0], [1.0, 1.0 + 1e-13, 1.0], [1.0, 1.0, 2.0]])
    b = np.array([1.0, -2.0, 3.0])
    # Powers of two scale exactly: the factor of D a D is D L, bit for bit.
    x = linalg.Cholesky(d[:, None] * well_posed * d).solve((d * b).tolist())
    assert np.array_equal(x, np.array(linalg.Cholesky(well_posed).solve(b.tolist())) / d)
    with pytest.raises(SingularMatrixError, match=r"^pivot at row 1 below 1e-12 x its diagonal"):
        linalg.Cholesky(d[:, None] * collinear * d)


class TestBinaryExponents:
    """``binary_exponents`` is frexp of max |a| along an axis, kept."""

    @pytest.mark.parametrize("shape", [(5, 6, 3, 4), (5, 6, 3, 1), (7, 1), (1, 7), (7,)])
    def test_every_axis_peaks_in_half_to_one(self, shape):
        k = np.arange(math.prod(shape), dtype=float).reshape(shape)
        a = (k - 50.0) * 10.0 ** (k % 600 - 300)
        for axis in range(a.ndim):
            e = linalg.binary_exponents(a, axis)
            peak = np.maximum(a.max(axis, keepdims=True), -a.min(axis, keepdims=True))
            assert e.shape == peak.shape and np.array_equal(e, np.frexp(peak)[1]), axis
            scaled = np.abs(np.ldexp(a, -e)).max(axis)
            assert ((scaled >= 0.5) & (scaled < 1.0) | (scaled == 0.0)).all(), axis

    def test_zero_and_non_finite_lines_keep_their_unit(self):
        a = np.array([[0.0, 1.0, np.inf], [0.0, 3.0, np.nan]])
        assert linalg.binary_exponents(a, 0).tolist() == [[0, 2, 0]]
