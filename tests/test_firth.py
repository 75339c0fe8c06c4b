import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from retailrisk import logistic
from retailrisk.dataset import (
    EMBEDDED_CSV,
    DesignMatrix,
    design_matrix,
    embedded_dataset,
    parse_dataset,
)
from retailrisk.dataset import CSV_HEADER
from retailrisk.firth import (
    fit_firth,
    firth_score,
    penalized_loglik,
)
from retailrisk.errors import DegenerateDataError
from retailrisk.linalg import SingularMatrixError, binary_exponents
from retailrisk.logistic import (
    SEPARATION_NONE,
    DegenerateResponseError,
    _evaluate_stack,
    _negative_hessian,
    _newton_stack,
    fit_logistic,
    log_likelihood,
)

from _reference import (
    FINAL_CHISQ_TOL,
    FINAL_COEF_TOL,
    FINAL_LRP_TOL,
    FINAL_MODEL,
    FINAL_TEST_TOL,
)


def final_design():
    return design_matrix(
        embedded_dataset(), ["us_inflation_rate", "ltd_over_rev", "ebitda_over_rev"]
    )


def toy_design(x, y):
    x = np.asarray(x, dtype=float)
    return DesignMatrix(
        y=np.asarray(y, dtype=float),
        X=np.column_stack([np.ones(len(x)), x]),
        labels=("intercept", "x"),
    )


SEPARATED_X = np.array([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0])
SEPARATED_Y = (SEPARATED_X > 0).astype(float)


def separated_panel(seed, n=32, noise=2):
    """A seeded design in which the first slope separates the response
    completely: failing rows in [1.5, 2.5], surviving rows in [0, 1]."""
    rng = np.random.default_rng(seed)
    y = np.zeros(n)
    y[rng.choice(n, size=int(rng.integers(2, 6)), replace=False)] = 1.0
    x = np.where(y == 1.0, 1.5, 0.0) + rng.random(n)
    X = np.column_stack([np.ones(n), x, rng.standard_normal((n, noise))])
    labels = ("intercept", "x") + tuple(f"z{k}" for k in range(noise))
    return DesignMatrix(y=y, X=X, labels=labels)


def hat_diagonals(beta, dm):
    """h = w*q, from the kernel's evaluation of l* at beta."""
    _, _, _, w, _, q, _ = _evaluate_stack(dm.X[None], dm.y, np.array([beta], float), True)
    return w[0] * q[0]


def explicit_hat(beta, dm):
    """einsum(xw, inv(X'WX), xw) with an explicit LAPACK inverse."""
    prob = expit(dm.X @ np.asarray(beta, dtype=float))
    w = prob * (1.0 - prob)
    xw = dm.X * np.sqrt(w)[:, None]
    return np.einsum("ij,jk,ik->i", xw, np.linalg.inv(xw.T @ xw), xw)


class TestPenalizedLoglik:
    def test_intercept_only_closed_form(self):
        # At beta=0 the weights are all 1/4, so the penalty is 0.5*log(n/4).
        ds = embedded_dataset()
        dm = design_matrix(ds, [])
        expected = -32 * math.log(2) + 0.5 * math.log(32 / 4)
        assert penalized_loglik([0.0], dm) == pytest.approx(expected, abs=1e-12)

    def test_column_rescaling_shifts_by_constant(self):
        # Rescaling a column multiplies det(X'WX) by a constant, so penalized
        # log-likelihood differences (and the argmax) are unchanged.
        dm = final_design()
        a = 0.25
        scaled_X = dm.X.copy()
        scaled_X[:, 1] *= a
        scaled = DesignMatrix(y=dm.y, X=scaled_X, labels=dm.labels)
        rng = np.random.default_rng(2)
        shifts = []
        for _ in range(5):
            beta = rng.normal(scale=0.3, size=4)
            beta_scaled = beta.copy()
            beta_scaled[1] /= a
            shifts.append(
                penalized_loglik(beta_scaled, scaled) - penalized_loglik(beta, dm)
            )
        np.testing.assert_allclose(shifts, math.log(a), atol=1e-9)

    def test_value_at_published_beta_below_optimum(self):
        dm = final_design()
        fit = fit_firth(dm)
        published = penalized_loglik(FINAL_MODEL["beta"], dm)
        assert math.isfinite(published)
        assert fit.pen_log_lik >= published

    def test_singular_information_raises(self):
        dm = toy_design([800.0, 810.0, -800.0, -810.0], [1, 1, 0, 0])
        # Weights underflow at this beta: information is numerically singular.
        with pytest.raises(SingularMatrixError):
            penalized_loglik([0.0, 100.0], dm)


#: The coefficient-vector evaluators: each refuses a beta that is not p floats.
EVALUATORS = {
    "log_likelihood": log_likelihood,
    "penalized_loglik": penalized_loglik,
    "firth_score": firth_score,
}


@pytest.mark.parametrize("shape", [(3,), (5,), (4, 1)])
@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_evaluators_refuse_wrong_coefficient_shapes(name, shape):
    with pytest.raises(ValueError) as info:
        EVALUATORS[name](np.zeros(shape), final_design())
    assert type(info.value) is ValueError
    assert str(info.value) == f"expected 4 coefficients, got shape {shape}"


class TestFirthScore:
    def test_matches_finite_differences(self):
        dm = final_design()
        rng = np.random.default_rng(7)
        for _ in range(20):
            beta = rng.normal(scale=0.4, size=dm.p)
            analytic = firth_score(beta, dm)
            numeric = np.empty(dm.p)
            for j in range(dm.p):
                h = 1e-6 * max(1.0, abs(beta[j]))
                up, down = beta.copy(), beta.copy()
                up[j] += h
                down[j] -= h
                numeric[j] = (penalized_loglik(up, dm) - penalized_loglik(down, dm)) / (2 * h)
            denom = max(1.0, float(np.linalg.norm(analytic)))
            assert np.linalg.norm(analytic - numeric) / denom <= 1e-6

    def test_zero_at_intercept_only_optimum(self):
        dm = design_matrix(embedded_dataset(), [])
        fit = fit_firth(dm)
        assert np.max(np.abs(firth_score(fit.beta, dm))) <= 1e-7

    def test_hat_diagonal_identities(self):
        dm = final_design()
        rng = np.random.default_rng(11)
        for _ in range(5):
            beta = rng.normal(scale=0.4, size=dm.p)
            h = hat_diagonals(beta, dm)
            assert np.all(h > 0) and np.all(h < 1)
            assert np.sum(h) == pytest.approx(dm.p, abs=1e-8)

    def test_factor_hat_matches_explicit_inverse_on_final_design(self):
        dm = final_design()
        rng = np.random.default_rng(13)
        betas = [fit_firth(dm).beta, np.zeros(dm.p)]
        betas += [rng.normal(scale=0.4, size=dm.p) for _ in range(5)]
        for beta in betas:
            np.testing.assert_allclose(hat_diagonals(beta, dm), explicit_hat(beta, dm),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_factor_hat_matches_explicit_inverse_on_separated_panels(self, seed):
        dm = separated_panel(seed)
        assert fit_logistic(dm).separation != SEPARATION_NONE
        fit = fit_firth(dm)
        for beta in (fit.beta, fit.beta / 2.0, np.zeros(dm.p)):
            np.testing.assert_allclose(hat_diagonals(beta, dm), explicit_hat(beta, dm),
                                       rtol=0, atol=1e-12)


def analytic_negative_hessian(beta, dm):
    """The kernel's exact negative Hessian of l* at beta."""
    _, _, prob, w, _, q, z = _evaluate_stack(dm.X[None], dm.y, np.array([beta], float), True)
    return _negative_hessian(dm.X, prob[0], w[0], q[0], z[0])


def numeric_negative_hessian(beta, dm):
    """-dU*/dbeta by central differences of the modified score."""
    beta = np.asarray(beta, dtype=float)
    columns = []
    for j in range(dm.p):
        h = 1e-5 * max(1.0, abs(beta[j]))
        up, down = beta.copy(), beta.copy()
        up[j] += h
        down[j] -= h
        columns.append(-(firth_score(up, dm) - firth_score(down, dm)) / (2 * h))
    return np.column_stack(columns)


def assert_hessian_matches(beta, dm):
    analytic = analytic_negative_hessian(beta, dm)
    numeric = numeric_negative_hessian(beta, dm)
    np.testing.assert_allclose(analytic, analytic.T, rtol=0, atol=1e-12 * np.abs(analytic).max())
    scale = max(1.0, float(np.abs(analytic).max()))
    assert np.abs(analytic - numeric).max() / scale <= 1e-7


class TestExactHessian:
    """The penalized Newton step's matrix is the derivative of the modified
    score, so Newton converges quadratically near the optimum."""

    def test_matches_central_differences_on_final_design(self):
        dm = final_design()
        rng = np.random.default_rng(17)
        betas = [fit_firth(dm).beta, np.zeros(dm.p)]
        betas += [rng.normal(scale=0.4, size=dm.p) for _ in range(5)]
        for beta in betas:
            assert_hessian_matches(beta, dm)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_central_differences_on_separated_panels(self, seed):
        dm = separated_panel(seed)
        fit = fit_firth(dm)
        for beta in (fit.beta, fit.beta / 2.0, np.zeros(dm.p)):
            assert_hessian_matches(beta, dm)

    @pytest.mark.parametrize("seed", range(60))
    def test_converges_within_15_steps_on_separated_panels(self, seed):
        fit = fit_firth(separated_panel(seed))
        assert fit.converged
        assert fit.iterations <= 15

    @pytest.mark.parametrize("seed", range(60))
    def test_mle_on_separated_panels_never_converges(self, seed):
        # The diverging MLE moves the fitted x'beta by O(1) every step, so the
        # stopping rule never passes; a rule on the Newton decrement would.
        fit = fit_logistic(separated_panel(seed))
        assert (fit.converged, fit.separation) == (False, "complete")

    @pytest.mark.parametrize("seed", [161, 194])
    def test_mle_stops_at_the_step_cap(self, seed):
        # On these panels no step matrix of the diverging MLE fails to
        # factor, so it runs to MLE_MAX_STEPS (50) and stops there.
        fit = fit_logistic(separated_panel(seed))
        assert (fit.iterations, fit.converged, fit.separation) == (50, False, "complete")

    @pytest.mark.parametrize("cap, converged", [(7, True), (6, False)])
    def test_final_fit_under_a_step_cap(self, monkeypatch, cap, converged):
        # The final model converges at step 7: a cap of 7 steps lets it, a
        # cap of 6 stops it unconverged at 6. No known Firth fit takes more
        # than 54 steps, so the cap of 100 itself is not reached.
        monkeypatch.setattr(logistic, "FIRTH_MAX_STEPS", cap)
        fit = fit_firth(final_design())
        assert (fit.iterations, fit.converged) == (cap, converged)

    def test_trace_of_the_final_fit(self):
        dm = final_design()
        fit = fit_firth(dm)
        # The fit runs on the unit-scaled design; l* is then in its units.
        e = binary_exponents(dm.X, 0)[0]
        scaled, scaled_ll, _, _, _ = _newton_stack(np.ldexp(dm.X, -e)[None], dm.y,
                                                   penalized=True)[0]
        np.testing.assert_array_equal(np.ldexp(scaled, -e), fit.beta)
        assert scaled_ll + math.log(2.0) * int(e.sum()) == fit.pen_log_lik
        # In raw units log det X'WX is rounded from other products: one ulp apart.
        beta, pen_ll, _, _, trace = _newton_stack(dm.X[None], dm.y, penalized=True)[0]
        np.testing.assert_array_equal(beta, fit.beta)
        assert abs(pen_ll - fit.pen_log_lik) <= math.ulp(pen_ll)
        assert (trace.steps, trace.converged) == (fit.iterations, True)
        assert trace.steps <= 8 and trace.halvings == 0
        assert trace.max_score == np.abs(firth_score(beta, dm)).max() <= 1e-7


@pytest.mark.parametrize("dtype, order", [
    pytest.param(np.int64, "C", id="int64"),
    pytest.param(np.float32, "C", id="float32"),
    pytest.param(np.float64, "C", id="float64"),
    pytest.param(np.float64, "F", id="float64-fortran"),  # as pandas' .values often is
])
def test_design_dtype_leaves_the_fits_unchanged(dtype, order):
    # Integer values, exact in every dtype: each fit and each evaluator runs
    # on a C-ordered float64 copy, so it has the bits of the float64 design's
    # (the layout sets the BLAS calls), and the caller's X is left as it was.
    rng = np.random.default_rng(5)
    y = np.zeros(24)
    y[rng.choice(24, size=9, replace=False)] = 1.0
    values = np.column_stack(
        [np.ones(24), rng.integers(-40, 40, 24), 3 * y + rng.integers(0, 6, 24)])
    reference = DesignMatrix(y=y, X=values.astype(np.float64), labels=("intercept", "a", "b"))
    dm = DesignMatrix(y=y, X=values.astype(dtype, order=order), labels=reference.labels)
    X = dm.X.copy()
    for fitter in (fit_logistic, fit_firth):
        fit, ref = fitter(dm), fitter(reference)
        for field in ("beta", "se", "p_values"):
            assert getattr(fit, field).tobytes() == getattr(ref, field).tobytes(), field
        assert fit.iterations == ref.iterations and fit.converged
    # 50 points near the Firth estimate, the loop's last fit.
    for beta in fit.beta * (1.0 + rng.normal(scale=0.05, size=(50, dm.p))):
        for name, evaluate in EVALUATORS.items():
            value, ref_value = (np.asarray(evaluate(beta, d)) for d in (dm, reference))
            assert value.tobytes() == ref_value.tobytes(), name
    assert dm.X.dtype == dtype and dm.X.tobytes() == X.tobytes()


class TestFitFirth:
    def test_reference_model(self):
        fit = fit_firth(final_design())
        assert fit.converged
        for value, ref in zip(fit.beta, FINAL_MODEL["beta"]):
            assert value == pytest.approx(ref, abs=FINAL_COEF_TOL)
        for value, ref in zip(fit.se, FINAL_MODEL["se"]):
            assert value == pytest.approx(ref, abs=FINAL_COEF_TOL)
        for value, ref in zip(fit.chisq, FINAL_MODEL["chisq"]):
            assert value == pytest.approx(ref, abs=FINAL_CHISQ_TOL)
        assert fit.lr_stat == pytest.approx(FINAL_MODEL["lr_stat"], abs=FINAL_TEST_TOL)
        assert fit.lr_df == FINAL_MODEL["lr_df"]
        assert fit.lr_p == pytest.approx(FINAL_MODEL["lr_p"], abs=FINAL_LRP_TOL)
        assert fit.wald_stat == pytest.approx(FINAL_MODEL["wald_stat"], abs=FINAL_TEST_TOL)
        assert fit.wald_df == FINAL_MODEL["wald_df"]

    def test_chisq_identity(self):
        fit = fit_firth(final_design())
        np.testing.assert_allclose(fit.chisq, (fit.beta / fit.se) ** 2, rtol=1e-9)

    def test_published_chisq_consistent_with_published_se(self):
        # (4.349/1.434)^2 must land on the published 9.207 within print noise.
        assert (4.349 / 1.434) ** 2 == pytest.approx(9.207, abs=0.05)

    def test_stationarity(self):
        dm = final_design()
        fit = fit_firth(dm)
        assert np.max(np.abs(firth_score(fit.beta, dm))) <= 1e-7

    def test_matches_independent_optimizer(self):
        # Direct penalized-likelihood maximization with a derivative-free
        # method lands on the same optimum the Newton solver reports.
        dm = final_design()
        fit = fit_firth(dm)
        result = minimize(
            lambda b: -penalized_loglik(b, dm),
            np.zeros(dm.p),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 40000, "maxfev": 40000},
        )
        assert fit.pen_log_lik >= -result.fun - 1e-8
        np.testing.assert_allclose(fit.beta, result.x, atol=2e-3)

    def test_finite_on_complete_separation(self):
        dm = toy_design(SEPARATED_X, SEPARATED_Y)
        mle = fit_logistic(dm)
        assert mle.separation != SEPARATION_NONE  # plain MLE diverges here
        fit = fit_firth(dm)
        assert fit.converged
        assert np.all(np.isfinite(fit.beta))
        assert np.all(np.isfinite(fit.se))
        assert np.max(np.abs(fit.beta)) < 10

    def test_single_chain_subset_fits(self):
        lines = EMBEDDED_CSV.splitlines(keepends=True)
        rite_aid = [line for line in lines if line.startswith("Rite Aid,")]
        subset = parse_dataset("".join([lines[0], *rite_aid]))
        assert subset.chains == ("Rite Aid",) and subset.n == 10
        dm = design_matrix(subset, ["us_inflation_rate", "ltd_over_rev", "ebitda_over_rev"])
        fit = fit_firth(dm)
        assert fit.converged
        assert np.all(np.isfinite(fit.beta))

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_single_class_response_is_refused(self, label):
        with pytest.raises(DegenerateResponseError, match="single class"):
            fit_firth(toy_design(SEPARATED_X, np.full(len(SEPARATED_X), label)))

    def test_fewer_rows_than_coefficients_is_refused(self):
        dm = final_design()
        two_rows = DesignMatrix(y=dm.y[-2:], X=dm.X[-2:], labels=dm.labels)
        for fit in (fit_firth, fit_logistic):
            with pytest.raises(DegenerateDataError, match=r"need n >= p to fit, got n=2, p=4"):
                fit(two_rows)

    def test_constant_predictor_is_singular(self):
        rows = "\n".join(
            f"A,{2013 + i},{1 if i == 3 else 0},100,70,20,{5 + i},10,2,1.5,30,0,75"
            for i in range(4)
        )
        ds = parse_dataset(",".join(CSV_HEADER) + "\n" + rows + "\n")
        dm = design_matrix(ds, ["us_inflation_rate"])  # constant column
        with pytest.raises(SingularMatrixError):
            fit_firth(dm)

    def test_collinear_column_is_named_by_its_pivot_row(self):
        dm = final_design()
        X = dm.X.copy()
        X[:, 3] = 2.0 * X[:, 1] - 1.0  # an affine copy of the inflation column
        with pytest.raises(SingularMatrixError) as info:
            fit_firth(DesignMatrix(y=dm.y, X=X, labels=dm.labels))
        assert info.value.row == 3
        assert str(info.value) == (
            "failure model: ebitda_over_rev is collinear with earlier design columns")

    def test_affine_invariance_of_probabilities(self):
        dm = final_design()
        fit = fit_firth(dm)
        a, b = 3.1, -0.7
        scaled_X = dm.X.copy()
        scaled_X[:, 2] = a * scaled_X[:, 2] + b
        scaled = DesignMatrix(y=dm.y, X=scaled_X, labels=dm.labels)
        fit_scaled = fit_firth(scaled)
        np.testing.assert_allclose(
            expit(scaled.X @ fit_scaled.beta), expit(dm.X @ fit.beta), atol=1e-6
        )


class TestLrTest:
    def test_reference_statistic(self):
        fit = fit_firth(final_design())
        stat, df, p = fit.lr_stat, fit.lr_df, fit.lr_p
        assert stat == pytest.approx(13.816, abs=0.05)
        assert df == 3
        assert p == pytest.approx(0.00317, abs=0.0005)

    @pytest.mark.parametrize("precision, stat", [
        ("full", 13.815814524524153),
        ("printed", 13.828407170112726),
    ])
    def test_embedded_statistic_bits(self, precision, stat):
        # The bits of the LR statistic, both l* values taken on the unit-scaled
        # design (one ulp above the raw-unit figure 13.81581452452415 in full).
        dm = design_matrix(embedded_dataset(precision),
                           ["us_inflation_rate", "ltd_over_rev", "ebitda_over_rev"])
        assert fit_firth(dm).lr_stat == stat

    def test_intercept_only_is_null_vs_itself(self):
        fit = fit_firth(design_matrix(embedded_dataset(), []))
        stat, df, p = fit.lr_stat, fit.lr_df, fit.lr_p
        assert stat == 0.0
        assert df == 0
        assert p == 1.0
        assert (fit.wald_stat, fit.wald_df, fit.wald_p) == (0.0, 0, 1.0)

    def test_no_effect_statistic_is_not_negative(self):
        # Two groups with the same failure rate: the fit's maximum is the
        # closed-form null, and its l* can fall a few ulp below the null's.
        fit = fit_firth(toy_design([-2.5] * 3 + [-2.2] * 3, [1.0, 0.0, 0.0] * 2))
        assert 0.0 <= fit.lr_stat < 1e-12
        assert fit.lr_p == pytest.approx(1.0, abs=1e-6)

    def test_statistic_nonnegative(self):
        ds = embedded_dataset()
        for predictors in (["acsi"], ["pandemic"], ["revenue", "stores"]):
            fit = fit_firth(design_matrix(ds, predictors))
            stat, p = fit.lr_stat, fit.lr_p
            assert stat >= 0.0
            assert 0.0 < p <= 1.0

    def test_wald_and_lr_agree_on_significance(self):
        fit = fit_firth(final_design())
        assert (fit.lr_p < 0.05) == (fit.wald_p < 0.05)
        assert 0.0 < fit.lr_p < 1.0
        assert 0.0 < fit.wald_p < 1.0
