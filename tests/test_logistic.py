import math

import numpy as np
import pytest

from retailrisk.dataset import (
    DesignMatrix,
    design_matrix,
    embedded_dataset,
    parse_dataset,
)
from retailrisk import logistic
from retailrisk.firth import penalized_loglik
from retailrisk.logistic import (
    DIVERGENCE_BOUND,
    LONG_ROWS,
    SEPARATION_COMPLETE,
    SEPARATION_NONE,
    SEPARATION_QUASI,
    DegenerateResponseError,
    _fit_stack,
    _information,
    _newton_stack,
    _separation,
    fit_logistic,
    log_likelihood,
    significance_code,
)
from retailrisk.pipeline import SCREEN_GROUPS

from _panel import panel_csv


def toy_design(x, y):
    x = np.asarray(x, dtype=float)
    return DesignMatrix(
        y=np.asarray(y, dtype=float),
        X=np.column_stack([np.ones(len(x)), x]),
        labels=("intercept", "x"),
    )


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


PANDEMIC_CLOSED_FORM = (math.log(1 / 24), math.log(18.0))


class TestLogLikelihood:
    def test_null_coefficients(self):
        dm = design_matrix(embedded_dataset(), ["pandemic"])
        assert log_likelihood([0.0, 0.0], dm) == pytest.approx(-32 * math.log(2), abs=1e-12)

    def test_pandemic_model_value_from_aic(self):
        # Independent anchor: logL = (2p - AIC)/2 with the published AIC 21.958.
        dm = design_matrix(embedded_dataset(), ["pandemic"])
        assert log_likelihood([-3.178, 2.890], dm) == pytest.approx(-8.979, abs=1e-3)

    def test_saturated_eta_does_not_overflow(self):
        dm = toy_design([800.0, -800.0], [1, 0])
        value = log_likelihood([0.0, 1.0], dm)
        assert math.isfinite(value)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        dm = design_matrix(embedded_dataset(), ["pandemic"])
        with pytest.raises(ValueError):
            log_likelihood([0.0, 0.0, 0.0], dm)


class TestFitLogistic:
    def test_pandemic_matches_closed_form(self):
        # Saturated 2x2 model: intercept ln(1/24), slope ln 18, exactly.
        fit = fit_logistic(design_matrix(embedded_dataset(), ["pandemic"]))
        assert fit.converged
        assert fit.separation == SEPARATION_NONE
        assert fit.beta[0] == pytest.approx(PANDEMIC_CLOSED_FORM[0], abs=1e-6)
        assert fit.beta[1] == pytest.approx(PANDEMIC_CLOSED_FORM[1], abs=1e-6)
        assert fit.beta[0] == pytest.approx(-3.178, abs=0.001)
        assert fit.beta[1] == pytest.approx(2.890, abs=0.001)
        assert fit.aic == pytest.approx(21.958, abs=0.01)

    def test_inflation_model_reference_values(self):
        fit = fit_logistic(design_matrix(embedded_dataset(), ["us_inflation_rate"]))
        assert fit.beta[0] == pytest.approx(-3.957, abs=0.005)
        assert fit.beta[1] == pytest.approx(0.708, abs=0.005)
        assert fit.aic == pytest.approx(20.349, abs=0.01)

    def test_acsi_model_reference_values(self):
        fit = fit_logistic(design_matrix(embedded_dataset(), ["acsi"]))
        assert fit.beta[1] == pytest.approx(0.0555, abs=0.005)
        assert fit.se[1] == pytest.approx(0.182, abs=0.005)
        assert fit.p_values[1] == pytest.approx(0.760, abs=0.01)

    def test_single_class_response(self):
        dm = toy_design([1.0, 2.0, 3.0], [0, 0, 0])
        with pytest.raises(DegenerateResponseError):
            fit_logistic(dm)

    def test_needs_enough_rows(self):
        dm = toy_design([1.0], [1])
        with pytest.raises(ValueError, match="n >= p"):
            fit_logistic(dm)

    def test_stationarity_at_solution(self):
        from scipy.special import expit

        ds = embedded_dataset()
        for name in ("pandemic", "acsi", "revenue", "ebitda_over_rev"):
            dm = design_matrix(ds, [name])
            fit = fit_logistic(dm)
            score = dm.X.T @ (dm.y - expit(dm.X @ fit.beta))
            assert np.max(np.abs(score)) <= 1e-6

    def test_score_matches_finite_differences(self):
        ds = embedded_dataset()
        rng = np.random.default_rng(101)
        for predictors in (["pandemic"], ["us_inflation_rate", "ltd_over_rev", "ebitda_over_rev"]):
            dm = design_matrix(ds, predictors)
            for _ in range(20):
                beta = rng.normal(scale=0.4, size=dm.p)
                analytic = dm.X.T @ (dm.y - 1 / (1 + np.exp(-(dm.X @ beta))))
                numeric = np.empty_like(analytic)
                for j in range(dm.p):
                    h = 1e-6 * max(1.0, abs(beta[j]))
                    up, down = beta.copy(), beta.copy()
                    up[j] += h
                    down[j] -= h
                    numeric[j] = (log_likelihood(up, dm) - log_likelihood(down, dm)) / (2 * h)
                denom = max(1.0, float(np.linalg.norm(analytic)))
                assert np.linalg.norm(analytic - numeric) / denom <= 1e-6

    def test_affine_invariance_of_probabilities(self):
        from scipy.special import expit

        ds = embedded_dataset()
        dm = design_matrix(ds, ["us_inflation_rate"])
        fit = fit_logistic(dm)
        a, b = 0.37, 1.9
        scaled = DesignMatrix(
            y=dm.y,
            X=np.column_stack([dm.X[:, 0], a * dm.X[:, 1] + b]),
            labels=dm.labels,
        )
        fit_scaled = fit_logistic(scaled)
        np.testing.assert_allclose(
            expit(scaled.X @ fit_scaled.beta), expit(dm.X @ fit.beta), atol=1e-8
        )
        assert fit_scaled.beta[1] == pytest.approx(fit.beta[1] / a, rel=1e-6)

    def test_aic_identity(self):
        ds = embedded_dataset()
        for name in ("pandemic", "acsi", "stores"):
            fit = fit_logistic(design_matrix(ds, [name]))
            assert fit.aic == pytest.approx(2 * 2 - 2 * fit.log_lik, abs=1e-9)

    def test_covariance_matches_se(self):
        from scipy.special import expit

        dm = design_matrix(embedded_dataset(), ["pandemic"])
        fit = fit_logistic(dm)
        prob = expit(dm.X @ fit.beta)
        information = dm.X.T @ (dm.X * (prob * (1.0 - prob))[:, None])
        np.testing.assert_allclose(np.sqrt(np.diag(np.linalg.inv(information))), fit.se,
                                   rtol=1e-10, atol=0)
        np.testing.assert_allclose(fit.z, fit.beta / fit.se, atol=1e-12)

    def test_column_near_1e154_fits_as_in_its_unit(self):
        # In raw units X'WX sums 0.25 * x^2 over rows near 1e154 and
        # overflows. The fit runs on the unit-scaled column, so it has the
        # unit fit's bits, with the slope and its s.e. scaled back by 2^-510.
        x = 100.0 + np.arange(8.0)
        y = [0, 1, 0, 0, 1, 0, 1, 1]
        unit, fit = fit_logistic(toy_design(x, y)), fit_logistic(toy_design(x * 2.0**510, y))
        assert fit.converged and fit.iterations == unit.iterations
        for field in ("z", "p_values", "log_lik", "aic"):
            assert _bits(getattr(fit, field)) == _bits(getattr(unit, field)), field
        for field in ("beta", "se"):
            assert _bits(getattr(fit, field)) == _bits(np.ldexp(getattr(unit, field), [0, -510]))


class TestStepHalving:
    @pytest.mark.parametrize("precision", ["full", "printed"])
    def test_panel_screens_do_not_stall_on_rounding_noise(self, precision):
        """A step is halved only when the log-likelihood falls by more than
        rounding noise. On this 1,127-row panel, halving on last-bit
        differences took the EBITDA screen 12 steps and 14 halvings and left
        its score at 6.9e-7."""
        from scipy.special import expit

        ds = parse_dataset(panel_csv(7), precision)
        for name in (name for group in SCREEN_GROUPS.values() for name in group):
            dm = design_matrix(ds, [name])
            beta, _, _, _, trace = _newton_stack(dm.X[None], dm.y)[0]
            assert trace.converged and trace.steps <= 8 and trace.halvings == 0, (name, trace)
            assert np.abs(dm.X.T @ (dm.y - expit(dm.X @ beta))).max() <= 1e-9, name


def assert_same_run(run, solo):
    """Two Newton runs agree bit for bit: beta, objective, w, h and trace."""
    (beta, value, w, h, trace), (beta_1, value_1, w_1, h_1, trace_1) = run, solo
    assert beta.tobytes() == beta_1.tobytes()
    assert np.float64(value).tobytes() == np.float64(value_1).tobytes()
    assert w.tobytes() == w_1.tobytes()
    assert (h is None and h_1 is None) or h.tobytes() == h_1.tobytes()
    assert repr(trace) == repr(trace_1)


def assert_members_run_alone(columns, y, penalized=False):
    """Each member of the stack of one-column designs ends as its own stack
    of one; returns the member traces."""
    designs = [toy_design(x, y).X for x in columns]
    runs = _newton_stack(np.stack(designs), np.asarray(y, dtype=float), penalized)
    for X, run in zip(designs, runs):
        assert_same_run(run, _newton_stack(X[None], np.asarray(y, dtype=float), penalized)[0])
    return [run[-1] for run in runs]


def fit_stack(designs):
    """The fits of one fit stack of designs that share y."""
    return _fit_stack(np.stack([dm.X for dm in designs]), designs[0].y,
                      [dm.labels for dm in designs])


def assert_fits_run_alone(designs):
    """Each fit of one fit stack has the bits of its own fit_logistic;
    returns the fits."""
    fits = fit_stack(designs)
    for dm, fit in zip(designs, fits):
        alone = fit_logistic(dm)
        for field in ("beta", "se", "z", "p_values", "log_lik", "aic"):
            assert (np.asarray(getattr(fit, field), dtype=float).tobytes()
                    == np.asarray(getattr(alone, field), dtype=float).tobytes()), field
        assert (fit.iterations, fit.converged, fit.separation) == (
            alone.iterations, alone.converged, alone.separation)
    return fits


class TestNewtonStack:
    """Members of one stacked Newton run keep their own state and bits."""

    SEPARATED = [-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0]
    Y = [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]
    MIXED = [1.0, 3.0, -1.0, 0.5, 2.0, -0.5, 1.5, 0.2]

    def test_early_convergence_beside_separation(self):
        mixed, separated, again = assert_members_run_alone(
            [self.MIXED, self.SEPARATED, self.MIXED[::-1]], self.Y)
        assert mixed.converged and again.converged
        assert not separated.converged and separated.steps > max(mixed.steps, again.steps)

    @pytest.mark.parametrize("column", [
        [2.0] * 8,                               # collinear with the intercept
        list((100.0 + np.arange(8.0)) * 1e152),  # X'WX overflows
    ])
    def test_factor_failing_at_step_one(self, column):
        first, failed, last = assert_members_run_alone(
            [self.MIXED, column, self.SEPARATED], self.Y)
        assert failed == (1, 0, failed.max_score, False)
        assert first.converged and not last.converged

    def test_halving_members_beside_one_that_does_not_halve(self):
        # On these rows the first and last columns halve steps at different
        # steps, so halving runs on part of the working stack.
        y = [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0]
        columns = [
            [-4.4, -0.9, 186.7, 9.0, 0.3, -7.6, 7.1, -6.2, 1.2, 3.8],
            [0.5, -1.0, 2.0, 1.5, -0.5, 0.0, 1.0, -2.0, 0.3, 0.8],
            [102.3, 57.9, -3.6, -26.7, 500.2, 48.9, -2.7, 60.8, 25.1, -19.6],
        ]
        traces = assert_members_run_alone(columns, y)
        assert [trace.halvings for trace in traces] == [6, 0, 1]

    def test_trace_under_the_cap_of_ten_halvings(self):
        # With 9 halvings a step, this fit would take 22 steps and 26 halvings.
        dm = toy_design([-4.4, -0.9, 0.0, 1e4, 0.3, -7.6, 7.1, -6.2, 1.2, 3.8],
                        [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0])
        trace = _newton_stack(dm.X[None], dm.y)[0][-1]
        assert (trace.steps, trace.halvings, trace.converged) == (18, 10, True)

    @pytest.mark.parametrize("cap, stops", [
        (8, [(7, True), (7, True), (8, False), (8, True)]),
        (9, [(7, True), (7, True), (9, True), (8, True)]),
    ])
    def test_step_cap_beside_members_that_converge(self, monkeypatch, cap, stops):
        # The ratio screens of the embedded data converge at steps 7, 7, 9
        # and 8. Under a cap of 8 steps, ebitda_over_rev stops unconverged in
        # the step in which ltd_over_rev converges; each fit keeps the bits
        # of its own fit_logistic under the same cap.
        monkeypatch.setattr(logistic, "MLE_MAX_STEPS", cap)
        ds = embedded_dataset("full")
        fits = assert_fits_run_alone(
            [design_matrix(ds, [name]) for name in SCREEN_GROUPS["ratios"]])
        assert [(fit.iterations, fit.converged) for fit in fits] == stops

    @pytest.mark.parametrize("column", [
        [2.0] * 8,                               # collinear with the intercept
        list((100.0 + np.arange(8.0)) * 1e152),  # separated, in a unit near 1e154
    ])
    def test_wald_failing_for_one_member_of_a_fit_stack(self, column):
        # The Wald tests run once for the whole stack; only the member whose
        # information fails to factor gets NaN se, z and p.
        fits = assert_fits_run_alone(
            [toy_design(x, self.Y) for x in (self.MIXED, column, self.MIXED[::-1])])
        assert [bool(np.isnan(fit.se).all()) for fit in fits] == [False, True, False]
        assert np.isnan(fits[1].z).all() and np.isnan(fits[1].p_values).all()
        assert np.isfinite(fits[0].p_values).all() and np.isfinite(fits[2].p_values).all()

    def test_penalized_members(self):
        # Firth fits of a mixed and a separated design, stacked: the Firth
        # loop is the same loop as the screens'.
        mixed, separated, again = assert_members_run_alone(
            [self.MIXED, self.SEPARATED, self.MIXED[::-1]], self.Y, True)
        assert mixed.converged and separated.converged and again.converged

    @pytest.mark.parametrize("rows", [LONG_ROWS - 1, LONG_ROWS])
    def test_panel_columns_on_either_side_of_long_rows(self, rows):
        # Below LONG_ROWS the row passes are single numpy calls, from it on
        # SIMD loops; either way each member has the bits of its run alone,
        # in the Newton loop, the Firth loop and the fit stack.
        rng = np.random.default_rng(rows)
        y = (rng.random(rows) < 0.3).astype(float)
        panel = list(_large_panel_columns(rows, seed=11).T)
        separated = np.where(y == 1.0, 1.0, -1.0) * rng.uniform(1.0, 2.0, rows)
        collinear = np.full(rows, 2.0)
        *traces, diverged, failed = assert_members_run_alone([*panel, separated, collinear], y)
        assert all(trace.converged for trace in traces)
        assert not diverged.converged and failed == (1, 0, failed.max_score, False)
        firth = assert_members_run_alone([*panel, separated], y, True)
        assert all(trace.converged for trace in firth)
        fits = assert_fits_run_alone([toy_design(x, y) for x in (*panel, separated, collinear)])
        assert [fit.separation for fit in fits[-2:]] == [SEPARATION_COMPLETE, SEPARATION_NONE]
        assert np.isnan(fits[-1].se).all() and np.isfinite(fits[0].se).all()


class TestSeparation:
    def test_complete_separation_toy(self):
        x = np.array([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0])
        fit = fit_logistic(toy_design(x, (x > 0).astype(float)))
        assert not fit.converged
        assert fit.separation == SEPARATION_COMPLETE

    def test_quasi_separation_toy(self):
        # Overlap only at x=4, which carries both a 0 and a 1.
        x = np.array([1.0, 2.0, 3.0, 4.0, 4.0, 5.0, 6.0, 7.0])
        y = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        fit = fit_logistic(toy_design(x, y))
        assert not fit.converged
        assert fit.separation == SEPARATION_QUASI

    def test_diverged_slope_beyond_the_float_range_is_diagnosed_quietly(self):
        # A screen stalled on a column near 1e111 can leave a slope near
        # -4e290, as a 23-row panel did: X @ beta overflows, without a warning.
        dm = toy_design([1e111, 2e111, 3e111, 4e-89], [0.0, 0.0, 0.0, 1.0])
        sd = np.std(dm.X[:, 1:], axis=0, ddof=1)
        assert _separation(dm.X, dm.y, np.array([1e202, -1e290]), False,
                           sd) == SEPARATION_COMPLETE

    def test_slope_beyond_the_float_range_of_its_unit_is_inf(self):
        # A column in a unit near 1e-320 (subnormal): the stalled slope is
        # finite on the unit-scaled column, which the separation check
        # reads, and -inf in the column's own unit, without a warning.
        x = [1e-320, 2e-320, 3e-320, 4e-321]
        fit = fit_logistic(toy_design(x, [0.0, 0.0, 0.0, 1.0]))
        assert not fit.converged and fit.separation == SEPARATION_COMPLETE
        assert fit.beta[1] == -math.inf

    def test_step_beyond_the_float_range_on_a_unit_scaled_column_is_quiet(self):
        # Unit-scaled, this column spans 5e-157..0.625: a Newton step of the
        # diverging fit reaches 7e156, the next one inf, without a warning.
        x = [4.0, 5.0, 1.5, 4.352880220118173e-156, 0.0]
        fit = fit_logistic(toy_design(x, [0.0, 0.0, 0.0, 1.0, 0.0]))
        assert not fit.converged and fit.separation != SEPARATION_NONE
        assert np.isinf(fit.beta).all() and np.isnan(fit.se).all()

    @pytest.mark.parametrize("residual, separation", [
        (0.9e-4, SEPARATION_COMPLETE), (1.1e-4, SEPARATION_QUASI),
    ])
    def test_complete_means_every_row_within_1e_4(self, residual, separation):
        # A slope past the divergence bound; the rows at x = -1 and 1 are
        # the worst classified, each ``residual`` from its outcome.
        dm = toy_design([-3.0, -1.0, 1.0, 3.0], [0.0, 0.0, 1.0, 1.0])
        sd = np.std(dm.X[:, 1:], axis=0, ddof=1)
        slope = math.log((1.0 - residual) / residual)
        assert slope * sd[0] > DIVERGENCE_BOUND
        assert _separation(dm.X, dm.y, np.array([0.0, slope]), True, sd) == separation

    @pytest.mark.parametrize("tail, diverged", [(0.9e-8, True), (1.1e-8, False)])
    @pytest.mark.parametrize("high", [False, True])
    def test_unconverged_fit_diverges_at_probability_1e_8(self, tail, diverged, high):
        # A slope within the divergence bound: only the unconverged fit's
        # most extreme probability, ``tail`` from 0 (or from 1), can flag it.
        dm = toy_design([-1.0, 1.0, -1.0, 1.0], [0.0, 0.0, 1.0, 1.0])
        sd = np.std(dm.X[:, 1:], axis=0, ddof=1)
        assert sd[0] < DIVERGENCE_BOUND  # the slope is 1 or -1
        intercept = 1.0 + math.log(tail / (1.0 - tail))  # the row at x = -1
        beta = np.array([-intercept, -1.0] if high else [intercept, 1.0])
        separation = _separation(dm.X, dm.y, beta, False, sd)
        assert (separation != SEPARATION_NONE) == diverged
        assert _separation(dm.X, dm.y, beta, True, sd) == SEPARATION_NONE

    def test_pandemic_model_not_separated(self):
        # Both pandemic cells hold mixed outcomes: 3/7 and 1/25 failures.
        ds = embedded_dataset()
        fail, pandemic = ds.column("fail"), ds.column("pandemic")
        flagged = fail[pandemic == 1]
        assert (int(flagged.sum()), len(flagged)) == (3, 7)
        others = fail[pandemic == 0]
        assert (int(others.sum()), len(others)) == (1, 25)
        fit = fit_logistic(design_matrix(ds, ["pandemic"]))
        assert fit.separation == SEPARATION_NONE

    def test_final_model_design_has_convergence_problems(self):
        # Plain MLE on the three-predictor design diverges; the fit must be
        # flagged rather than silently returned as valid.
        dm = design_matrix(
            embedded_dataset(), ["us_inflation_rate", "ltd_over_rev", "ebitda_over_rev"]
        )
        fit = fit_logistic(dm)
        assert not fit.converged
        assert fit.separation in (SEPARATION_QUASI, SEPARATION_COMPLETE)


def _large_panel_columns(rows=1500, seed=7):
    """Columns of the kinds a 1,500-row benchmark panel holds: lognormal money
    in the thousands, ratios near 0.1, store counts, rates and a 0/1 flag."""
    rng = np.random.default_rng(seed)
    revenue = rng.lognormal(9.0, 0.8, rows)
    return np.column_stack([
        revenue, 0.7 * revenue, rng.uniform(0.15, 0.3, rows), rng.normal(0.06, 0.05, rows),
        rng.uniform(200.0, 5000.0, rows), rng.uniform(-0.5, 9.0, rows),
        rng.integers(0, 2, rows).astype(float),
    ])


class TestLongDesigns:
    """From LONG_ROWS rows on, log(1 + e^eta) and X diag(w) are SIMD passes."""

    ETAS = [0.0, 1e-300, 36.7, 708.4, 709.8, 745.2, 1e308]
    ETAS = ETAS + [-eta for eta in ETAS]

    @classmethod
    def design(cls, rows=LONG_ROWS, etas=ETAS):
        """A long design whose column holds each of ``etas`` once, beside
        ordinary values; under beta = (0, 1) the column is eta. The response
        is 1 where eta = 1e308 and 0 where eta = -1e308, so that the
        objective, a difference of sums that hold those rows, stays finite."""
        x = np.random.default_rng(5).normal(0.0, 3.0, rows)
        x[:len(etas)] = etas
        return toy_design(x, (np.arange(rows) % 3 == 0) | (x == 1e308))

    @staticmethod
    def assert_near_logaddexp(value, beta, dm):
        # A few ulp of each row's terms, and e^-708 where eta < -708, whose
        # e^eta the SIMD pass takes as e^-708.
        eta = dm.X @ beta
        terms = np.logaddexp(0.0, eta)
        reference = float(dm.y @ eta - terms.sum())
        largest = np.maximum(np.abs(dm.y * eta), terms)
        tolerance = 8.0 * np.spacing(largest).sum() + dm.n * math.exp(-708.0)
        assert abs(value - reference) <= tolerance, (value, reference)

    @pytest.mark.parametrize("rows", [LONG_ROWS, 1500])
    @pytest.mark.parametrize("beta", [(0.0, 1.0), (0.5, 1.0), (-0.5, 1.0)])
    def test_log_likelihood_near_logaddexp(self, rows, beta):
        # Quiet too: the test suite turns numpy's warnings into errors.
        dm, beta = self.design(rows), np.array(beta)
        self.assert_near_logaddexp(log_likelihood(beta, dm), beta, dm)

    @pytest.mark.parametrize("beta", [(0.0, 1.0), (0.0, -1.0), (0.5, 1.0)])
    def test_penalized_loglik_near_logaddexp(self, beta, monkeypatch):
        # The penalty 0.5 log det X'WX is that of the short path. Without the
        # rows at +-1e308, whose squares in X' (X'WX)^-1 X overflow.
        dm, beta = self.design(etas=[eta for eta in self.ETAS if abs(eta) < 1e308]), np.array(beta)
        value = penalized_loglik(beta, dm)
        monkeypatch.setattr(logistic, "LONG_ROWS", dm.n + 1)
        penalty = penalized_loglik(beta, dm) - log_likelihood(beta, dm)
        self.assert_near_logaddexp(value - penalty, beta, dm)

    def test_every_eta_row_by_row(self):
        # Within 3 ulp of logaddexp, and e^-708 for eta below -708.
        eta = np.array([*self.ETAS, math.inf, -math.inf])
        terms, reference = logistic._softplus_simd(eta), np.logaddexp(0.0, eta)
        clamped = eta < -708.0
        assert (terms[clamped] == math.exp(-708.0)).all() and (reference[clamped] < 3e-308).all()
        assert terms[eta == math.inf] == math.inf
        kept = ~clamped & np.isfinite(eta)
        assert np.all(np.abs(terms[kept] - reference[kept]) <= 3.0 * np.spacing(reference[kept]))

    @pytest.mark.parametrize("shape", [(14, LONG_ROWS, 2), (14, 1500, 2), (LONG_ROWS, 4),
                                       (1500, 4)])
    def test_information_has_the_broadcast_bits(self, shape):
        rng = np.random.default_rng(len(shape))
        X = rng.normal(size=shape)
        X[..., 0] = 1.0
        w = rng.uniform(0.0, 0.25, shape[:-1])
        w[..., :3] = [math.inf, math.nan, 0.0]
        X[..., 0, 1] = 0.0  # an inf weight times 0
        with np.errstate(invalid="ignore"):
            broadcast = (X * w[..., None]).swapaxes(-1, -2) @ X
            assert _information(X, w).tobytes() == broadcast.tobytes()

    def test_long_path_moves_only_the_objective(self, monkeypatch):
        # The objective gates step-halving and gives log_lik; beta and every
        # other n-row quantity take the same bits on both paths.
        ds = parse_dataset(panel_csv(seed=3, chains=275))
        designs = [design_matrix(ds, [name]) for group in SCREEN_GROUPS.values()
                   for name in group]
        long = fit_stack(designs)
        monkeypatch.setattr(logistic, "LONG_ROWS", ds.n + 1)
        short = fit_stack(designs)
        for a, b in zip(long, short):
            for field in ("beta", "se", "z", "p_values"):
                assert _bits(getattr(a, field)) == _bits(getattr(b, field)), field
            assert a.iterations == b.iterations and a.separation == b.separation
            assert abs(a.log_lik - b.log_lik) <= 2.0 * ds.n * np.spacing(abs(b.log_lik))


class TestSignificanceCode:
    @pytest.mark.parametrize(
        "p,code",
        [
            (0.0, "***"),
            (0.0009, "***"),
            (0.001, "**"),
            (0.0019, "**"),
            (0.009, "**"),
            (0.01, "*"),
            (0.04, "*"),
            (0.05, "."),  # boundary belongs to the weaker code
            (0.09, "."),
            (0.1, " "),
            (0.5, " "),
            (1.0, " "),
            (math.nan, "NA"),  # singular information: no p-value
        ],
    )
    def test_codes(self, p, code):
        assert significance_code(p) == code

    @pytest.mark.parametrize("p", [-0.01, 1.01])
    def test_out_of_range(self, p):
        with pytest.raises(ValueError):
            significance_code(p)
