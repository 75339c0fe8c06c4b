"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each criterion prints a single PASS/FAIL line (visible with ``pytest -s`` or
in captured output). Published reference values and the known print defects
they carry are documented in ``_reference.py``; deltas for the excluded cells
are printed, never asserted against.
"""

import io
import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from retailrisk.cli import run_command
from retailrisk.dataset import dataset_to_csv, design_matrix, embedded_dataset, parse_dataset
from retailrisk.descriptive import (
    CORRELATION_COLUMNS,
    correlation_matrix,
    mean_std,
    pearson_corr,
    shapiro_wilk,
)
from retailrisk.firth import fit_firth, firth_score, penalized_loglik
from retailrisk.logistic import (
    SEPARATION_NONE,
    fit_logistic,
    log_likelihood,
)
from retailrisk.pipeline import (
    REFERENCE_MODEL_COEFFICIENTS,
    fit_final_model,
    run_screen,
    table_from_coefficients,
)
from retailrisk.report import probability_section

import _reference as ref


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number} ({description}): FAIL")
        raise
    print(f"criterion {number} ({description}): PASS")


@pytest.fixture(scope="module")
def data():
    return embedded_dataset()


@pytest.fixture(scope="module")
def data_printed():
    return embedded_dataset(ratio_precision="printed")


@pytest.fixture(scope="module")
def final_fit(data):
    return fit_final_model(data)


def test_criterion_1_descriptive_statistics(data, data_printed):
    with criterion(1, "descriptive statistics"):
        for name, (mode, mean, mean_tol, std, std_tol, w, p, below) in ref.DESCRIPTIVES.items():
            series = (data_printed if mode == "printed" else data).column(name)
            got_mean, got_std = mean_std(series)
            got_w, got_p = shapiro_wilk(series)
            # +1e-9 keeps exact half-unit cases (e.g. a mean of 3475.125
            # printed as 3475.12) inside the rounding tolerance.
            assert got_mean == pytest.approx(mean, abs=mean_tol + 1e-9), f"{name} mean"
            if std is None:
                # Known print defect: report the delta, do not match it.
                print(
                    f"  note: {name} std computed {got_std:.4f} vs published "
                    f"{ref.COR_REV_STD_PRINTED} (suspected typo for 0.07), "
                    f"delta {got_std - ref.COR_REV_STD_PRINTED:+.4f}"
                )
                assert got_std == pytest.approx(0.07, abs=0.005), f"{name} plausible std"
            else:
                assert got_std == pytest.approx(std, abs=std_tol + 1e-9), f"{name} std"
            assert got_w == pytest.approx(w, abs=ref.SW_W_TOL), f"{name} W"
            if below:
                assert got_p < 0.001, f"{name} p class"
            else:
                assert got_p == pytest.approx(p, abs=ref.SW_P_TOL), f"{name} p"


def _hybrid_columns(data, data_printed):
    # The published workbook held two ratio columns at printed precision.
    return {
        name: (data_printed if name in ref.PRINTED_PRECISION_COLUMNS else data).column(name)
        for name in CORRELATION_COLUMNS
    }


def test_criterion_2_correlation_matrix(data, data_printed):
    with criterion(2, "correlation matrix"):
        columns = _hybrid_columns(data, data_printed)
        worst = 0.0
        for i, a in enumerate(CORRELATION_COLUMNS):
            for j, b in enumerate(CORRELATION_COLUMNS):
                got = 1.0 if i == j else pearson_corr(columns[a], columns[b])
                delta = abs(got - ref.CORRELATIONS[i, j])
                worst = max(worst, delta)
                assert delta <= ref.CORRELATION_TOL + 1e-12, f"({a}, {b})"
        print(f"  note: worst correlation deviation {worst:.4f}")
        for ds in (data, data_printed):
            matrix = correlation_matrix(ds)
            assert np.array_equal(matrix.r, matrix.r.T)
            assert np.array_equal(np.diag(matrix.r), np.ones(len(matrix.labels)))


def test_criterion_3_pandemic_closed_form(data):
    with criterion(3, "pandemic model closed form"):
        fit = fit_logistic(design_matrix(data, ["pandemic"]))
        assert fit.beta[0] == pytest.approx(math.log(1 / 24), abs=1e-6)
        assert fit.beta[1] == pytest.approx(math.log(18.0), abs=1e-6)
        assert fit.beta[0] == pytest.approx(-3.178, abs=0.001)
        assert fit.beta[1] == pytest.approx(2.890, abs=0.001)
        assert math.exp(2.890) > 17  # the slope's odds ratio: "over 17 times more likely"


def test_criterion_4_univariate_screens(data, data_printed):
    with criterion(4, "univariate screens"):
        for name, ref_fit in ref.UNIVARIATE.items():
            ds = data_printed if ref_fit["mode"] == "printed" else data
            fit = fit_logistic(design_matrix(ds, [name]))
            assert fit.converged, name
            excluded = ref_fit.get("excluded", ())
            checks = [
                ("b0", fit.beta[0], ref.COEF_TOL),
                ("se0", fit.se[0], ref.COEF_TOL),
                ("p0", fit.p_values[0], ref.P_TOL),
                ("b1", fit.beta[1], ref.COEF_TOL),
                ("se1", fit.se[1], ref.COEF_TOL),
                ("p1", fit.p_values[1], ref.P_TOL),
                ("aic", fit.aic, ref.AIC_TOL),
            ]
            for key, got, tol in checks:
                if key in excluded:
                    print(
                        f"  note: {name} {key} computed {got:.4f} vs published "
                        f"{ref_fit[key]} (known print defect), "
                        f"delta {got - ref_fit[key]:+.4f}"
                    )
                    continue
                assert got == pytest.approx(ref_fit[key], abs=tol), f"{name} {key}"


def test_criterion_5_firth_final_model(final_fit):
    with criterion(5, "penalized failure model"):
        for got, want in zip(final_fit.beta, ref.FINAL_MODEL["beta"]):
            assert got == pytest.approx(want, abs=ref.FINAL_COEF_TOL)
        for got, want in zip(final_fit.se, ref.FINAL_MODEL["se"]):
            assert got == pytest.approx(want, abs=ref.FINAL_COEF_TOL)
        for got, want in zip(final_fit.chisq, ref.FINAL_MODEL["chisq"]):
            assert got == pytest.approx(want, abs=ref.FINAL_CHISQ_TOL)
        assert final_fit.lr_stat == pytest.approx(
            ref.FINAL_MODEL["lr_stat"], abs=ref.FINAL_TEST_TOL
        )
        assert final_fit.lr_df == ref.FINAL_MODEL["lr_df"]
        assert final_fit.lr_p == pytest.approx(ref.FINAL_MODEL["lr_p"], abs=ref.FINAL_LRP_TOL)
        assert final_fit.wald_stat == pytest.approx(
            ref.FINAL_MODEL["wald_stat"], abs=ref.FINAL_TEST_TOL
        )
        assert final_fit.wald_df == ref.FINAL_MODEL["wald_df"]


def test_criterion_6_probability_table(data, data_printed, final_fit):
    with criterion(6, "probability table"):
        assert final_fit.converged
        table = table_from_coefficients(final_fit.beta, data)

        # The rendered grid's marker cells match the published "-"/"*" pattern
        # exactly; every other published cell holds a probability.
        grid = probability_section(table)
        rendered = {(chain, int(row[0])): text
                    for row in grid.rows for chain, text in zip(grid.columns[1:], row[1:])}
        for (chain, year), expected in ref.PROBABILITIES.items():
            if isinstance(expected, str):
                assert rendered[chain, year] == expected, (chain, year)
            else:
                assert year in table.probabilities[chain], (chain, year)

        # Hand-derivable cells from the published rounded coefficients.
        rounded = table_from_coefficients(REFERENCE_MODEL_COEFFICIENTS, data_printed)
        sears = rounded.probabilities["Sears Holdings"][2015]
        assert round(sears, 4) == 0.0160
        bbb = rounded.probabilities["Bed Bath & Beyond"][2022]
        assert round(bbb, 3) == 0.830

        # Full-table equality is not reproducible from the published printed
        # precision; report per-cell deltas and check the qualitative claims.
        worst = ("", 0, 0.0)
        for (chain, year), expected in ref.PROBABILITIES.items():
            if isinstance(expected, str):
                continue
            got = table.probabilities[chain][year]
            if abs(got - expected) > abs(worst[2]):
                worst = (chain, year, got - expected)
        print(f"  note: worst probability delta vs published: {worst[0]} {worst[1]} {worst[2]:+.3f}")

        def prob(chain, year):
            return table.probabilities[chain][year]

        for chain in ("Bed Bath & Beyond", "Rite Aid"):
            observed = [int(year) for c, year in zip(data.column("chain"), data.column("year"))
                        if c == chain]
            values = {y: prob(chain, y) for y in observed}
            assert values[2022] == max(values.values()), chain
            assert values[2022] > 0.5, chain
            assert values[2021] > max(v for y, v in values.items() if y < 2021), chain

        # The published narrative's Sears readings, recorded as deltas.
        print(
            f"  note: Sears 2017 computed {prob('Sears Holdings', 2017):.3f} "
            f"(published 0.070), 2018 computed {prob('Sears Holdings', 2018):.3f} "
            f"(published 0.162)"
        )


def test_criterion_7_property_suite(data):
    with criterion(7, "property suite"):
        rng = np.random.default_rng(2024)
        dm = design_matrix(data, ["us_inflation_rate", "ltd_over_rev", "ebitda_over_rev"])

        # Analytic scores vs central finite differences, 20 points each.
        for objective, gradient in (
            (log_likelihood, lambda b: dm.X.T @ (dm.y - 1 / (1 + np.exp(-(dm.X @ b))))),
            (penalized_loglik, lambda b: firth_score(b, dm)),
        ):
            for _ in range(20):
                beta = rng.normal(scale=0.4, size=dm.p)
                analytic = gradient(beta)
                numeric = np.empty(dm.p)
                for j in range(dm.p):
                    h = 1e-6 * max(1.0, abs(beta[j]))
                    up, down = beta.copy(), beta.copy()
                    up[j] += h
                    down[j] -= h
                    numeric[j] = (objective(up, dm) - objective(down, dm)) / (2 * h)
                denom = max(1.0, float(np.linalg.norm(analytic)))
                assert np.linalg.norm(analytic - numeric) / denom <= 1e-6

        # Affine invariance of fitted probabilities under column rescaling.
        from retailrisk.dataset import DesignMatrix
        from scipy.special import expit

        a, b = 2.6, -1.3
        scaled_X = dm.X.copy()
        scaled_X[:, 1] = a * scaled_X[:, 1] + b
        scaled = DesignMatrix(y=dm.y, X=scaled_X, labels=dm.labels)
        plain_dm = design_matrix(data, ["us_inflation_rate"])
        plain_scaled = DesignMatrix(
            y=plain_dm.y,
            X=np.column_stack([plain_dm.X[:, 0], a * plain_dm.X[:, 1] + b]),
            labels=plain_dm.labels,
        )
        p_plain = expit(plain_dm.X @ fit_logistic(plain_dm).beta)
        p_plain_scaled = expit(plain_scaled.X @ fit_logistic(plain_scaled).beta)
        assert np.max(np.abs(p_plain - p_plain_scaled)) <= 1e-8
        p_firth = expit(dm.X @ fit_firth(dm).beta)
        p_firth_scaled = expit(scaled.X @ fit_firth(scaled).beta)
        assert np.max(np.abs(p_firth - p_firth_scaled)) <= 1e-6

        # AIC identity for every univariate screen fit.
        for group in ("external", "internal", "ratios"):
            for _, fit in run_screen(data, group).fits:
                assert abs(fit.aic - (2 * 2 - 2 * fit.log_lik)) <= 1e-9

        # Firth finiteness where plain MLE separates.
        x = np.array([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0])
        toy = DesignMatrix(
            y=(x > 0).astype(float),
            X=np.column_stack([np.ones(8), x]),
            labels=("intercept", "x"),
        )
        assert fit_logistic(toy).separation != SEPARATION_NONE
        firth_toy = fit_firth(toy)
        assert firth_toy.converged and np.all(np.isfinite(firth_toy.beta))

        # Odds-ratio multiplicativity.
        for _ in range(20):
            u, v = rng.normal(scale=2, size=2)
            assert math.exp(u + v) == pytest.approx(math.exp(u) * math.exp(v), rel=1e-12)


def test_criterion_8_determinism_and_roundtrip(data):
    with criterion(8, "determinism and round-trip"):
        outputs = []
        for _ in range(2):
            out = io.StringIO()
            status = run_command(["report", "--format", "json"], stdout=out)
            assert status == 0
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])  # well-formed

        assert parse_dataset(dataset_to_csv(data)) == data
        out = io.StringIO()
        assert run_command(["export-data"], stdout=out) == 0
        assert parse_dataset(out.getvalue()) == data
