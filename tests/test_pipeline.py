import csv
import io
import math

import numpy as np
import pytest

from retailrisk import pipeline
from retailrisk.dataset import (
    CSV_HEADER,
    EMBEDDED_CSV,
    dataset_to_csv,
    embedded_dataset,
    parse_dataset,
)
from retailrisk.pipeline import (
    FINAL_MODEL_PREDICTORS,
    REFERENCE_FAILURE_PROBABILITIES,
    REFERENCE_MODEL_COEFFICIENTS,
    SCREEN_GROUPS,
    _probability,
    fit_final_model,
    odds_ratio,
    probability_drift,
    run_screen,
    table_from_coefficients,
)
from retailrisk.report import ROUNDING, fmt_number, probability_section

from _ingest_reference import derive_ratios, parse_records
from _panel import panel_csv


def embedded_cell(beta, chain, year, precision="full"):
    """The probability of one cell of the grid on the embedded data."""
    return table_from_coefficients(beta, embedded_dataset(precision)).probabilities[chain][year]


def record_probability(beta, record, precision):
    """The failure probability of one reference record, computed on its own."""
    b0, b1, b2, b3 = (float(b) for b in beta)
    ratios = derive_ratios(record, precision)
    eta = (b0 + b1 * record.us_inflation_rate + b2 * ratios.ltd_over_rev
           + b3 * ratios.ebitda_over_rev)
    if eta >= 0:
        return 1.0 / (1.0 + math.exp(-eta))
    z = math.exp(eta)
    return z / (1.0 + z)


def all_probabilities(table):
    """Every probability of the grid, chain by chain in year order."""
    return [prob for chain in table.chains for prob in table.probabilities[chain].values()]


def rendered_grid(table):
    """The rendered grid's text, keyed by (chain, year)."""
    section = probability_section(table)
    return {(chain, int(row[0])): text
            for row in section.rows for chain, text in zip(section.columns[1:], row[1:])}


def chain_years(ds, chain):
    """(year, fail) of each of ``chain``'s rows, read from the columns."""
    return [(int(year), int(fail))
            for c, year, fail in zip(ds.column("chain"), ds.column("year"), ds.column("fail"))
            if c == chain]


def window_rows(ds, table):
    """The grid's rows as text, from each chain's window in the data: '-'
    before its first year, its probabilities over its years, '*' after a
    failure year and '-' after the last year of a chain that never failed."""
    windows = {chain: dict(chain_years(ds, chain)) for chain in ds.chains}

    def text(chain, year):
        rows = windows[chain]
        if year in rows:
            return fmt_number(table.probabilities[chain][year], ROUNDING["probability"])
        failed = max(rows) if rows[max(rows)] == 1 else None
        return "*" if failed is not None and year > failed else "-"
    return tuple((str(year), *(text(chain, year) for chain in ds.chains)) for year in table.years)


class TestScreens:
    def test_group_memberships(self):
        assert SCREEN_GROUPS["external"] == (
            "acsi", "pandemic", "us_interest_rate", "us_inflation_rate"
        )
        assert SCREEN_GROUPS["internal"] == (
            "revenue", "sga", "cost_of_revenue", "stores", "ebitda", "long_term_debt"
        )
        assert SCREEN_GROUPS["ratios"] == (
            "sga_over_rev", "cor_over_rev", "ebitda_over_rev", "ltd_over_rev"
        )

    def test_external_group_aic_ordering(self):
        report = run_screen(embedded_dataset(), "external")
        assert min(report.fits, key=lambda item: item[1].aic)[0] == "us_inflation_rate"
        assert report.fit_for("us_inflation_rate").aic == pytest.approx(20.349, abs=0.02)
        aic = {name: fit.aic for name, fit in report.fits}
        assert (
            aic["us_inflation_rate"]
            < aic["pandemic"]
            < aic["us_interest_rate"]
            < aic["acsi"]
        )

    def test_internal_group_lowest_aic(self):
        report = run_screen(embedded_dataset(), "internal")
        assert min(report.fits, key=lambda item: item[1].aic)[0] == "ebitda"
        assert report.fit_for("ebitda").aic == pytest.approx(19.806, abs=0.02)

    def test_ratios_group_lowest_aic(self):
        report = run_screen(embedded_dataset(), "ratios")
        assert min(report.fits, key=lambda item: item[1].aic)[0] == "ebitda_over_rev"
        assert report.fit_for("ebitda_over_rev").aic == pytest.approx(13.951, abs=0.02)

    def test_unknown_group(self):
        with pytest.raises(KeyError):
            run_screen(embedded_dataset(), "macro")


class TestFinalModel:
    def test_uses_fixed_predictors(self):
        fit = fit_final_model(embedded_dataset())
        assert fit.labels == ("intercept",) + FINAL_MODEL_PREDICTORS
        assert fit.converged

    def test_single_chain_dataset_still_fits(self):
        lines = EMBEDDED_CSV.splitlines(keepends=True)
        rite_aid = [line for line in lines if line.startswith("Rite Aid,")]
        ds = parse_dataset("".join([lines[0], *rite_aid]))
        assert ds.chains == ("Rite Aid",) and ds.n == 10
        fit = fit_final_model(ds)
        assert fit.converged
        assert np.all(np.isfinite(fit.beta))

    def test_zero_variance_predictor_is_singular_design(self):
        from retailrisk.linalg import SingularMatrixError

        rows = "\n".join(
            f"A,{2013 + i},{1 if i == 4 else 0},{100 + i},70,20,{5 - i},10,2,1.5,{30 + i},0,75"
            for i in range(5)
        )
        ds = parse_dataset(",".join(CSV_HEADER) + "\n" + rows + "\n")
        with pytest.raises(SingularMatrixError):
            fit_final_model(ds)  # inflation column is constant


#: The columns in a money unit (millions of USD in the embedded data).
MONEY_COLUMNS = ("revenue", "cost_of_revenue", "sga", "ebitda", "long_term_debt")


def _rescaled(factor, columns=MONEY_COLUMNS, precision="full"):
    """The embedded data with ``columns`` multiplied by ``factor``, as a CSV
    in those units would give it."""
    rows = list(csv.DictReader(io.StringIO(EMBEDDED_CSV)))
    for row in rows:
        row.update({name: repr(float(row[name]) * factor) for name in columns})
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_HEADER, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return parse_dataset(out.getvalue(), ratio_precision=precision)


class TestUnits:
    """No conclusion depends on the unit of a column: the fitted values of a
    logistic model, MLE or Firth, do not change when a column is rescaled."""

    @pytest.mark.parametrize("k", range(-12, 13))
    def test_raw_screens_agree_in_every_money_unit(self, k):
        reference = run_screen(embedded_dataset(), "internal")
        for (name, fit), (_, ref) in zip(run_screen(_rescaled(10.0**k), "internal").fits,
                                         reference.fits):
            assert fit.converged, name
            assert fit.p_values[1] == pytest.approx(ref.p_values[1], rel=0, abs=1e-12), name

    @pytest.mark.parametrize("precision", ["full", "printed"])
    @pytest.mark.parametrize("k", [10, -20, 300])
    def test_ratio_fits_are_bit_identical_in_binary_money_units(self, k, precision):
        # A power of two scales numerator and revenue exactly, so every ratio,
        # and every fit on ratios alone, is unchanged bit for bit.
        ds, scaled = embedded_dataset(precision), _rescaled(2.0**k, precision=precision)
        pairs = list(zip(run_screen(scaled, "ratios").fits, run_screen(ds, "ratios").fits))
        pairs.append(((None, fit_final_model(scaled)), (None, fit_final_model(ds))))
        for (_, fit), (_, ref) in pairs:
            for field in ("beta", "se", "p_values"):
                assert np.array_equal(getattr(fit, field), getattr(ref, field)), field
            assert fit.iterations == ref.iterations

    # At k <= -155 the inflation slope's variance is beyond the float range,
    # though its standard error is not. At k = -159 the information's
    # inflation entry (near 1e-317) is subnormal and holds about 7 digits,
    # which moves the p-values at 1e-5.
    @pytest.mark.parametrize("k,rtol", [(-159, 1e-4), (-156, 1e-9), (-100, 1e-9), (100, 1e-9),
                                        (153, 1e-9)])
    def test_wald_inference_is_free_of_the_inflation_unit(self, k, rtol):
        ds, scaled = embedded_dataset(), _rescaled(10.0**k, ("us_inflation_rate",))
        fit, ref = fit_final_model(scaled), fit_final_model(ds)
        for field in ("chisq", "p_values", "lr_stat", "lr_p", "wald_stat", "wald_p"):
            np.testing.assert_allclose(getattr(fit, field), getattr(ref, field), rtol=rtol,
                                       atol=0, err_msg=field)
        for (name, screen), (_, expected) in zip(run_screen(scaled, "external").fits,
                                                 run_screen(ds, "external").fits):
            np.testing.assert_allclose(screen.p_values, expected.p_values, rtol=rtol, atol=0,
                                       err_msg=name)

    @pytest.mark.parametrize("factor", [0.01, 100.0])
    def test_final_model_grid_is_free_of_the_inflation_unit(self, factor):
        # The Jeffreys penalty is invariant under reparametrization (Firth 1993).
        ds, scaled = embedded_dataset(), _rescaled(factor, ("us_inflation_rate",))
        grid = table_from_coefficients(fit_final_model(ds).beta, ds)
        scaled_grid = table_from_coefficients(fit_final_model(scaled).beta, scaled)
        expected = all_probabilities(grid)
        got = all_probabilities(scaled_grid)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)


def _bumped_rite_aid_2017(**change):
    """The embedded data with Rite Aid's 2017 row changed by ``change``."""
    rows = list(csv.DictReader(io.StringIO(EMBEDDED_CSV)))
    row = next(r for r in rows if (r["chain"], r["year"]) == ("Rite Aid", "2017"))
    row.update({name: repr(f(float(row[name]))) for name, f in change.items()})
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_HEADER, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return parse_dataset(out.getvalue())


class TestCellProbability:
    def test_zero_eta_is_half(self):
        assert embedded_cell((0.0, 0.0, 0.0, 0.0), "Rite Aid", 2015) == 0.5

    def test_sears_2015_with_published_coefficients(self):
        p = embedded_cell(REFERENCE_MODEL_COEFFICIENTS, "Sears Holdings", 2015, "printed")
        assert round(p, 4) == 0.0160
        p_full = embedded_cell(REFERENCE_MODEL_COEFFICIENTS, "Sears Holdings", 2015)
        assert round(p_full, 4) == 0.0160

    def test_bbb_2022_with_published_coefficients(self):
        p = embedded_cell(REFERENCE_MODEL_COEFFICIENTS, "Bed Bath & Beyond", 2022, "printed")
        assert round(p, 3) == 0.830

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="expected 4 coefficients, got 2"):
            table_from_coefficients((0.0, 1.0), embedded_dataset())

    def test_overflow_safe(self):
        assert _probability(1000.0) == 1.0
        assert _probability(-1000.0) == pytest.approx(
            0.0, abs=1e-300
        )

    def test_monotone_in_each_predictor(self):
        beta = fit_final_model(embedded_dataset()).beta

        def p(ds):
            return table_from_coefficients(beta, ds).probabilities["Rite Aid"][2017]

        p0 = p(embedded_dataset())
        assert p(_bumped_rite_aid_2017(us_inflation_rate=lambda v: v + 1)) > p0
        assert p(_bumped_rite_aid_2017(long_term_debt=lambda v: v * 2)) > p0
        assert p(_bumped_rite_aid_2017(ebitda=lambda v: v + 500)) < p0


class TestProbabilityTable:
    def test_marker_pattern(self):
        ds = embedded_dataset()
        table = table_from_coefficients(fit_final_model(ds).beta, ds)
        assert table.years == tuple(range(2013, 2023))
        assert table.chains == ds.chains
        rendered = rendered_grid(table)
        assert rendered["Bed Bath & Beyond", 2013] == "-"
        assert rendered["Bed Bath & Beyond", 2014] == "-"
        for year in range(2019, 2023):
            assert rendered["Sears Holdings", year] == "*"
        for year in (2021, 2022):
            assert rendered["J.C. Penney", year] == "*"
        assert sum(text in ("-", "*") for text in rendered.values()) == 8
        assert len(all_probabilities(table)) == 32

    def test_early_warning_properties(self):
        ds = embedded_dataset()
        table = table_from_coefficients(fit_final_model(ds).beta, ds)

        def prob(chain, year):
            return table.probabilities[chain][year]

        for chain in ("Bed Bath & Beyond", "Rite Aid"):
            years = [year for year, _ in chain_years(ds, chain)]
            values = {y: prob(chain, y) for y in years}
            assert values[2022] == max(values.values())
            assert values[2022] > 0.5
            pre_2021 = [v for y, v in values.items() if y < 2021]
            assert values[2021] > max(pre_2021)

    def test_failure_year_exceeds_chain_minimum(self):
        ds = embedded_dataset()
        table = table_from_coefficients(fit_final_model(ds).beta, ds)
        for chain in ds.chains:
            years = [year for year, _ in chain_years(ds, chain)]
            failure_year = years[-1]
            values = [table.probabilities[chain][year] for year in years]
            assert table.probabilities[chain][failure_year] > min(values)

    def test_never_failing_chain_gets_not_available_after_last_year(self):
        rows = (
            "A,2015,0,100,70,20,5,10,2,1.5,30,0,75\n"
            "A,2016,1,90,65,20,5,10,2,1.5,30,0,75\n"
            "B,2014,0,200,140,40,10,20,2,1.5,60,0,80\n"
            "B,2015,0,210,150,42,11,20,2,1.5,60,0,80\n"
        )
        ds = parse_dataset(",".join(CSV_HEADER) + "\n" + rows)
        table = table_from_coefficients(REFERENCE_MODEL_COEFFICIENTS, ds)
        rendered = rendered_grid(table)
        assert rendered["B", 2016] == "-"  # never failed
        assert rendered["A", 2014] == "-"

    def test_grid_with_a_gap_between_chain_windows(self):
        rows = (
            "A,2000,0,100,70,20,5,10,2,1.5,30,0,75\n"
            "B,2010,0,200,140,40,10,20,2,1.5,60,0,80\n"
            "A,2001,1,90,65,20,5,10,2,1.5,30,0,75\n"
            "B,2011,0,210,150,42,11,20,2,1.5,60,0,80\n"
        )
        ds = parse_dataset(",".join(CSV_HEADER) + "\n" + rows)
        table = table_from_coefficients(REFERENCE_MODEL_COEFFICIENTS, ds)
        assert table.years == (2000, 2001, 2010, 2011)
        rendered = probability_section(table).rows
        assert rendered == window_rows(ds, table)
        shape = [[text if text in ("-", "*") else "p" for text in row[1:]] for row in rendered]
        assert shape == [["p", "-"], ["p", "-"], ["*", "p"], ["*", "p"]]
        assert dict(table.failure_years) == {"A": 2001, "B": None}
        with pytest.raises(TypeError):
            table.probabilities["A"][2002] = 0.5

    @pytest.mark.parametrize("intercept,text", [(40.0, "1.000"), (-800.0, "0.000")])
    def test_saturated_cells_are_exact(self, intercept, text):
        table = table_from_coefficients((intercept, 0.0, 0.0, 0.0), embedded_dataset())
        probabilities = all_probabilities(table)
        assert len(probabilities) == 32
        assert set(probabilities) == {float(text)}
        rendered = probability_section(table).rows
        assert sum(row.count(text) for row in rendered) == 32

    @pytest.mark.parametrize("index", range(4))
    def test_nan_coefficient_is_refused(self, index):
        beta = list(REFERENCE_MODEL_COEFFICIENTS)
        beta[index] = math.nan
        with pytest.raises(ValueError, match=r"must be in \[0, 1\], got nan"):
            table_from_coefficients(beta, embedded_dataset())

    def test_drift_looks_up_published_cells_only(self, monkeypatch):
        """The embedded chains beside a 220-chain panel: a grid of 5,824
        cells, of which the drift looks up only the 32 published ones."""
        lookups = []

        class CountingDict(dict):
            def get(self, key, default=None):
                lookups.append(key)
                return super().get(key, default)

            def __getitem__(self, key):
                lookups.append(key)
                return super().__getitem__(key)

        monkeypatch.setattr(pipeline, "REFERENCE_FAILURE_PROBABILITIES",
                            CountingDict(REFERENCE_FAILURE_PROBABILITIES))
        ds = parse_dataset(EMBEDDED_CSV + panel_csv().split("\n", 1)[1])
        table = table_from_coefficients(REFERENCE_MODEL_COEFFICIENTS, ds)
        assert len(probability_drift(table)) == 32
        assert len(lookups) <= len(REFERENCE_FAILURE_PROBABILITIES)

    def test_drift_report_covers_all_probability_cells(self):
        ds = embedded_dataset()
        table = table_from_coefficients(fit_final_model(ds).beta, ds)
        drift = probability_drift(table)
        assert len(drift) == 32
        for chain, year, computed, published, delta in drift:
            assert delta == pytest.approx(computed - published, abs=1e-12)


def _jcp_first(csv_text):
    """The CSV with the J.C. Penney rows moved before every other row."""
    header, *rows = csv_text.splitlines(keepends=True)
    jcp = [row for row in rows if row.startswith("J.C. Penney,")]
    return "".join([header, *jcp, *(row for row in rows if row not in jcp)])


def _grids():
    """(dataset, beta) pairs: fitted and published coefficients on the
    embedded data in both ratio modes, fitted ones on a 220-chain panel."""
    cases = []
    for precision in ("full", "printed"):
        ds = embedded_dataset(precision)
        panel = parse_dataset(panel_csv(), precision)
        cases += [
            pytest.param(ds, tuple(fit_final_model(ds).beta), id=f"embedded-{precision}-fitted"),
            pytest.param(ds, REFERENCE_MODEL_COEFFICIENTS, id=f"embedded-{precision}-rounded"),
            pytest.param(panel, tuple(fit_final_model(panel).beta), id=f"panel-{precision}"),
        ]
    return cases


class TestGridAgainstPerRecordReference:
    @pytest.mark.parametrize("ds,beta", _grids())
    def test_probabilities_are_bit_identical(self, ds, beta):
        table = table_from_coefficients(beta, ds)
        records = parse_records(dataset_to_csv(ds))
        assert len(all_probabilities(table)) == len(records)
        for r in records:
            prob = table.probabilities[r.chain][r.year]
            assert prob == record_probability(beta, r, ds.ratio_precision)

    @pytest.mark.parametrize("ds,beta", _grids())
    def test_marker_cells_follow_each_chain_window(self, ds, beta):
        table = table_from_coefficients(beta, ds)
        assert table.chains == ds.chains
        assert table.years == tuple(sorted(set(ds.column("year").astype(int).tolist())))
        assert probability_section(table).rows == window_rows(ds, table)

    @pytest.mark.parametrize("csv_text", [EMBEDDED_CSV, _jcp_first(EMBEDDED_CSV)],
                             ids=["embedded", "jcp-first"])
    def test_drift_is_chain_major(self, csv_text):
        ds = parse_dataset(csv_text)
        drift = probability_drift(table_from_coefficients(REFERENCE_MODEL_COEFFICIENTS, ds))
        rows = list(zip(ds.column("chain"), ds.column("year").astype(int).tolist()))
        assert [(c, y) for c, y, *_ in drift] == rows


class TestOddsRatio:
    def test_reference_values(self):
        assert odds_ratio(0.0555) == pytest.approx(1.057, abs=0.001)
        assert odds_ratio(0.0) == 1.0
        assert odds_ratio(2.890) == pytest.approx(17.99, abs=0.01)
        assert odds_ratio(2.890) > 17  # "over 17 times more likely"

    def test_multiplicative(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            a, b = rng.normal(scale=2, size=2)
            assert odds_ratio(a + b) == pytest.approx(
                odds_ratio(a) * odds_ratio(b), rel=1e-12
            )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            odds_ratio(math.inf)
