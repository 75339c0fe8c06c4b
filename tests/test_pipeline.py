import math

import numpy as np
import pytest

from retailrisk.dataset import CSV_HEADER, FirmYearRecord, parse_dataset, embedded_dataset
from retailrisk.pipeline import (
    CELL_CEASED,
    CELL_NOT_AVAILABLE,
    CELL_PROBABILITY,
    FINAL_MODEL_PREDICTORS,
    REFERENCE_MODEL_COEFFICIENTS,
    SCREEN_GROUPS,
    fit_final_model,
    odds_ratio,
    predict_probability,
    probability_drift,
    probability_table,
    run_screen,
    table_from_coefficients,
)

from _panel import panel_csv


def record_for(chain, year):
    ds = embedded_dataset()
    return next(r for r in ds.records if r.chain == chain and r.year == year)


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
        assert report.lowest_aic() == "us_inflation_rate"
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
        assert report.lowest_aic() == "ebitda"
        assert report.fit_for("ebitda").aic == pytest.approx(19.806, abs=0.02)

    def test_ratios_group_lowest_aic(self):
        report = run_screen(embedded_dataset(), "ratios")
        assert report.lowest_aic() == "ebitda_over_rev"
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
        from retailrisk.dataset import Dataset

        rows = tuple(r for r in embedded_dataset().records if r.chain == "Rite Aid")
        fit = fit_final_model(Dataset(rows))
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


class TestPredictProbability:
    def test_zero_eta_is_half(self):
        assert predict_probability((0.0, 0.0, 0.0, 0.0), record_for("Rite Aid", 2015)) == 0.5

    def test_sears_2015_with_published_coefficients(self):
        p = predict_probability(
            REFERENCE_MODEL_COEFFICIENTS, record_for("Sears Holdings", 2015), "printed"
        )
        assert round(p, 4) == 0.0160
        p_full = predict_probability(
            REFERENCE_MODEL_COEFFICIENTS, record_for("Sears Holdings", 2015)
        )
        assert round(p_full, 4) == 0.0160

    def test_bbb_2022_with_published_coefficients(self):
        p = predict_probability(
            REFERENCE_MODEL_COEFFICIENTS, record_for("Bed Bath & Beyond", 2022), "printed"
        )
        assert round(p, 3) == 0.830

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            predict_probability((0.0, 1.0), record_for("Rite Aid", 2015))

    def test_overflow_safe(self):
        rec = record_for("Rite Aid", 2015)
        assert predict_probability((1000.0, 0.0, 0.0, 0.0), rec) == 1.0
        assert predict_probability((-1000.0, 0.0, 0.0, 0.0), rec) == pytest.approx(0.0, abs=1e-300)

    def test_monotone_in_each_predictor(self):
        fit = fit_final_model(embedded_dataset())
        base = record_for("Rite Aid", 2017)
        p0 = predict_probability(fit.beta, base)

        def bumped(**kw):
            fields = {f: getattr(base, f) for f in base.__dataclass_fields__}
            fields.update(kw)
            return FirmYearRecord(**fields)

        assert predict_probability(fit.beta, bumped(us_inflation_rate=base.us_inflation_rate + 1)) > p0
        assert predict_probability(fit.beta, bumped(long_term_debt=base.long_term_debt * 2)) > p0
        assert predict_probability(fit.beta, bumped(ebitda=base.ebitda + 500)) < p0


class TestProbabilityTable:
    def test_marker_pattern(self):
        ds = embedded_dataset()
        table = probability_table(fit_final_model(ds), ds)
        assert table.years == tuple(range(2013, 2023))
        assert table.chains == ds.chains
        assert table.cell("Bed Bath & Beyond", 2013).kind == CELL_NOT_AVAILABLE
        assert table.cell("Bed Bath & Beyond", 2014).kind == CELL_NOT_AVAILABLE
        for year in range(2019, 2023):
            assert table.cell("Sears Holdings", year).kind == CELL_CEASED
        for year in (2021, 2022):
            assert table.cell("J.C. Penney", year).kind == CELL_CEASED
        probability_cells = [
            cell for row in table.cells for cell in row if cell.kind == CELL_PROBABILITY
        ]
        assert len(probability_cells) == 32

    def test_early_warning_properties(self):
        ds = embedded_dataset()
        table = probability_table(fit_final_model(ds), ds)

        def prob(chain, year):
            return table.cell(chain, year).probability

        for chain in ("Bed Bath & Beyond", "Rite Aid"):
            years = [r.year for r in ds.chain_records(chain)]
            values = {y: prob(chain, y) for y in years}
            assert values[2022] == max(values.values())
            assert values[2022] > 0.5
            pre_2021 = [v for y, v in values.items() if y < 2021]
            assert values[2021] > max(pre_2021)

    def test_failure_year_exceeds_chain_minimum(self):
        ds = embedded_dataset()
        table = probability_table(fit_final_model(ds), ds)
        for chain in ds.chains:
            recs = ds.chain_records(chain)
            failure_year = recs[-1].year
            values = [table.cell(chain, r.year).probability for r in recs]
            assert table.cell(chain, failure_year).probability > min(values)

    def test_never_failing_chain_gets_not_available_after_last_year(self):
        rows = (
            "A,2015,0,100,70,20,5,10,2,1.5,30,0,75\n"
            "A,2016,1,90,65,20,5,10,2,1.5,30,0,75\n"
            "B,2014,0,200,140,40,10,20,2,1.5,60,0,80\n"
            "B,2015,0,210,150,42,11,20,2,1.5,60,0,80\n"
        )
        ds = parse_dataset(",".join(CSV_HEADER) + "\n" + rows)
        table = table_from_coefficients(REFERENCE_MODEL_COEFFICIENTS, ds)
        assert table.cell("B", 2016).kind == CELL_NOT_AVAILABLE  # never failed
        assert table.cell("A", 2014).kind == CELL_NOT_AVAILABLE

    def test_unconverged_fit_rejected(self):
        import dataclasses

        ds = embedded_dataset()
        fit = dataclasses.replace(fit_final_model(ds), converged=False)
        with pytest.raises(ValueError, match="unconverged"):
            probability_table(fit, ds)

    def test_drift_report_covers_all_probability_cells(self):
        ds = embedded_dataset()
        table = probability_table(fit_final_model(ds), ds)
        drift = probability_drift(table)
        assert len(drift) == 32
        for chain, year, computed, published, delta in drift:
            assert delta == pytest.approx(computed - published, abs=1e-12)


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


class TestGridAgainstPerRecordPath:
    @pytest.mark.parametrize("ds,beta", _grids())
    def test_probabilities_are_bit_identical(self, ds, beta):
        table = table_from_coefficients(beta, ds)
        for r in ds.records:
            cell = table.cell(r.chain, r.year)
            assert cell.kind == CELL_PROBABILITY
            assert cell.probability == predict_probability(beta, r, ds.ratio_precision)

    @pytest.mark.parametrize("ds,beta", _grids())
    def test_cell_equals_linear_scan(self, ds, beta):
        table = table_from_coefficients(beta, ds)
        assert table.chains == ds.chains
        assert table.years == tuple(sorted({r.year for r in ds.records}))
        for chain in table.chains:
            for year in table.years:
                expected = table.cells[table.years.index(year)][table.chains.index(chain)]
                assert table.cell(chain, year) is expected

    @pytest.mark.parametrize("ds,beta", _grids())
    def test_marker_cells_follow_each_chain_window(self, ds, beta):
        table = table_from_coefficients(beta, ds)
        for chain in ds.chains:
            recs = ds.chain_records(chain)
            failed = recs[-1].year if recs[-1].fail == 1 else None
            for year in table.years:
                kind = table.cell(chain, year).kind
                if recs[0].year <= year <= recs[-1].year:
                    assert kind == CELL_PROBABILITY
                elif failed is not None and year > failed:
                    assert kind == CELL_CEASED
                else:
                    assert kind == CELL_NOT_AVAILABLE

    def test_drift_is_chain_major(self):
        ds = embedded_dataset()
        drift = probability_drift(table_from_coefficients(REFERENCE_MODEL_COEFFICIENTS, ds))
        assert [(c, y) for c, y, *_ in drift] == [(r.chain, r.year) for r in ds.records]


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
