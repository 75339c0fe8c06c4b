import csv
import dataclasses
import hashlib
import io
import itertools
import json
import random
import warnings
from pathlib import Path

import pytest

from retailrisk import (
    DataParseError,
    DataValidationError,
    DegenerateDataError,
    DegenerateResponseError,
    RetailRiskError,
    SingularMatrixError,
)
from retailrisk.cli import run_command
from retailrisk.dataset import (
    EMBEDDED_CSV,
    dataset_to_csv,
    design_matrix,
    embedded_dataset,
    parse_dataset,
)
from retailrisk.firth import fit_firth
from retailrisk.pipeline import FINAL_MODEL_PREDICTORS, fit_final_model, table_from_coefficients
from retailrisk.report import (
    SIGNIF_LEGEND,
    ReportDocument,
    Section,
    describe_section,
    final_model_section,
    probability_section,
    render,
)

from _panel import panel_csv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    status = run_command(argv, stdout=out, stderr=err)
    return status, out.getvalue(), err.getvalue()


def write_variant(path, change=lambda row: {}, select=lambda rows: rows):
    """The embedded data as CSV at ``path``, each row updated by ``change(row)``,
    keeping the rows ``select(rows)`` returns."""
    rows = select(list(csv.DictReader(io.StringIO(dataset_to_csv(embedded_dataset())))))
    for row in rows:
        row.update(change(row))
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return path


class TestRender:
    def test_empty_document_has_header_only(self):
        text = render(ReportDocument(sections=(), format="markdown"))
        assert text == "# Retail chain failure analysis\n"

    def test_markdown_final_model_layout(self):
        ds = embedded_dataset()
        section = final_model_section(fit_final_model(ds), ds.n)
        text = render(ReportDocument(sections=(section,), format="markdown"))
        body_rows = [line for line in text.splitlines() if line.startswith("| ")]
        assert len(body_rows) == 2 + 4  # header + separator + four coefficients
        assert "Likelihood ratio test=" in text
        assert "Wald test=" in text

    def test_unconverged_final_model_is_flagged(self):
        ds = embedded_dataset()
        dm = design_matrix(ds, list(FINAL_MODEL_PREDICTORS))
        note = "Failure model: not converged; estimates are not reliable"
        stalled = dataclasses.replace(fit_firth(dm), converged=False)
        stalled = final_model_section(stalled, ds.n)
        assert stalled.notes[2:] == (note, SIGNIF_LEGEND)
        healthy = final_model_section(fit_firth(dm), ds.n)
        assert healthy.notes[2:] == (SIGNIF_LEGEND,)

    def test_rendering_is_deterministic(self):
        ds = embedded_dataset()
        for fmt in ("markdown", "csv", "json"):
            doc = ReportDocument(
                sections=(describe_section(ds),), format=fmt, meta={"n": ds.n}
            )
            assert render(doc) == render(doc)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            render(ReportDocument(sections=(), format="xml"))

    def test_probability_section_markers(self):
        ds = embedded_dataset()
        section = probability_section(table_from_coefficients(fit_final_model(ds).beta, ds))
        text = render(ReportDocument(sections=(section,), format="csv"))
        first_row = text.splitlines()[2]
        assert first_row.startswith("2013,-")  # BBB not yet observed in 2013

    def test_json_cells_reparse_to_pipeline_values(self):
        ds = embedded_dataset()
        doc = ReportDocument(sections=(describe_section(ds),), format="json")
        payload = json.loads(render(doc))
        by_name = {row[0]: row for row in payload["sections"][0]["rows"]}
        from retailrisk.descriptive import describe

        for summary in describe(ds):
            from retailrisk.report import COLUMN_LABELS

            row = by_name[COLUMN_LABELS[summary.name]]
            # half a unit in the last rendered decimal, inclusive
            assert float(row[1]) == pytest.approx(summary.mean, abs=5e-5 + 1e-9)
            assert float(row[2]) == pytest.approx(summary.std, abs=5e-5 + 1e-9)
            assert float(row[3]) == pytest.approx(summary.sw_w, abs=5e-4 + 1e-9)
            if row[4] == "<0.001":
                assert summary.sw_p < 0.001
            else:
                assert float(row[4]) == pytest.approx(summary.sw_p, abs=5e-4 + 1e-9)


class TestCli:
    def test_export_data_roundtrip(self):
        status, out, err = run(["export-data"])
        assert status == 0 and err == ""
        assert parse_dataset(out) == embedded_dataset()
        assert out == dataset_to_csv(embedded_dataset())
        assert out == EMBEDDED_CSV  # integers without ".0", amounts as written

    def test_describe_markdown(self):
        status, out, _ = run(["describe"])
        assert status == 0
        assert "## Descriptive statistics" in out
        assert "16854.8125" in out

    def test_correlate_has_16_labels(self):
        status, out, _ = run(["correlate", "--format", "csv"])
        assert status == 0
        header = out.splitlines()[1]
        assert header.count(",") == 16  # label column + 16 variables

    def test_fit_requires_group(self):
        status, _, err = run(["fit"])
        assert status == 2
        assert "group" in err

    def test_fit_external_json(self):
        status, out, _ = run(["fit", "--group", "external", "--format", "json"])
        assert status == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["meta"] == {
            "n": 32,
            "chains": ["Bed Bath & Beyond", "Rite Aid", "Sears Holdings", "J.C. Penney"],
            "failures": 4,
        }
        section = payload["sections"][0]
        assert section["columns"][0] == "Estimates"
        aic_row = next(r for r in section["rows"] if r[0] == "AIC")
        assert float(aic_row[4]) == pytest.approx(20.349, abs=0.001)

    def test_fit_ratios_printed_mode_changes_estimates(self):
        _, full_out, _ = run(["fit", "--group", "ratios", "--format", "json"])
        _, printed_out, _ = run(
            ["fit", "--group", "ratios", "--ratios", "printed", "--format", "json"]
        )
        full_row = next(
            r for r in json.loads(full_out)["sections"][0]["rows"] if r[0] == "Intercept"
        )
        printed_row = next(
            r for r in json.loads(printed_out)["sections"][0]["rows"] if r[0] == "Intercept"
        )
        assert float(printed_row[1]) == pytest.approx(-9.245, abs=0.005)
        assert float(full_row[1]) != pytest.approx(-9.245, abs=0.005)

    def test_predict_single_cell(self):
        status, out, _ = run(["predict", "--chain", "Sears Holdings", "--year", "2016"])
        assert status == 0
        assert "Sears Holdings" in out and "0.035" in out

    def test_predict_full_grid_includes_markers_and_drift(self):
        status, out, _ = run(["predict"])
        assert status == 0
        assert "Failure probability by chain and year" in out
        assert "drift" in out

    def test_predict_rounded_coefficients(self):
        status, out, _ = run(
            ["predict", "--chain", "Sears Holdings", "--year", "2015",
             "--coef", "rounded", "--ratios", "printed"]
        )
        assert status == 0
        assert "0.016" in out

    def test_predict_rounded_rejected_with_external_data(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(dataset_to_csv(embedded_dataset()))
        status, _, err = run(["predict", "--coef", "rounded", "--data", str(path)])
        assert status == 2
        assert "embedded" in err

    def test_predict_chain_without_year(self):
        status, _, err = run(["predict", "--chain", "Rite Aid"])
        assert status == 2

    def test_predict_unknown_chain(self):
        status, _, err = run(["predict", "--chain", "Woolworths", "--year", "2015"])
        assert status == 1
        assert "Woolworths" in err

    def test_predict_year_out_of_range(self):
        status, _, err = run(["predict", "--chain", "Rite Aid", "--year", "1999"])
        assert status == 1
        assert "1999" in err

    def test_missing_data_file(self):
        status, _, err = run(["fit", "--group", "external", "--data", "nope.csv"])
        assert status == 1
        assert "nope.csv" in err

    def test_invalid_data_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("chain,year\nA,2015\n")
        status, _, err = run(["describe", "--data", str(path)])
        assert status == 1
        assert "header" in err

    def test_unknown_command(self):
        status, _, err = run(["zap"])
        assert status == 2

    def test_unknown_flag(self):
        status, _, err = run(["describe", "--bogus"])
        assert status == 2

    def test_out_flag_writes_file(self, tmp_path):
        path = tmp_path / "report.json"
        status, out, _ = run(["fit-final", "--format", "json", "--out", str(path)])
        assert status == 0 and out == ""
        payload = json.loads(path.read_text())
        assert payload["sections"][0]["title"] == "Failure prediction model"

    def test_report_contains_all_sections(self):
        status, out, _ = run(["report"])
        assert status == 0
        for title in (
            "Descriptive statistics",
            "Correlation matrix",
            "Univariate logistic screen: external factors",
            "Univariate logistic screen: internal factors",
            "Univariate logistic screen: internal factors as revenue ratios",
            "Failure prediction model",
            "Failure probability by chain and year",
            "Failure probability drift vs published estimates",
        ):
            assert title in out, title

    def test_custom_data_roundtrips_through_cli(self, tmp_path):
        ds = embedded_dataset()
        path = tmp_path / "data.csv"
        path.write_text(dataset_to_csv(ds))
        status, out, _ = run(["export-data", "--data", str(path)])
        assert status == 0
        assert parse_dataset(out) == ds

    def test_separated_screen_renders_na(self, tmp_path):
        # Every failing row's ACSI lies above every surviving row's: the ACSI
        # screen separates completely, its information matrix turns singular
        # and its p-values are NaN.
        path = write_variant(tmp_path / "separated.csv",
                             lambda row: {"acsi": "90"} if row["fail"] == "1" else {})
        status, out, err = run(["fit", "--group", "external", "--data", str(path)])
        assert status == 0
        assert "| Slope (p-value) | NA |" in out
        assert "| Slope signif. | NA |" in out
        assert err == ""

    def test_unhealthy_screen_fits_are_flagged(self, tmp_path):
        # Two rows: every external screen stalls, two of them by separating
        # completely, and no information matrix can be inverted.
        path = write_variant(tmp_path / "two_rows.csv", **DEGENERATE_INPUTS["two_rows"])
        status, out, err = run(["fit", "--group", "external", "--data", str(path)])
        assert status == 0 and err == ""
        assert "nan" not in out
        assert "| Intercept [s.e.] | NA | NA | NA | NA |" in out
        assert "| Slope [s.e.] | NA | NA | NA | NA |" in out
        assert "ACSI score: not converged; estimates are not reliable" in out
        assert ("US inflation rate (%): not converged, complete separation; "
                "estimates are not reliable") in out


#: Schema-valid inputs on which an analysis is undefined.
DEGENERATE_INPUTS = {
    "constant_inflation": {"change": lambda row: {"us_inflation_rate": "2"}},
    "no_failures": {"change": lambda row: {"fail": "0"}},
    # The last two Sears Holdings rows: fewer rows than model coefficients.
    "two_rows": {"select": lambda rows: [r for r in rows if r["chain"] == "Sears Holdings"][-2:]},
}


#: The constant inflation column leaves a positive pivot of rounding size.
SMALL_PIVOT = ("pivot at row 1 below 1e-12 x its diagonal "
               "(pivot=7.105e-15, diagonal=3.200e+01)")


class TestErrorContract:
    """A schema-valid CSV gives a report or one ``error:`` line with exit
    status 1, never a traceback."""

    @pytest.mark.parametrize("cls", [DataParseError, DataValidationError, DegenerateDataError,
                                     DegenerateResponseError, SingularMatrixError])
    def test_error_classes_share_one_base(self, cls):
        assert issubclass(cls, RetailRiskError)
        assert issubclass(RetailRiskError, ValueError)

    @pytest.mark.parametrize(
        "variant,argv,message",
        [
            ("constant_inflation", ["describe"], "Shapiro-Wilk is undefined"),
            ("constant_inflation", ["correlate"], "zero-variance"),
            ("constant_inflation", ["fit-final"], SMALL_PIVOT),
            ("constant_inflation", ["predict"], SMALL_PIVOT),
            ("constant_inflation", ["predict", "--chain", "Rite Aid", "--year", "2015"],
             SMALL_PIVOT),
            ("constant_inflation", ["report"], "Shapiro-Wilk is undefined"),
            ("no_failures", ["correlate"], "zero-variance"),
            ("no_failures", ["fit", "--group", "external"], "single class"),
            ("no_failures", ["fit", "--group", "internal"], "single class"),
            ("no_failures", ["fit", "--group", "ratios"], "single class"),
            ("no_failures", ["report"], "zero-variance"),
            ("no_failures", ["fit-final"], "single class"),
            ("no_failures", ["predict"], "single class"),
            ("no_failures", ["predict", "--chain", "Rite Aid", "--year", "2015"], "single class"),
            ("two_rows", ["fit-final"], "need n >= p to fit, got n=2, p=4"),
            ("two_rows", ["predict"], "need n >= p to fit, got n=2, p=4"),
            ("two_rows", ["predict", "--chain", "Sears Holdings", "--year", "2018"],
             "need n >= p to fit"),
            ("two_rows", ["describe"], "Shapiro-Wilk requires 3 <= n <= 5000, got 2"),
        ],
    )
    def test_degenerate_input_gives_one_error_line(self, tmp_path, variant, argv, message):
        path = write_variant(tmp_path / f"{variant}.csv", **DEGENERATE_INPUTS[variant])
        status, out, err = run([*argv, "--data", str(path)])
        assert status == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err
        assert "Traceback" not in err


def _huge_debt(row):
    """Long-term debt times 1e154: schema-valid, but every information
    matrix that holds the column overflows."""
    return {"long_term_debt": repr(float(row["long_term_debt"]) * 1e154)}


@pytest.mark.parametrize("argv", [["describe"], ["correlate"], ["fit", "--group", "internal"],
                                  ["fit", "--group", "ratios"], ["fit-final"], ["predict"],
                                  ["report"]])
def test_overflowing_money_column_gives_no_traceback(tmp_path, argv):
    path = write_variant(tmp_path / "huge_debt.csv", _huge_debt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
        status, out, err = run([*argv, "--data", str(path)])
    assert status in (0, 1)
    if status == 0:
        assert err == ""
    if status == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    if argv == ["fit", "--group", "internal"]:
        assert "Long-term debt (M$): not converged; estimates are not reliable" in out
        se_row = next(line for line in out.splitlines() if line.startswith("| Slope [s.e.] |"))
        assert se_row.endswith("| NA |")


def _overflowing_ratio(row):
    """Rite Aid 2015 with a long-term debt/revenue ratio beyond the float
    range; every raw value is finite and passes the row rules."""
    if (row["chain"], row["year"]) != ("Rite Aid", "2015"):
        return {}
    return {"revenue": "1e-300", "cost_of_revenue": "0", "long_term_debt": "1e300"}


@pytest.mark.parametrize("argv", [["export-data"], ["describe"], ["correlate"],
                                  ["fit", "--group", "external"], ["fit", "--group", "internal"],
                                  ["fit", "--group", "ratios"], ["fit-final"], ["predict"],
                                  ["predict", "--chain", "Rite Aid", "--year", "2015"],
                                  ["report"]])
def test_overflowing_ratio_gives_no_traceback(tmp_path, argv):
    path = write_variant(tmp_path / "huge_ratio.csv", _overflowing_ratio)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
        status, out, err = run([*argv, "--data", str(path)])
    assert (status, out, err) == (1, "", "error: Rite Aid 2015: ltd_over_rev is not finite\n")


def _overflowing_ratio_mean(path):
    """The embedded data with revenue near 1e-4 and EBITDA near 1e304: every
    ratio is finite, but the mean of EBITDA/revenue overflows."""
    index = itertools.count()

    def change(row):
        i = next(index)
        return {"revenue": repr(1e-4 * (1 + (i % 3) / 10)),
                "ebitda": repr(1e304 * (1 + (i % 8) / 10))}

    return write_variant(path, change)


def test_overflowing_ratio_mean_prints_na_correlations(tmp_path):
    path = _overflowing_ratio_mean(tmp_path / "huge_mean.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
        status, out, err = run(["correlate", "--data", str(path), "--format", "json"])
        report = run(["report", "--data", str(path)])
    assert (status, err) == (0, "")
    section = json.loads(out)["sections"][0]
    ratio = "EBITDA/Revenue"
    for row in section["rows"]:
        for column, text in zip(section["columns"][1:], row[1:]):
            assert (text == "NA") == ((row[0] == ratio) != (column == ratio)), (row[0], column)
    assert report == (1, "", "error: matrix has non-finite entries\n")


def test_byte_order_mark_is_ignored(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text(dataset_to_csv(embedded_dataset()), encoding="utf-8")
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for command in ("describe", "report"):
        expected = run([command, "--data", str(plain)])
        assert expected[0] == 0 and expected[2] == ""
        assert run([command, "--data", str(marked)]) == expected


DIGESTS = json.loads((Path(__file__).parent / "report_digests.json").read_text())


class TestGoldenReports:
    """Every ``report`` mode on the embedded data renders the recorded bytes
    (JSON on its ``sections`` only, as ``meta`` may grow)."""

    @pytest.mark.parametrize("mode", sorted(DIGESTS))
    def test_report_bytes(self, mode):
        status, out, err = run(mode.split())
        assert status == 0 and err == ""
        if "--format json" in mode:
            out = json.dumps(json.loads(out)["sections"], sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[mode]


#: Cholesky factorizations in one default ``report`` on the embedded data (the
#: kernel factored 179 matrices before each Newton step reused its factors,
#: 162 before the Firth steps used the exact Hessian, 7 steps instead of 12,
#: 149 before rounding noise stopped setting off step-halvings, which cut
#: the cost_of_revenue screen from 11 steps to 7, and 145 before a fit stopped
#: once its full step moved no fitted x'beta by more than ETA_TOL).
REPORT_FACTORIZATIONS = 144


def test_default_report_factorization_count(monkeypatch):
    """Pinned, so that a change that factors the same matrix twice fails."""
    from retailrisk import linalg

    count = 0
    init = linalg.Cholesky.__init__

    def counting_init(self, a):
        nonlocal count
        count += 1
        init(self, a)

    monkeypatch.setattr(linalg.Cholesky, "__init__", counting_init)
    counts = []
    for _ in range(2):
        count = 0
        assert run(["report"])[0] == 0
        counts.append(count)
    assert counts == [REPORT_FACTORIZATIONS] * 2


def test_default_report_newton_runs_never_halve(monkeypatch):
    """The 14 screens, the Firth fit and its null refit each take full Newton
    steps on the embedded data: no step there lowers the objective by more
    than rounding noise."""
    from retailrisk import firth, logistic

    traces = []
    newton = logistic.newton

    def recording_newton(*args, **kwargs):
        result = newton(*args, **kwargs)
        traces.append(result[-1])
        return result

    monkeypatch.setattr(logistic, "newton", recording_newton)
    monkeypatch.setattr(firth, "newton", recording_newton)
    assert run(["report"])[0] == 0
    assert len(traces) == 16
    assert all(trace.converged for trace in traces)
    assert [trace.halvings for trace in traces] == [0] * 16


@pytest.fixture(scope="module")
def panel_path(tmp_path_factory):
    """A 275-chain, 1,508-row panel as a CSV file."""
    path = tmp_path_factory.mktemp("panel") / "panel.csv"
    path.write_text(panel_csv(seed=3, chains=275))
    return path


@pytest.mark.parametrize("ratios", ["full", "printed"])
def test_predict_cell_equals_grid_cell(panel_path, ratios):
    """``predict --chain C --year Y`` prints the text of that cell of the grid."""
    data = ["--data", str(panel_path), "--ratios", ratios, "--format", "json"]
    status, out, err = run(["predict", *data])
    assert status == 0 and err == ""
    grid = json.loads(out)["sections"][0]
    chains = grid["columns"][1:]
    cells = {(chain, int(row[0])): text
             for row in grid["rows"] for chain, text in zip(chains, row[1:])}
    observed = sorted(key for key, text in cells.items() if text not in ("-", "*"))
    assert len(observed) == 1508
    for chain, year in random.Random(20).sample(observed, 20):
        status, out, err = run(["predict", "--chain", chain, "--year", str(year), *data])
        assert status == 0 and err == ""
        assert json.loads(out)["sections"][0]["rows"] == [[chain, str(year), cells[chain, year]]]


def test_stray_key_error_is_not_reported_as_bad_input(monkeypatch):
    def broken_screen(dataset, group):
        raise KeyError("boom")

    monkeypatch.setattr("retailrisk.cli.run_screen", broken_screen)
    with pytest.raises(KeyError, match="boom"):
        run_command(["fit", "--group", "external"], stdout=io.StringIO(), stderr=io.StringIO())


def test_predict_cell_error_lines(panel_path):
    known = ", ".join(f"Chain {c:03d}" for c in range(275))
    for chain, year, line in [
        ("Chain 999", 2010, f"unknown chain 'Chain 999'; known: {known}"),
        ("Chain 004", 2009, "Chain 004: no observation for year 2009 (observed 2010-2016)"),
        ("Chain 004", 2017, "Chain 004: no observation for year 2017 (observed 2010-2016)"),
        ("Chain 003", 2004, "Chain 003: no observation for year 2004 (observed 2003-2003)"),
    ]:
        argv = ["predict", "--chain", chain, "--year", str(year), "--data", str(panel_path)]
        assert run(argv) == (1, "", f"error: {line}\n")
    status, out, _ = run(["predict", "--chain", "Rite Aid", "--year", "2015"])
    assert status == 0 and "| Rite Aid | 2015 | 0.020 |" in out
