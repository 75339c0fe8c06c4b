import csv
import dataclasses
import gc
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
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
from retailrisk import cli
from retailrisk.cli import run_command
from retailrisk.dataset import (
    EMBEDDED_CSV,
    PREDICTOR_COLUMNS,
    RATIO_PRECISIONS,
    dataset_to_csv,
    design_matrix,
    embedded_dataset,
    parse_dataset,
)
from retailrisk.firth import fit_firth
from retailrisk.logistic import LONG_ROWS
from retailrisk import pipeline
from retailrisk.pipeline import (
    FINAL_MODEL_PREDICTORS,
    REFERENCE_FAILURE_PROBABILITIES,
    SCREEN_GROUPS,
    fit_final_model,
    table_from_coefficients,
)
from retailrisk.report import (
    FORMATS,
    ROUNDING,
    SIGNIF_LEGEND,
    ReportDocument,
    Section,
    cell_section,
    describe_section,
    final_model_section,
    fmt_number,
    fmt_numbers,
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

    def test_predictions_of_an_unconverged_fit_are_flagged(self):
        ds = embedded_dataset()
        fit = fit_final_model(ds)
        table = table_from_coefficients(fit.beta, ds)
        stalled = dataclasses.replace(fit, converged=False)
        note = "Failure model: not converged; estimates are not reliable"
        grid = probability_section(table)
        assert probability_section(table, fit) == grid
        assert probability_section(table, stalled) == dataclasses.replace(
            grid, notes=(note, *grid.notes))
        cell = cell_section(table, "Rite Aid", 2015)
        assert cell.rows == (("Rite Aid", "2015", "0.020"),) and cell.notes == ()
        assert cell_section(table, "Rite Aid", 2015, fit) == cell
        assert cell_section(table, "Rite Aid", 2015, stalled).notes == (note,)

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


    @pytest.mark.parametrize("kind", sorted(ROUNDING))
    def test_fmt_numbers_is_fmt_number_of_each_value(self, kind):
        decimals = ROUNDING[kind]
        unit = 10.0 ** -decimals
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, -0.4 * unit, -0.49 * unit,
                   -5e-324, 1e300, -1e300, 0.5 * unit, -0.5 * unit, -0.51 * unit]
        rng = random.Random(decimals)
        plain = [rng.choice((-1, 1)) * rng.lognormvariate(0.0, 4.0) for _ in range(200)]
        assert fmt_numbers([], decimals) == []
        for values in ([[v] for v in special] + [plain, special + plain, plain + special]
                       + [plain[:5] + [v] + plain[5:9] for v in special]):
            assert fmt_numbers(values, decimals) == [fmt_number(v, decimals) for v in values]

    def test_pipe_in_a_chain_name_is_escaped_in_every_kind_of_row(self, tmp_path, monkeypatch):
        """A ``|`` in a chain name: escaped in the grid's header, a drift row
        and the one-cell row, and every other cell's line keeps one pipe per
        column edge."""
        name, old = "Bed Bath | Beyond", "Bed Bath & Beyond"
        monkeypatch.setattr(pipeline, "REFERENCE_FAILURE_PROBABILITIES", {
            (name if chain == old else chain, year): p
            for (chain, year), p in REFERENCE_FAILURE_PROBABILITIES.items()})
        path = write_variant(tmp_path / "pipe.csv",
                             lambda row: {"chain": name} if row["chain"] == old else {})
        escaped = "Bed Bath \\| Beyond"
        status, out, err = run(["predict", "--data", str(path)])
        assert (status, err) == (0, "")
        lines = [line for line in out.splitlines() if line.startswith("|")]
        assert lines[0] == f"| Year | {escaped} | Rite Aid | Sears Holdings | J.C. Penney |"
        assert any(line.startswith(f"| {escaped} | 2015 | ") for line in lines)
        assert all(len(re.findall(r"(?<!\\)\|", line)) == 6 for line in lines)
        status, out, err = run(["predict", "--data", str(path), "--chain", name, "--year", "2015"])
        assert (status, err) == (0, "")
        assert re.search(rf"^\| {re.escape(escaped)} \| 2015 \| 0\.\d{{3}} \|$", out, re.M)


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

    @pytest.mark.parametrize("command", ["report", "predict"])
    def test_rounded_with_external_data_is_refused_before_reading_it(self, tmp_path, command):
        missing = tmp_path / "missing.csv"
        status, out, err = run([command, "--coef", "rounded", "--data", str(missing)])
        assert (status, out) == (2, "")
        assert err.startswith("error: --coef rounded applies to the embedded dataset only\n"
                              "usage: retailrisk")

    def test_chain_without_year_is_refused_before_reading_data(self, tmp_path):
        missing = tmp_path / "missing.csv"
        status, out, err = run(["predict", "--chain", "Rite Aid", "--data", str(missing)])
        assert (status, out) == (2, "")
        assert err.startswith("error: --chain and --year must be given together\n"
                              "usage: retailrisk")

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

    @pytest.mark.parametrize("argv, flagged", [
        (["predict"], ["Failure probability by chain and year"]),
        (["predict", "--chain", "Sears Holdings", "--year", "2016"], ["Failure probability"]),
        (["report"], ["Failure prediction model", "Failure probability by chain and year"]),
        (["predict", "--coef", "rounded"], []),
        (["report", "--coef", "rounded"], ["Failure prediction model"]),
    ])
    def test_predictions_of_an_unconverged_fit_carry_its_note(self, monkeypatch, argv, flagged):
        """A grid or cell from an unconverged fit's coefficients carries the
        note that ``fit-final`` prints; the published coefficients do not."""
        from retailrisk import cli

        note = "Failure model: not converged; estimates are not reliable"
        healthy = json.loads(run([*argv, "--format", "json"])[1])["sections"]
        monkeypatch.setattr(cli, "fit_final_model",
                            lambda ds: dataclasses.replace(fit_final_model(ds), converged=False))
        status, out, _ = run([*argv, "--format", "json"])
        assert status == 0
        sections = json.loads(out)["sections"]
        assert [s["title"] for s in sections if note in s["notes"]] == flagged
        for section, before in zip(sections, healthy):
            if section["title"] in flagged and section["title"] != "Failure prediction model":
                assert section["notes"] == [note, *before["notes"]]
                assert section["rows"] == before["rows"]

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
        # The export of an export is the same bytes, in either ratio mode.
        for ratios in RATIO_PRECISIONS:
            exported = run(["export-data", "--ratios", ratios])
            assert exported[::2] == (0, "")
            path.write_text(exported[1])
            assert run(["export-data", "--ratios", ratios, "--data", str(path)]) == exported

    @pytest.mark.parametrize("argv", [["predict"], ["report"]])
    def test_pipe_in_a_chain_name_is_escaped_in_markdown_only(self, tmp_path, argv):
        name = "Bed Bath | Beyond"
        path = write_variant(tmp_path / "pipe.csv",
                             lambda row: {"chain": name} if row["chain"] == "Bed Bath & Beyond"
                             else {})
        status, out, err = run([*argv, "--data", str(path)])
        assert (status, err) == (0, "") and "Bed Bath \\| Beyond" in out
        tables = [[]]
        for line in out.splitlines():
            if line.startswith("|"):
                tables[-1].append(len(re.findall(r"(?<!\\)\|", line)))
            elif tables[-1]:
                tables.append([])
        assert tables[0] and all(len(set(pipes)) == 1 for pipes in tables if pipes)
        status, out, _ = run([*argv, "--data", str(path), "--format", "csv"])
        assert status == 0 and name in next(csv.reader(
            line for line in out.splitlines() if "Bed Bath" in line))
        status, out, _ = run([*argv, "--data", str(path), "--format", "json"])
        assert status == 0 and name in json.loads(out)["meta"]["chains"] and "\\|" not in out

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

    def test_overflowing_slope_variance_keeps_the_p_value(self, tmp_path):
        # Inflation in units of 1e156 %: the slope's variance is beyond the
        # float range, but its standard error (near 3e155) is not: its
        # p-value is the one the unit data give.
        path = write_variant(tmp_path / "tiny_inflation.csv", _inflation_times(1e-156))
        status, out, err = run(["fit", "--group", "external", "--data", str(path)])
        assert status == 0 and err == ""
        assert "| Slope (p-value) | 0.760 | 0.023 | 0.286 | 0.021 |" in out

    @pytest.mark.parametrize("scale", [1e-300, 1e-156, 1e154, 1e300])
    @pytest.mark.parametrize("argv", [["fit-final"], ["predict"]])
    def test_overflowing_slope_variance_fits_the_failure_model(self, tmp_path, argv, scale):
        # Only the inflation slope and its standard error depend on its unit,
        # from 1e-300 % to 1e300 %.
        def unit_free(text):
            return [line.split(" | ")[-2:] if line.startswith("| US inflation rate") else line
                    for line in text.splitlines()]

        path = write_variant(tmp_path / "inflation.csv", _inflation_times(scale))
        status, out, err = run([*argv, "--data", str(path)])
        assert status == 0 and err == ""
        assert unit_free(out) == unit_free(run(argv)[1])


def _inflation_times(scale):
    """A row change that gives inflation in units of 1/``scale`` %."""
    return lambda row: {"us_inflation_rate": repr(float(row["us_inflation_rate"]) * scale)}


#: Schema-valid inputs on which an analysis is undefined.
DEGENERATE_INPUTS = {
    "constant_inflation": {"change": lambda row: {"us_inflation_rate": "2"}},
    "constant_stores": {"change": lambda row: {"stores": "100"}},
    "no_failures": {"change": lambda row: {"fail": "0"}},
    # The last two Sears Holdings rows: fewer rows than model coefficients.
    "two_rows": {"select": lambda rows: [r for r in rows if r["chain"] == "Sears Holdings"][-2:]},
}


#: The constant inflation column leaves a positive pivot of rounding size;
#: its figures are in scaled units, and the line ends without them.
SMALL_PIVOT = "failure model: us_inflation_rate is collinear with earlier design columns\n"


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
            ("constant_inflation", ["describe"],
             "us_inflation_rate: Shapiro-Wilk is undefined for a constant series"),
            ("constant_inflation", ["correlate"],
             "us_inflation_rate: correlation is undefined for a zero-variance series"),
            ("constant_inflation", ["fit-final"], SMALL_PIVOT),
            ("constant_inflation", ["predict"], SMALL_PIVOT),
            ("constant_inflation", ["predict", "--chain", "Rite Aid", "--year", "2015"],
             SMALL_PIVOT),
            ("constant_inflation", ["report"], "us_inflation_rate: Shapiro-Wilk is undefined"),
            ("constant_stores", ["describe"],
             "stores: Shapiro-Wilk is undefined for a constant series"),
            ("constant_stores", ["correlate"],
             "stores: correlation is undefined for a zero-variance series"),
            ("constant_stores", ["report"], "stores: Shapiro-Wilk is undefined"),
            ("no_failures", ["correlate"], "fail: correlation is undefined"),
            ("no_failures", ["fit", "--group", "external"],
             "external screen: response contains a single class; logistic MLE"),
            ("no_failures", ["fit", "--group", "internal"],
             "internal screen: response contains a single class; logistic MLE"),
            ("no_failures", ["fit", "--group", "ratios"],
             "ratios screen: response contains a single class; logistic MLE"),
            ("no_failures", ["report"], "fail: correlation is undefined"),
            ("no_failures", ["fit-final"], "failure model: response contains a single class"),
            ("no_failures", ["predict"], "failure model: response contains a single class"),
            ("no_failures", ["predict", "--chain", "Rite Aid", "--year", "2015"],
             "failure model: response contains a single class"),
            ("two_rows", ["fit-final"], "failure model: need n >= p to fit, got n=2, p=4"),
            ("two_rows", ["predict"], "failure model: need n >= p to fit, got n=2, p=4"),
            ("two_rows", ["predict", "--chain", "Sears Holdings", "--year", "2018"],
             "failure model: need n >= p to fit"),
            ("two_rows", ["describe"], "revenue: Shapiro-Wilk requires 3 <= n <= 5000, got 2"),
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

    @pytest.mark.parametrize("argv", [["describe"], ["report"]])
    def test_more_rows_than_shapiro_wilk_takes_gives_one_error_line(self, tmp_path, argv):
        # Schema-valid rows, one more than Shapiro-Wilk takes. Today the
        # whole command is refused; ROADMAP item 4 would flag the section.
        path = tmp_path / "long.csv"
        lines = panel_csv(seed=5, chains=1000).splitlines(keepends=True)
        path.write_text("".join(lines[:5002]), encoding="utf-8")
        expected = "error: revenue: Shapiro-Wilk requires 3 <= n <= 5000, got 5001\n"
        assert run([*argv, "--data", str(path)]) == (1, "", expected)

    @pytest.mark.parametrize("argv", [["describe"], ["report"]])
    @pytest.mark.parametrize("prefix", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_non_utf8_file_gives_one_error_line(self, tmp_path, argv, prefix):
        path = tmp_path / "latin1.csv"
        text = dataset_to_csv(embedded_dataset()).encode("utf-8")
        offset = text.index(b"Rite Aid")
        path.write_bytes(prefix + text[:offset] + b"\xff" + text[offset:])
        expected = (f"error: {path}: not UTF-8 text "
                    f"(byte 0xff at offset {len(prefix) + offset})\n")
        assert run([*argv, "--data", str(path)]) == (1, "", expected)


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
        # The debt screen runs on the unit-scaled column: the unit fit's
        # tests and AIC, and no note; only the slope and its s.e. differ.
        def tests(text):
            return [line for line in text.splitlines()
                    if not line.startswith(("| Slope |", "| Slope [s.e.] |"))]

        assert "not converged" not in out
        assert tests(out) == tests(run(argv)[1])


@pytest.mark.parametrize("scale", [1e-165, 1e-170])
def test_tiny_stores_unit_keeps_the_normality_test(tmp_path, scale):
    # Stores counted in units of 1e165 or 1e170: Shapiro-Wilk's squares
    # underflow unless the series is rescaled first, and W is unit-free.
    path = write_variant(tmp_path / "tiny_stores.csv",
                         lambda row: {"stores": repr(float(row["stores"]) * scale)})
    status, out, err = run(["describe", "--data", str(path)])
    assert (status, err) == (0, "")
    assert "| Stores | 0.0000 | 0.0000 | 0.815 | <0.001 |" in out


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


def test_overflowing_ratio_mean_keeps_every_correlation(tmp_path):
    # Every statistic runs on unit-scaled columns, whose means cannot
    # overflow: describe scales the EBITDA SD (2.3e303) and the ratio's mean
    # and SD (1.2e308, 2.3e307) back, and no cell reads NA.
    path = _overflowing_ratio_mean(tmp_path / "huge_mean.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
        status, out, err = run(["correlate", "--data", str(path), "--format", "json"])
        others = [run([*argv, "--data", str(path)]) for argv in (["fit-final"], ["predict"])]
        report = run(["report", "--data", str(path)])
    assert (status, err) == (0, "")
    section = json.loads(out)["sections"][0]
    assert not [text for row in section["rows"] for text in row[1:] if text == "NA"]
    assert [(code, err) for code, _, err in (*others, report)] == [(0, "")] * 3
    na_rows = [line.split(" | ")[0] for line in report[1].splitlines() if "| NA |" in line]
    assert na_rows == []


def _scaled_cells_masked(text, label):
    """The lines of a markdown fit output with the estimate and s.e. cells of
    ``label``'s term (failure model) or slope (screen) replaced by ``*``."""
    lines, column = [], None
    for line in text.splitlines():
        cells = line.split(" | ")
        if cells[0] == "| Estimates":
            column = [cell.rstrip(" |") for cell in cells].index(label)
        if cells[0] == f"| {label}":
            cells[1] = cells[2] = "*"
        if cells[0] in ("| Slope", "| Slope [s.e.]"):
            cells[column] = "*" + " |" * (column == len(cells) - 1)
        lines.append(" | ".join(cells))
    return lines


@pytest.mark.parametrize("argv,column,label", [
    (["fit-final"], "us_inflation_rate", "US inflation rate (%)"),
    (["fit", "--group", "external"], "us_inflation_rate", "US inflation rate (%)"),
    (["fit", "--group", "internal"], "long_term_debt", "Long-term debt (M$)"),
])
def test_fits_print_the_unit_fit_in_every_unit(tmp_path, argv, column, label):
    # In raw units X'WX would underflow below about 1e-159 and overflow
    # above 1e154; the fits run on unit-scaled columns, so every other cell holds.
    unit = run(argv)
    expected = (0, _scaled_cells_masked(unit[1], label), "")
    for k in (-300, -200, -160, -159, -100, 100, 154, 156, 200, 300):
        path = write_variant(tmp_path / f"{column}{k}.csv",
                             lambda row: {column: repr(float(row[column]) * 10.0**k)})
        status, out, err = run([*argv, "--data", str(path)])
        assert (status, _scaled_cells_masked(out, label), err) == expected, k


def test_non_finite_probability_gives_one_error_line(tmp_path):
    # Inflation in a unit near 1e-309: its Firth slope is beyond the float
    # range in that unit, and times the one zero inflation value it is NaN.
    def change(row):
        value = 0.0 if row["chain"] == "Bed Bath & Beyond" and row["year"] == "2015" else 1e-309
        return {"us_inflation_rate": repr(float(row["us_inflation_rate"]) * value)}

    path = write_variant(tmp_path / "tiny_inflation.csv", change)
    status, out, err = run(["fit-final", "--data", str(path)])
    assert (status, err) == (0, "")
    assert "| US inflation rate (%) | NA | NA | 3.970 | 0.046 |" in out
    message = "error: Bed Bath & Beyond 2015: failure probability must be in [0, 1], got nan\n"
    for argv in (["predict"], ["predict", "--chain", "Rite Aid", "--year", "2015"], ["report"]):
        assert run([*argv, "--data", str(path)]) == (1, "", message)


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
        assert_golden_report(mode)


def assert_golden_report(mode):
    status, out, err = run(mode.split())
    assert status == 0 and err == ""
    if "--format json" in mode:
        out = json.dumps(json.loads(out)["sections"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[mode]


def test_shared_parser_and_embedded_data_keep_no_state_between_calls():
    """One process reuses one parser and one embedded Dataset per ratio
    precision; no call leaves a trace in the next."""
    cell_heading = "| Chain | Year | Probability |"
    status, out, err = run(["predict", "--chain", "Rite Aid", "--year", "2015"])
    assert (status, err) == (0, "") and cell_heading in out
    status, out, err = run(["predict"])
    assert (status, err) == (0, "")
    assert "Failure probability by chain and year" in out and cell_heading not in out
    status, out, err = run(["predict", "--chain", "Rite Aid", "--year", "2015", "--bogus"])
    assert (status, out) == (2, "") and err.startswith("error: ") and "usage: retailrisk" in err
    for argv in (["--help"], ["report", "--help"]):
        status, out, err = run(argv)
        assert (status, err) == (0, "") and out.startswith("usage: retailrisk")
    for mode in sorted(DIGESTS):
        assert_golden_report(mode)
    for precision in RATIO_PRECISIONS:
        shared = embedded_dataset(precision)
        assert shared is embedded_dataset(precision)
        for name in ("fail", *PREDICTOR_COLUMNS):
            assert not shared.column(name).flags.writeable


#: Cholesky factorizations in one default ``report`` on the embedded data (the
#: kernel factored 179 matrices before each Newton step reused its factors,
#: 162 before the Firth steps used the exact Hessian, 7 steps instead of 12,
#: 149 before rounding noise stopped setting off step-halvings, which cut
#: the cost_of_revenue screen from 11 steps to 7, 145 before a fit stopped
#: once its full step moved no fitted x'beta by more than ETA_TOL, and 144
#: before the Firth null model was solved in closed form instead of refitted).
REPORT_FACTORIZATIONS = 134


def test_default_report_factorization_count(monkeypatch):
    """Pinned at the one entry into the kernel, so that a change that factors
    the same matrix twice fails."""
    from retailrisk import linalg

    calls = 0
    init = linalg.Cholesky.__init__

    def counting_init(self, a):
        nonlocal calls
        calls += 1
        init(self, a)

    monkeypatch.setattr(linalg.Cholesky, "__init__", counting_init)
    for _ in range(2):
        calls = 0
        assert run(["report"])[0] == 0
        assert calls == REPORT_FACTORIZATIONS


@pytest.mark.parametrize("argv, designs", [
    pytest.param(["report"], 1, id="report"),
    *(pytest.param(["fit", "--group", group], 0, id=f"fit-{group}") for group in SCREEN_GROUPS),
])
def test_screens_build_no_design_matrix(monkeypatch, argv, designs):
    """The screens stack the dataset's columns, whose checks the ``Dataset``
    has proved; only the Firth fit's design is a ``DesignMatrix``."""
    from retailrisk.dataset import DesignMatrix

    calls = 0
    post_init = DesignMatrix.__post_init__

    def counting_post_init(self):
        nonlocal calls
        calls += 1
        post_init(self)

    monkeypatch.setattr(DesignMatrix, "__post_init__", counting_post_init)
    assert run(argv)[0] == 0
    assert calls == designs


def test_default_report_newton_runs_never_halve(monkeypatch):
    """The 14 screens and the Firth fit each take full Newton steps on the
    embedded data: no step there lowers the objective by more than rounding
    noise. Each is a member of a run of the one Newton loop: the stack of
    all 14 screens, or the Firth fit as a stack of one."""
    from retailrisk import firth, logistic

    traces, members = [], []
    newton_stack = logistic._newton_stack

    def recording_newton_stack(*args, **kwargs):
        runs = newton_stack(*args, **kwargs)
        traces.extend(run[-1] for run in runs)
        members.append(len(runs))
        return runs

    monkeypatch.setattr(logistic, "_newton_stack", recording_newton_stack)
    monkeypatch.setattr(firth, "_newton_stack", recording_newton_stack)
    assert run(["report"])[0] == 0
    assert members == [14, 1]
    assert len(traces) == 15
    assert all(trace.converged for trace in traces)
    assert [trace.halvings for trace in traces] == [0] * 15


@pytest.fixture(scope="module")
def panel_path(tmp_path_factory):
    """A 275-chain, 1,508-row panel as a CSV file: long enough for the Newton
    evaluation's long-design passes."""
    text = panel_csv(seed=3, chains=275)
    assert text.count("\n") - 1 >= LONG_ROWS
    path = tmp_path_factory.mktemp("panel") / "panel.csv"
    path.write_text(text)
    return path


@pytest.fixture(scope="module")
def thousands_path(tmp_path_factory):
    """The embedded data with its money columns in thousands of USD."""
    money = ("revenue", "cost_of_revenue", "sga", "ebitda", "long_term_debt")
    return write_variant(tmp_path_factory.mktemp("thousands") / "thousands.csv",
                         lambda row: {name: repr(float(row[name]) * 1000) for name in money})


@pytest.mark.parametrize("argv", [["fit", "--group", "internal"], ["report"]],
                         ids=["fit-internal", "report"])
def test_money_in_thousands_fits_without_convergence_notes(thousands_path, argv):
    status, out, err = run([*argv, "--data", str(thousands_path)])
    assert status == 0 and err == ""
    assert "not converged" not in out


@pytest.mark.parametrize("data", ["embedded full", "embedded printed", "thousands", "panel"])
def test_a_report_is_its_subcommands_sections(panel_path, thousands_path, data):
    """``report`` runs the stages of the other subcommands, and fits every
    screen in one Newton stack; its sections are theirs, in order."""
    path = {"thousands": thousands_path, "panel": panel_path}.get(data)
    argv = ["--format", "json", *(["--data", str(path)] if path
                                  else ["--ratios", data.split()[1]])]
    status, out, err = run(["report", *argv])
    assert status == 0 and err == ""
    parts = []
    for command in (["describe"], ["correlate"], ["fit", "--group", "external"],
                    ["fit", "--group", "internal"], ["fit", "--group", "ratios"],
                    ["fit-final"], ["predict"]):
        status, part, err = run([*command, *argv])
        assert status == 0 and err == ""
        parts += json.loads(part)["sections"]
    assert json.loads(out)["sections"] == parts


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


@pytest.mark.parametrize("command", ["export-data", "describe", "correlate", "fit", "fit-final",
                                     "predict", "report"])
def test_each_subcommand_help_offers_its_own_options(command):
    status, out, err = run([command, "--help"])
    assert (status, err) == (0, "")
    assert out.startswith(f"usage: retailrisk {command} ")
    assert ("--coef" in out) == (command in ("predict", "report"))
    assert ("--group" in out) == (command == "fit")
    assert ("--chain" in out) == ("--year" in out) == (command == "predict")


def test_stray_key_error_is_not_reported_as_bad_input(monkeypatch):
    def broken_screens(dataset, groups):
        raise KeyError("boom")

    monkeypatch.setattr("retailrisk.cli._run_screens", broken_screens)
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
    status, out, err = run(["predict", "--chain", "Rite Aid", "--year", "2015"])
    assert (status, err) == (0, "") and "| Rite Aid | 2015 | 0.020 |" in out


SRC = Path(__file__).resolve().parents[1] / "src"


def run_process(argv):
    """(exit code, stdout, stderr) of ``python -m retailrisk.cli ARGV`` in a
    fresh interpreter, which enters through ``main()``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "retailrisk.cli", *argv],
                            env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                            timeout=120)
    return result.returncode, result.stdout.decode("utf-8"), result.stderr.decode("utf-8")


#: (argv, exit code) of each way out of a process: a report in every format
#: to stdout and to a file, one with printed ratios, a usage error and a file
#: error, and --help.
EXIT_PATHS = [
    *((["report", "--format", fmt], 0) for fmt in FORMATS),
    *((["report", "--format", fmt, "--out", "report.out"], 0) for fmt in FORMATS),
    (["report", "--format", "json", "--ratios", "printed"], 0),
    (["report", "--coef", "rounded", "--data", "panel.csv"], 2),
    (["describe", "--data", "missing.csv"], 1),
    (["--help"], 0),
]


@pytest.mark.parametrize("argv, status", EXIT_PATHS,
                         ids=[" ".join(argv) for argv, _ in EXIT_PATHS])
def test_process_entry_matches_run_command(argv, status, tmp_path, monkeypatch):
    """A process, which freezes its import-time heap before the command,
    exits with the code, stdout, stderr and ``--out`` file of ``run_command``
    in process."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    out = tmp_path / "report.out"
    results = []
    for entry in (run_process, run):
        results.append((*entry(argv), out.read_text(encoding="utf-8") if out.exists() else None))
        out.unlink(missing_ok=True)
    assert results[0] == results[1]
    assert results[0][0] == status
    assert (results[0][3] is not None) == ("--out" in argv)


@pytest.mark.parametrize("command", ["predict", "report", "export-data"])
def test_output_stdout_cannot_encode_gives_one_error_line(tmp_path, monkeypatch, command):
    """A chain name that stdout's encoding lacks: exit 1, one error line that
    names the encoding and ``--out``, and nothing on stdout, in process and
    in a fresh interpreter; there, ``--out`` writes the run as UTF-8."""
    path = write_variant(tmp_path / "unicode.csv",
                         lambda row: {"chain": "Rité Äid 東京"} if row["chain"] == "Rite Aid" else {})
    argv = [command, "--data", str(path)]
    message = "error: stdout cannot encode the output as ascii; use --out PATH (UTF-8)\n"
    buffer, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(buffer, encoding="ascii")
    assert run_command(argv, stdout=stdout, stderr=err) == 1
    stdout.flush()
    assert (buffer.getvalue(), err.getvalue()) == (b"", message)
    monkeypatch.setenv("PYTHONIOENCODING", "ascii")
    assert run_process(argv) == (1, "", message)
    status, text, _ = run(argv)
    assert status == 0 and "Rité Äid 東京" in text
    out = tmp_path / "out.txt"
    assert run_process([*argv, "--out", str(out)]) == (0, "", "")
    assert out.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("argv,status,line", [
    (["predict", "--chain", "Rité", "--year", "2015"], 1,
     "error: unknown chain 'Rit\\xe9'; known: Bed Bath & Beyond, Rite Aid, Sears Holdings, "
     "J.C. Penney\n"),
    (["report", "--format", "jsoné"], 2,
     "error: argument --format: invalid choice: 'json\\xe9' (choose from 'markdown', 'csv', "
     "'json')\nusage: retailrisk [-h] COMMAND ...\n"),
], ids=["error", "usage"])
def test_stderr_that_cannot_encode_gets_the_line_backslash_escaped(argv, status, line):
    """An in-process stderr with a strict encoding gets its error line as
    Python's own stderr writes it, and the exit status is unchanged."""
    buffer, out = io.BytesIO(), io.StringIO()
    stderr = io.TextIOWrapper(buffer, encoding="ascii")
    assert run_command(argv, stdout=out, stderr=stderr) == status
    stderr.flush()
    assert (buffer.getvalue().decode("ascii"), out.getvalue()) == (line, "")
    assert run(argv) == (status, "", line.encode("ascii").decode("unicode_escape"))


def test_run_command_leaves_the_collector_alone():
    frozen = gc.get_freeze_count()
    assert run(["report"])[0] == 0
    assert gc.get_freeze_count() == frozen


def test_main_freezes_the_heap_once_before_the_command(monkeypatch, capsys):
    # A stand-in for gc.freeze, so that the test process's heap is not frozen.
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    command = cli.run_command
    monkeypatch.setattr(cli, "run_command", lambda argv: calls.append(argv) or command(argv))
    monkeypatch.setattr(sys, "argv", ["retailrisk", "report"])
    with pytest.raises(SystemExit) as exited:
        cli.main()
    assert exited.value.code == 0
    assert calls == ["freeze", ["report"]]
    assert capsys.readouterr().out.startswith("# Retail chain failure analysis")
