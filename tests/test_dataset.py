import numpy as np
import pytest

import retailrisk.dataset as dataset_module
from retailrisk.dataset import (
    CSV_HEADER,
    NUMERIC_COLUMNS,
    PREDICTOR_COLUMNS,
    RATIO_COLUMNS,
    RATIO_PRECISIONS,
    DataParseError,
    DataValidationError,
    Dataset,
    DesignMatrix,
    dataset_to_csv,
    design_matrix,
    embedded_dataset,
    parse_dataset,
)

from _ingest_reference import derive_ratios, parse_records
from _panel import panel_csv
from _reference import PANDEMIC_ROWS, REVENUE_TOTAL

HEADER = ",".join(CSV_HEADER)


def one_row(**overrides) -> str:
    """A one-row CSV, with the given fields replaced."""
    row = dict(
        chain="Test Chain", year=2015, fail=0, revenue=1000.0, cost_of_revenue=700.0,
        sga=200.0, ebitda=50.0, stores=10.0, us_interest_rate=2.0,
        us_inflation_rate=1.5, long_term_debt=300.0, pandemic=0, acsi=75.0,
    )
    row.update(overrides)
    return HEADER + "\n" + ",".join(str(row[c]) for c in CSV_HEADER) + "\n"


def rows_of(ds, chain):
    """(year, fail) of each of ``chain``'s rows, read from the columns."""
    return [(int(year), int(fail))
            for c, year, fail in zip(ds.column("chain"), ds.column("year"), ds.column("fail"))
            if c == chain]


class TestEmbeddedDataset:
    def test_size_and_structure(self):
        ds = embedded_dataset()
        assert ds.n == 32
        assert ds.chains == ("Bed Bath & Beyond", "Rite Aid", "Sears Holdings", "J.C. Penney")
        assert int(ds.column("fail").sum()) == 4

    def test_revenue_totals(self):
        # Oracle: direct summation of the raw revenue column.
        revenue = embedded_dataset().column("revenue")
        assert float(np.sum(revenue)) == REVENUE_TOTAL
        assert float(np.mean(revenue)) == pytest.approx(16854.81, abs=0.01)

    def test_sears_span_and_failure_year(self):
        rows = rows_of(embedded_dataset(), "Sears Holdings")
        assert [year for year, _ in rows] == list(range(2013, 2019))
        assert [year for year, fail in rows if fail == 1] == [2018]

    def test_pandemic_rows(self):
        ds = embedded_dataset()
        flagged = {(chain, int(year)) for chain, year, pandemic
                   in zip(ds.column("chain"), ds.column("year"), ds.column("pandemic"))
                   if pandemic == 1}
        assert flagged == PANDEMIC_ROWS

    def test_each_chain_fails_in_its_final_year(self):
        ds = embedded_dataset()
        for chain in ds.chains:
            fails = [fail for _, fail in rows_of(ds, chain)]
            assert sum(fails) == 1
            assert fails[-1] == 1


class TestRatioColumns:
    def test_bbb_2015_sga_ratio(self):
        ds = embedded_dataset()
        assert (ds.column("chain")[0], ds.column("year")[0]) == ("Bed Bath & Beyond", 2015)
        ratio = ds.column("sga_over_rev")[0]
        assert ratio == pytest.approx(3205 / 12104)
        assert round(ratio, 2) == 0.26

    def test_jcp_2020_ltd_ratio(self):
        ds = embedded_dataset()
        assert (ds.column("chain")[-1], ds.column("year")[-1]) == ("J.C. Penney", 2020)
        ratio = ds.column("ltd_over_rev")[-1]
        assert ratio == pytest.approx(3574 / 1196)
        assert round(ratio, 2) == 2.99

    def test_zero_ebitda_gives_exact_zero(self):
        assert parse_dataset(one_row(ebitda=0.0)).column("ebitda_over_rev")[0] == 0.0

    def test_printed_precision_rounds_to_two_decimals(self):
        full, printed = embedded_dataset(), embedded_dataset("printed")
        for name in RATIO_COLUMNS:
            rounded = [round(v, 2) for v in full.column(name).tolist()]
            assert printed.column(name).tolist() == rounded

    def test_nonpositive_revenue_rejected(self):
        with pytest.raises(DataValidationError, match="revenue must be > 0"):
            parse_dataset(one_row(revenue=0.0))

    def test_unknown_precision_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            parse_dataset(one_row(), "approximate")


class TestParseErrors:
    def test_empty_dataset(self):
        with pytest.raises(DataValidationError, match="empty dataset"):
            parse_dataset(HEADER + "\n")

    def test_missing_header(self):
        with pytest.raises(DataParseError):
            parse_dataset("")

    def test_wrong_header(self):
        with pytest.raises(DataParseError, match="header"):
            parse_dataset("a,b,c\n1,2,3\n")

    def test_wrong_arity_reports_line(self):
        text = HEADER + "\nA,2015,0,100\n"
        with pytest.raises(DataParseError, match="line 2"):
            parse_dataset(text)

    def test_non_numeric_reports_line_and_column(self):
        text = HEADER + "\nA,2015,0,abc,700,200,50,10,2,1.5,300,0,75\n"
        with pytest.raises(DataParseError, match="line 2.*revenue"):
            parse_dataset(text)

    def test_zero_revenue_names_chain_and_year(self):
        ds = embedded_dataset()
        rows = dataset_to_csv(ds).splitlines()
        rows[1] = rows[1].replace("12104", "0", 1)
        with pytest.raises(DataValidationError, match="Bed Bath & Beyond 2015"):
            parse_dataset("\n".join(rows) + "\n")

    def test_fail_not_in_final_year(self):
        text = (
            HEADER + "\n"
            "A,2015,1,100,70,20,5,10,2,1.5,30,0,75\n"
            "A,2016,0,100,70,20,5,10,2,1.5,30,0,75\n"
        )
        with pytest.raises(DataValidationError, match="final year"):
            parse_dataset(text)

    def test_two_failures_in_one_chain(self):
        text = (
            HEADER + "\n"
            "A,2015,1,100,70,20,5,10,2,1.5,30,0,75\n"
            "A,2016,1,100,70,20,5,10,2,1.5,30,0,75\n"
        )
        with pytest.raises(DataValidationError, match="more than one"):
            parse_dataset(text)

    def test_non_contiguous_years(self):
        text = (
            HEADER + "\n"
            "A,2015,0,100,70,20,5,10,2,1.5,30,0,75\n"
            "A,2017,0,100,70,20,5,10,2,1.5,30,0,75\n"
        )
        with pytest.raises(DataValidationError, match="contiguous"):
            parse_dataset(text)

    def test_descending_years(self):
        text = (
            HEADER + "\n"
            "A,2016,0,100,70,20,5,10,2,1.5,30,0,75\n"
            "A,2015,0,100,70,20,5,10,2,1.5,30,0,75\n"
        )
        with pytest.raises(DataValidationError):
            parse_dataset(text)

    @pytest.mark.parametrize(
        "column,value,message",
        [
            ("fail", "2", "fail"),
            ("pandemic", "3", "pandemic"),
            ("year", "1901", "year"),
            ("stores", "0", "stores"),
            ("acsi", "150", "acsi"),
            ("sga", "-5", "sga"),
        ],
    )
    def test_domain_violations(self, column, value, message):
        row = dict(zip(CSV_HEADER, "A,2015,0,100,70,20,5,10,2,1.5,30,0,75".split(",")))
        row[column] = value
        text = HEADER + "\n" + ",".join(row[c] for c in CSV_HEADER) + "\n"
        with pytest.raises(DataValidationError, match=message):
            parse_dataset(text)

    def test_fractional_year_is_a_parse_error(self):
        text = HEADER + "\nA,2015.5,0,100,70,20,5,10,2,1.5,30,0,75\n"
        with pytest.raises(DataParseError, match="integer"):
            parse_dataset(text)

    @pytest.mark.parametrize("year", ["nan", "inf", "-inf"])
    def test_non_finite_year_is_a_parse_error(self, year):
        text = HEADER + f"\nA,{year},0,100,70,20,5,10,2,1.5,30,0,75\n"
        with pytest.raises(DataParseError, match="'year' must be an integer"):
            parse_dataset(text)

    def test_first_bad_field_in_column_order_is_reported(self):
        text = HEADER + "\nA,2015,0.5,abc,70,20,5,10,2,1.5,30,0,75\n"
        with pytest.raises(DataParseError, match="'fail' must be an integer"):
            parse_dataset(text)

    def test_bad_input_is_diagnosed_from_one_read(self, monkeypatch):
        readers = []

        def counting_reader(*args, **kwargs):
            readers.append(args)
            return real_reader(*args, **kwargs)

        real_reader = dataset_module.csv.reader
        monkeypatch.setattr(dataset_module.csv, "reader", counting_reader)
        good = "A,{},0,100,70,20,5,10,2,1.5,30,0,75"
        text = "\n".join([
            HEADER,
            good.format(2015),
            good.format(2016),
            "A,2017,0,abc,70,20,5,10,2,1.5,30,0,75",
            good.format(2018),
            "A,2019,0,100",
        ]) + "\n"
        with pytest.raises(DataParseError) as caught:
            parse_dataset(text)
        assert str(caught.value) == "line 4: non-numeric value 'abc' in column 'revenue'"
        assert len(readers) == 1

    def test_field_over_the_csv_size_limit_is_a_parse_error(self):
        text = dataset_to_csv(embedded_dataset()).replace("Rite Aid", "R" * 200_000, 1)
        with pytest.raises(DataParseError) as caught:
            parse_dataset(text)
        assert str(caught.value) == "line 10: field larger than field limit (131072)"

    @pytest.mark.parametrize("ending", ["\r", "\r\n"])
    def test_any_line_ending_parses(self, ending):
        text = dataset_to_csv(embedded_dataset())
        assert parse_dataset(text.replace("\n", ending)) == embedded_dataset()


class TestRoundTrip:
    def test_embedded_roundtrip_is_identical(self):
        ds = embedded_dataset()
        assert parse_dataset(dataset_to_csv(ds)) == ds

    def test_roundtrip_preserves_printed_mode(self):
        ds = embedded_dataset(ratio_precision="printed")
        again = parse_dataset(dataset_to_csv(ds), ratio_precision="printed")
        assert again == ds

    def test_printed_precision_switches_columns(self):
        ds = embedded_dataset()
        printed = embedded_dataset("printed")
        np.testing.assert_array_equal(
            printed.column("sga_over_rev"), np.round(ds.column("sga_over_rev"), 2)
        )
        # raw columns unaffected
        np.testing.assert_array_equal(printed.column("revenue"), ds.column("revenue"))


class TestDesignMatrix:
    def test_single_predictor(self):
        dm = design_matrix(embedded_dataset(), ["us_inflation_rate"])
        assert dm.X.shape == (32, 2)
        assert int(dm.y.sum()) == 4
        assert dm.labels == ("intercept", "us_inflation_rate")

    def test_intercept_only(self):
        dm = design_matrix(embedded_dataset(), [])
        assert dm.X.shape == (32, 1)
        assert np.array_equal(dm.X[:, 0], np.ones(32))

    def test_final_model_design(self):
        dm = design_matrix(
            embedded_dataset(), ["us_inflation_rate", "ltd_over_rev", "ebitda_over_rev"]
        )
        assert dm.X.shape == (32, 4)
        assert np.all(np.isfinite(dm.X))

    def test_unknown_predictor_lists_valid_names(self):
        with pytest.raises(KeyError, match="us_inflation_rate"):
            design_matrix(embedded_dataset(), ["inflation"])

    def test_first_column_always_ones(self):
        ds = embedded_dataset()
        for predictors in ([], ["acsi"], ["revenue", "stores"], ["ebitda_over_rev"]):
            dm = design_matrix(ds, predictors)
            assert np.all(dm.X[:, 0] == 1.0)
            assert np.all(np.isfinite(dm.X))

    def test_column_rejects_unknown_name(self):
        with pytest.raises(KeyError, match="unknown column"):
            embedded_dataset().column("net_income")

    @pytest.mark.parametrize("precision", RATIO_PRECISIONS)
    def test_matches_column_stack_bit_for_bit(self, precision):
        ds = embedded_dataset(precision)
        for predictors in ([], ["acsi"], list(PREDICTOR_COLUMNS), list(PREDICTOR_COLUMNS)[::-1],
                           ["us_inflation_rate", "ltd_over_rev", "ebitda_over_rev"]):
            X = design_matrix(ds, predictors).X
            stacked = np.column_stack([np.ones(ds.n), *(ds.column(name) for name in predictors)])
            assert X.dtype == stacked.dtype and X.shape == stacked.shape
            assert X.flags.c_contiguous and X.tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("change,message", [
        (lambda y, X, labels: (y[:-1], X, labels), "inconsistent shapes"),
        (lambda y, X, labels: (y, X, labels[:-1]), "one label required per design column"),
        (lambda y, X, labels: (y, X + [0.0, np.inf], labels), "non-finite entries"),
        (lambda y, X, labels: (y * np.nan, X, labels), "non-finite entries"),
        (lambda y, X, labels: (2.0 * y, X, labels), "response must be binary"),
        (lambda y, X, labels: (y, X[:, ::-1], labels), "first design column must be the intercept"),
    ])
    def test_direct_construction_runs_every_check(self, change, message):
        dm = design_matrix(embedded_dataset(), ["acsi"])
        with pytest.raises(ValueError, match=message):
            DesignMatrix(*change(dm.y, dm.X, dm.labels))


def _datasets():
    panel = panel_csv()
    return [
        pytest.param(embedded_dataset(), id="embedded-full"),
        pytest.param(embedded_dataset("printed"), id="embedded-printed"),
        pytest.param(parse_dataset(panel), id="panel-full"),
        pytest.param(parse_dataset(panel, "printed"), id="panel-printed"),
    ]


class TestColumnarDataset:
    """Fixed columns and the chain index against per-record scans."""

    @pytest.mark.parametrize("ds", _datasets())
    def test_columns_equal_per_record_values(self, ds):
        records = parse_records(dataset_to_csv(ds))
        for name in ("fail", *PREDICTOR_COLUMNS):
            if name in RATIO_COLUMNS:
                expected = [getattr(derive_ratios(r, ds.ratio_precision), name) for r in records]
            else:
                expected = [float(getattr(r, name)) for r in records]
            np.testing.assert_array_equal(ds.column(name), np.array(expected), err_msg=name)

    @pytest.mark.parametrize("ds", _datasets())
    def test_columns_are_fixed_and_read_only(self, ds):
        for name in ("fail", *PREDICTOR_COLUMNS):
            values = ds.column(name)
            assert not values.flags.writeable
            assert ds.column(name) is values
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0

    @pytest.mark.parametrize("ds", _datasets())
    def test_chains_in_first_occurrence_order(self, ds):
        records = parse_records(dataset_to_csv(ds))
        assert ds.chains == tuple(dict.fromkeys(r.chain for r in records))
        assert ds.column("chain") == tuple(r.chain for r in records)

    def test_columns_are_per_dataset(self):
        ds = embedded_dataset()
        printed = embedded_dataset("printed")
        assert printed.column("sga_over_rev") is not ds.column("sga_over_rev")
        assert printed == embedded_dataset("printed")


def _table(ds):
    return np.array([ds.column(name) for name in NUMERIC_COLUMNS])


def test_constructor_takes_chains_and_table():
    ds = embedded_dataset("printed")
    assert Dataset(ds.column("chain"), _table(ds), "printed") == ds
    with pytest.raises(ValueError, match=r"expected a \(12, 31\) table, got shape \(12, 32\)"):
        Dataset(ds.column("chain")[1:], _table(ds))


def test_constructor_copies_the_table():
    ds = embedded_dataset()
    table = _table(ds)
    again = Dataset(ds.column("chain"), table)
    table[:] = 0.0
    assert again == ds


@pytest.mark.parametrize("rename,year,message", [
    ("Rite Aid", 2015.5, "Rite Aid 2015.5: year must be an integer"),
    ("", 2015, "chain name '' must be one non-empty line with no leading or trailing whitespace"),
    (" Rite Aid", 2015,
     "chain name ' Rite Aid' must be one non-empty line with no leading or trailing whitespace"),
    ("Rite\rAid", 2015,
     "chain name 'Rite\\rAid' must be one non-empty line with no leading or trailing whitespace"),
])
def test_constructor_refuses_what_parsing_refuses(rename, year, message):
    """A fractional year, and an empty, padded or multi-line chain name, none
    of which the CSV carries back unchanged, in Rite Aid's 2015 row."""
    ds = embedded_dataset()
    chains = [rename if chain == "Rite Aid" else chain for chain in ds.column("chain")]
    table = _table(ds)
    table[0, chains.index(rename) + 2] = year
    with pytest.raises(DataValidationError) as raised:
        Dataset(chains, table)
    assert str(raised.value) == message


def test_dataset_rejects_unknown_precision():
    ds = embedded_dataset()
    with pytest.raises(ValueError, match="precision"):
        Dataset(ds.column("chain"), _table(ds), ratio_precision="half")


def test_parse_releases_the_row_strings_before_validation(monkeypatch):
    """When ``Dataset`` copies and validates the table, the per-row field
    strings are gone: what parsing still holds is the float table and the
    chain names, about 2 bytes per input character on this panel, against 16
    while the strings were alive."""
    import tracemalloc

    text = panel_csv(7)
    live = []
    init = Dataset.__init__

    def measuring_init(self, *args, **kwargs):
        live.append(tracemalloc.get_traced_memory()[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Dataset, "__init__", measuring_init)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        parse_dataset(text)
    finally:
        tracemalloc.stop()
    assert live[0] - base < 4 * len(text)
