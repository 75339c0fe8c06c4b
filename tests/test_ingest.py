"""The columnar parser and validator against the per-record reference: the
same values in bit-equal columns, and the same error class and message for
every parse and validation fault, including which of two faults is named."""

import csv
import functools
import random
import tracemalloc
from itertools import zip_longest

import numpy as np
import pytest

from retailrisk import DataParseError, RetailRiskError
from retailrisk.dataset import (
    CSV_HEADER,
    PREDICTOR_COLUMNS,
    RATIO_COLUMNS,
    NUMERIC_COLUMNS,
    RATIO_PRECISIONS,
    Dataset,
    dataset_to_csv,
    embedded_dataset,
    parse_dataset,
)

from _ingest_reference import derive_ratios, parse_records, read_records, validate_records
from _panel import panel_csv

COL = {name: i for i, name in enumerate(CSV_HEADER)}
INTEGER_COLUMNS = ("year", "fail", "pandemic")
FINITE_COLUMNS = ("revenue", "cost_of_revenue", "sga", "ebitda", "stores",
                  "us_interest_rate", "us_inflation_rate", "long_term_debt", "acsi")
NON_FINITE = ("nan", "inf", "-inf")


def _set(column, *values):
    def fault(row, rng):
        row[COL[column]] = rng.choice(values)
    return fault


def _fractional(row, rng):
    column = COL[rng.choice(INTEGER_COLUMNS)]
    row[column] = f"{row[column]}.5"


def _non_finite_integer(row, rng):
    row[COL[rng.choice(INTEGER_COLUMNS)]] = rng.choice(NON_FINITE)


def _non_finite(row, rng):
    row[COL[rng.choice(FINITE_COLUMNS)]] = rng.choice(NON_FINITE)


def _non_numeric(row, rng):
    row[rng.randrange(1, len(CSV_HEADER))] = rng.choice(("abc", "", "1.2.3", "0x10", "--1"))


#: Faults that make one row fail to parse.
PARSE_FAULTS = {
    "too_few_fields": lambda row, rng: row.pop(rng.randrange(1, len(row))),
    "too_many_fields": lambda row, rng: row.append("1"),
    "empty_chain": _set("chain", "", "   "),
    "non_numeric": _non_numeric,
    "fractional_integer": _fractional,
    "non_finite_integer": _non_finite_integer,
}

#: Faults that break one row's domain rules, in the order the rules are checked.
DOMAIN_FAULTS = {
    "fail": _set("fail", "2", "-1"),
    "pandemic": _set("pandemic", "3", "-1"),
    "year": _set("year", "1901", "2200"),
    "revenue": _set("revenue", "0", "-0", "-5.5"),
    "stores": _set("stores", "0", "-3"),
    "cost_of_revenue": _set("cost_of_revenue", "-1"),
    "sga": _set("sga", "-0.5"),
    "long_term_debt": _set("long_term_debt", "-7"),
    "acsi": _set("acsi", "150", "-1", "100.5"),
    "non_finite": _non_finite,
}


def _overflowing_ratio(row, rng):
    """Every field passes the row rules, but one revenue ratio overflows."""
    row[COL["revenue"]] = "1e-300"
    row[COL[rng.choice(("sga", "cost_of_revenue", "ebitda", "long_term_debt"))]] = "1e300"


#: A fault that only the ratio rule, checked after every row and chain rule, sees.
RATIO_FAULTS = {"overflowing_ratio": _overflowing_ratio}

ROW_FAULTS = {**PARSE_FAULTS, **DOMAIN_FAULTS, **RATIO_FAULTS}


@functools.cache
def _panel_text(seed, chains=30):
    return panel_csv(seed, chains=chains)


def _panel_rows(seed, chains=30):
    lines = _panel_text(seed, chains).splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _text(header, rows):
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


def _chain_spans(rows):
    """(start, stop) row positions of each chain, in file order."""
    spans, start = [], 0
    for i in range(1, len(rows) + 1):
        if i == len(rows) or rows[i][0] != rows[start][0]:
            spans.append((start, i))
            start = i
    return spans


def _year_gap(rows, rng):
    start, stop = rng.choice([s for s in _chain_spans(rows) if s[1] - s[0] >= 3])
    del rows[rng.randrange(start + 1, stop - 1)]


def _years_out_of_order(rows, rng):
    start, stop = rng.choice([s for s in _chain_spans(rows) if s[1] - s[0] >= 2])
    i = rng.randrange(start, stop - 1)
    rows[i], rows[i + 1] = rows[i + 1], rows[i]


def _two_failures(rows, rng):
    start, stop = rng.choice([s for s in _chain_spans(rows) if s[1] - s[0] >= 2])
    rows[stop - 1][COL["fail"]] = "1"
    rows[rng.randrange(start, stop - 1)][COL["fail"]] = "1"


def _failure_not_last(rows, rng):
    start, stop = rng.choice([s for s in _chain_spans(rows) if s[1] - s[0] >= 2])
    rows[stop - 1][COL["fail"]] = "0"
    rows[rng.randrange(start, stop - 1)][COL["fail"]] = "1"


#: Faults that break a chain rule.
CHAIN_FAULTS = {
    "year_gap": _year_gap,
    "years_out_of_order": _years_out_of_order,
    "two_failures": _two_failures,
    "failure_not_last": _failure_not_last,
}


def _interleaved(rows):
    """The rows dealt round-robin over the chains: every chain's first row in
    chain order, then every second row, and so on."""
    ranks = zip_longest(*(rows[start:stop] for start, stop in _chain_spans(rows)))
    return [row for rank in ranks for row in rank if row is not None]


LAYOUTS = ("contiguous", "interleaved")


#: Non-empty rows the parser converts at a time; a private constant of
#: ``retailrisk.dataset``, restated so that the tests pin it.
BLOCK_ROWS = 256


def _inject(seed, *names, layout="contiguous", straddle=False):
    """A seeded panel with each named fault put into a random row or chain
    (row faults into different rows), with each chain's rows together or
    interleaved with the other chains' rows. With ``straddle``, the panel
    spans three blocks and the row faults go into the rows on either side
    of the first block edge, in random order."""
    rng = random.Random(f"{seed}-{names}")
    header, rows = _panel_rows(seed, chains=100 if straddle else 30)
    for name in names:
        if name in CHAIN_FAULTS:
            CHAIN_FAULTS[name](rows, rng)
    if layout == "interleaved":
        rows = _interleaved(rows)
    if straddle:
        targets = rng.sample([BLOCK_ROWS - 1, BLOCK_ROWS], len(names))
    else:
        targets = rng.sample(range(len(rows)), len(names))
    for name, i in zip(names, targets):
        if name in ROW_FAULTS:
            ROW_FAULTS[name](rows[i], rng)
    return _text(header, rows)


def _outcome(parse, text):
    try:
        parse(text)
    except RetailRiskError as exc:
        return type(exc), str(exc)
    return None


def _assert_same_error(text):
    expected = _outcome(parse_records, text)
    assert expected is not None
    assert _outcome(parse_dataset, text) == expected


def _columns(records):
    """The reference's records as the constructor's row chains and table."""
    table = [[getattr(r, name) for r in records] for name in NUMERIC_COLUMNS]
    return [r.chain for r in records], table


def _assert_same_records_error(records):
    with pytest.raises(RetailRiskError) as expected:
        validate_records(records)
    with pytest.raises(type(expected.value)) as raised:
        Dataset(*_columns(records))
    assert str(raised.value) == str(expected.value)


SEEDS = range(8)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(ROW_FAULTS) + sorted(CHAIN_FAULTS))
def test_fault_gives_reference_error(name, seed, layout):
    _assert_same_error(_inject(seed, name, layout=layout))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(DOMAIN_FAULTS) + sorted(RATIO_FAULTS)
                         + sorted(CHAIN_FAULTS))
def test_records_constructor_gives_reference_error(name, seed, layout):
    _assert_same_records_error(read_records(_inject(seed, name, layout=layout)))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("seed", range(120))
def test_first_of_two_faults_is_reported(seed, layout):
    """Seeds from 60 on put the row faults on either side of a block edge."""
    rng = random.Random(seed)
    names = rng.choices(sorted(ROW_FAULTS) + sorted(CHAIN_FAULTS), k=2)
    _assert_same_error(_inject(seed % len(SEEDS), *names, layout=layout, straddle=seed >= 60))


@pytest.mark.parametrize("first", range(len(DOMAIN_FAULTS) - 1))
def test_first_broken_rule_of_a_row_is_reported(first):
    rng = random.Random(first)
    header, rows = _panel_rows(first % len(SEEDS))
    row = rng.choice(rows)
    for name in list(DOMAIN_FAULTS)[first:]:
        DOMAIN_FAULTS[name](row, rng)
    text = _text(header, rows)
    _assert_same_error(text)
    _assert_same_records_error(read_records(text))


def test_empty_dataset_gives_reference_error():
    _assert_same_error(",".join(CSV_HEADER) + "\n\n")


def _datasets():
    for seed in range(4):
        for precision in RATIO_PRECISIONS:
            yield pytest.param(panel_csv(seed, chains=60), precision, id=f"panel{seed}-{precision}")
    for precision in RATIO_PRECISIONS:
        yield pytest.param(dataset_to_csv(embedded_dataset()), precision, id=f"embedded-{precision}")


@pytest.mark.parametrize("text,precision", _datasets())
def test_valid_data_matches_reference(text, precision):
    _assert_matches_reference(text, precision)


def _assert_matches_reference(text, precision, reference_text=None):
    """``parse_dataset(text)`` has the reference's chains and the bits of its
    values for ``reference_text`` (by default ``text``)."""
    ds = parse_dataset(text, precision)
    records = parse_records(text if reference_text is None else reference_text)
    assert ds.chains == validate_records(records)
    assert ds.column("chain") == tuple(r.chain for r in records)
    for name in ("fail", *PREDICTOR_COLUMNS):
        if name in RATIO_COLUMNS:
            expected = [getattr(derive_ratios(r, precision), name) for r in records]
        else:
            expected = [float(getattr(r, name)) for r in records]
        assert ds.column(name).tobytes() == np.array(expected).tobytes(), name
    assert parse_dataset(dataset_to_csv(ds), precision) == ds
    assert Dataset(*_columns(records), precision) == ds


def _rows_text(rows, blank_at=(), ending="\n"):
    """The header and ``rows`` as CSV, with a blank line before each data row
    position in ``blank_at`` (two where a position repeats)."""
    header, panel = _panel_rows(0, chains=120)
    lines = [header]
    for i, row in enumerate(panel[:rows]):
        lines += [""] * blank_at.count(i) + [",".join(row)]
    return ending.join(lines) + ending


@pytest.mark.parametrize("ending", ["\n", "\r"], ids=["lf", "lone_cr"])
@pytest.mark.parametrize("blank_at", [(), (BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS),
                                      (0, BLOCK_ROWS * 2)], ids=["no_blanks", "edge", "ends"])
@pytest.mark.parametrize("rows", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
def test_block_edges_parse_as_the_reference(rows, blank_at, ending):
    assert len(_panel_rows(0, chains=120)[1]) > 2 * BLOCK_ROWS + 1
    text = _rows_text(rows, blank_at, ending)
    for precision in RATIO_PRECISIONS:
        # The reference reads lines split at LF only, so it gets the LF text.
        _assert_matches_reference(text, precision, _rows_text(rows, blank_at))
    assert parse_dataset(text).n == rows


def _oversize_field_at(rows, i):
    """Row ``i``'s chain name made longer than the csv module's field limit."""
    rows[i][0] = "R" * (csv.field_size_limit() + 1)


FIELD_LIMIT_ERROR = f"field larger than field limit ({csv.field_size_limit()})"


@pytest.mark.parametrize("bad,oversize", [
    (10, 20), (20, 10),                            # one block, either order
    (10, BLOCK_ROWS + 20), (BLOCK_ROWS + 20, 10),  # one in each block
    (BLOCK_ROWS - 1, BLOCK_ROWS), (BLOCK_ROWS, BLOCK_ROWS - 1),  # about the edge
])
def test_a_csv_fault_is_reported_in_file_order(bad, oversize):
    """A field over the csv module's size limit and a non-numeric field: the
    one earlier in the file is reported, wherever the block edge falls."""
    header, rows = _panel_rows(0, chains=120)
    rows[bad][COL["revenue"]] = "abc"
    _oversize_field_at(rows, oversize)
    text = _text(header, rows)
    _assert_same_error(text)
    with pytest.raises(DataParseError) as caught:
        parse_dataset(text)
    if bad < oversize:
        assert str(caught.value) == (f"line {bad + 2}: non-numeric value 'abc' "
                                     f"in column 'revenue'")
    else:
        assert str(caught.value) == f"line {oversize + 2}: {FIELD_LIMIT_ERROR}"


def test_a_bad_header_is_reported_before_a_csv_fault():
    header, rows = _panel_rows(0)
    _oversize_field_at(rows, 5)
    text = _text(header.replace("revenue", "sales", 1), rows)
    _assert_same_error(text)
    with pytest.raises(DataParseError, match="^unexpected header"):
        parse_dataset(text)


def test_an_oversize_header_field_is_a_line_1_parse_error():
    header, rows = _panel_rows(0)
    text = _text("R" * (csv.field_size_limit() + 1) + header, rows)
    _assert_same_error(text)
    with pytest.raises(DataParseError) as caught:
        parse_dataset(text)
    assert str(caught.value) == f"line 1: {FIELD_LIMIT_ERROR}"


def test_parse_peak_memory_stays_under_ten_times_the_input():
    """The parse holds one block of fields as strings at a time, so its
    traced peak stays a small multiple of the text it reads."""
    text = panel_csv(3, chains=300)
    assert text.count("\n") > 1_500
    parse_dataset(text)  # first-call allocations (numpy, the csv module) are not the parse's
    tracemalloc.start()
    try:
        parse_dataset(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * len(text), peak / len(text)
