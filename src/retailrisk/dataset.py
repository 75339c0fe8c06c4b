"""Firm-year dataset: CSV parsing, validation, revenue ratios, design matrices.

The canonical CSV schema carries one row per chain-year with raw financials in
one money unit (millions of USD in the embedded data) plus macro indicators:

    chain,year,fail,revenue,cost_of_revenue,sga,ebitda,stores,
    us_interest_rate,us_inflation_rate,long_term_debt,pandemic,acsi

Revenue ratios (SGA/revenue, cost of revenue/revenue, EBITDA/revenue,
long-term debt/revenue) are always recomputed from the raw columns, never
read from a file. ``ratio_precision="printed"`` rounds them to two decimals,
matching how such ratios are typically published, and exists so that results
derived from rounded ratios can be reproduced exactly.

A :class:`Dataset` holds its data as columns only: one float row per numeric
CSV column plus the chain name of each row, parsed from one read of the CSV.
The parse converts the rows by column in blocks of 256, so it never holds
every field as a string, and reports the first fault in file order. The
constructor validates the columns, each rule over all rows at once, and
builds every column, ratio columns at the dataset's precision included,
once; nothing changes after that.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass

import numpy as np

from .errors import RetailRiskError

CSV_HEADER = (
    "chain",
    "year",
    "fail",
    "revenue",
    "cost_of_revenue",
    "sga",
    "ebitda",
    "stores",
    "us_interest_rate",
    "us_inflation_rate",
    "long_term_debt",
    "pandemic",
    "acsi",
)

RAW_COLUMNS = CSV_HEADER[3:]

RATIO_COLUMNS = ("sga_over_rev", "cor_over_rev", "ebitda_over_rev", "ltd_over_rev")

#: Raw column divided by revenue to form each ratio column, in that order.
_RATIO_NUMERATORS = ("sga", "cost_of_revenue", "ebitda", "long_term_debt")

#: Names accepted by :func:`design_matrix` and :meth:`Dataset.column`.
PREDICTOR_COLUMNS = ("year",) + RAW_COLUMNS + RATIO_COLUMNS

RATIO_PRECISIONS = ("full", "printed")

YEAR_RANGE = (1990, 2100)


class DataParseError(RetailRiskError):
    """Malformed CSV input (bad header, wrong arity, non-numeric field)."""


class DataValidationError(RetailRiskError):
    """Structurally valid input that violates a dataset invariant."""


#: The numeric CSV columns, in file order; each is one row of a dataset's table.
NUMERIC_COLUMNS = CSV_HEADER[1:]
_ROW = {name: i for i, name in enumerate(NUMERIC_COLUMNS)}


class Dataset:
    """Validated, immutable chain-year table.

    ``table`` holds one float row per numeric CSV column (in
    :data:`NUMERIC_COLUMNS` order) and ``row_chains`` the chain name of each
    row. Chains appear in first-occurrence order, and a chain's name is one
    non-empty line with no surrounding whitespace; within a chain, years are
    integers, strictly ascending and contiguous, and a ``fail=1`` row (if
    any) is unique and last.
    """

    def __init__(self, row_chains, table, ratio_precision: str = "full"):
        self._row_chains = tuple(row_chains)
        self._table = np.array(table, dtype=float, order="C")
        if self._table.shape != (len(NUMERIC_COLUMNS), len(self._row_chains)):
            raise ValueError(
                f"expected a ({len(NUMERIC_COLUMNS)}, {len(self._row_chains)}) table, "
                f"got shape {self._table.shape}"
            )
        self._table.flags.writeable = False
        self._chains, ratios = _validate(self._row_chains, self._table)
        if ratio_precision not in RATIO_PRECISIONS:
            raise ValueError(
                f"unknown ratio precision {ratio_precision!r}; use one of {RATIO_PRECISIONS}"
            )
        if ratio_precision == "printed":
            # The builtin round, which np.round does not match bit for bit.
            ratios = np.array([[round(v, 2) for v in row] for row in ratios.tolist()])
            ratios.flags.writeable = False
        self._ratio_precision = ratio_precision
        self._columns = {
            "chain": self._row_chains,
            **dict(zip(NUMERIC_COLUMNS, self._table)),
            **dict(zip(RATIO_COLUMNS, ratios)),
        }

    @property
    def ratio_precision(self) -> str:
        return self._ratio_precision

    @property
    def chains(self) -> tuple[str, ...]:
        return self._chains

    @property
    def n(self) -> int:
        return len(self._row_chains)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self._ratio_precision == other._ratio_precision
            and self._row_chains == other._row_chains
            and np.array_equal(self._table, other._table)
        )

    def __hash__(self):
        return hash((self._ratio_precision, self._row_chains))

    def __repr__(self):
        return f"Dataset(n={self.n}, chains={self._chains!r}, ratio_precision={self._ratio_precision!r})"

    def column(self, name: str):
        """Column by name: a read-only float array for ``fail`` and every
        predictor (ratio columns at ``ratio_precision``), or the tuple of
        chain names for ``chain``; the same object on every call."""
        values = self._columns.get(name)
        if values is None:
            raise KeyError(
                f"unknown column {name!r}; known: chain, fail, {', '.join(PREDICTOR_COLUMNS)}"
            )
        return values


def _integer_text(value: float) -> str:
    """A year, fail or pandemic value as text: ``2015``, not ``2015.0``."""
    return str(int(value)) if value.is_integer() else str(value)


#: Per-row rules, in the order they are reported: (column, test that flags
#: the bad values, message after "chain year: " given the offending value).
#: Each test flags NaN exactly as the comparison it negates would.
_ROW_RULES = (
    ("fail", lambda v: (v != 0) & (v != 1),
     lambda v: f"fail must be 0 or 1, got {_integer_text(v)}"),
    ("pandemic", lambda v: (v != 0) & (v != 1),
     lambda v: f"pandemic must be 0 or 1, got {_integer_text(v)}"),
    ("year", lambda v: ~((YEAR_RANGE[0] <= v) & (v <= YEAR_RANGE[1])),
     lambda v: f"year outside plausible range {YEAR_RANGE}"),
    ("year", lambda v: v != np.trunc(v), lambda v: "year must be an integer"),
    ("revenue", lambda v: v <= 0, lambda v: f"revenue must be > 0, got {v}"),
    ("stores", lambda v: v <= 0, lambda v: f"stores must be > 0, got {v}"),
    ("cost_of_revenue", lambda v: v < 0, lambda v: "cost_of_revenue must be >= 0"),
    ("sga", lambda v: v < 0, lambda v: "sga must be >= 0"),
    ("long_term_debt", lambda v: v < 0, lambda v: "long_term_debt must be >= 0"),
    ("acsi", lambda v: ~((0 <= v) & (v <= 100)), lambda v: f"acsi must be in [0, 100], got {v}"),
    *(
        (name, lambda v: ~np.isfinite(v), lambda v, name=name: f"{name} is not finite")
        for name in ("revenue", "cost_of_revenue", "sga", "ebitda", "stores",
                     "us_interest_rate", "us_inflation_rate", "long_term_debt", "acsi")
    ),
)


def _first_violation(bad: np.ndarray) -> tuple[int, int] | None:
    """For a (rules, items) matrix of flags: the first flagged item and the
    first rule it breaks, as (rule, item); None when nothing is flagged."""
    flagged = bad.any(axis=0)
    if not flagged.any():
        return None
    item = int(flagged.argmax())
    return int(bad[:, item].argmax()), item


def _validate(row_chains: tuple[str, ...], table: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """Check every invariant over the columns; returns the chains in
    first-occurrence order and the read-only full-precision ratio rows, in
    :data:`RATIO_COLUMNS` order.

    Every row rule is checked on all rows before any chain rule, and the
    first row in order that breaks one is reported with the first rule it
    breaks. The chain rules are then checked on all chains, and the first
    chain in first-occurrence order that breaks one is reported with the
    first rule it breaks: its name, then its years, then its fail=1 records
    (more than one, then one that is not last). Last,
    the first row whose recomputed revenue ratio overflows is reported with
    the first such ratio.
    """
    if not row_chains:
        raise DataValidationError("empty dataset")

    def row_error(row, message):
        year = _integer_text(float(table[_ROW["year"], row]))
        return DataValidationError(f"{row_chains[row]} {year}: {message}")

    found = _first_violation(np.array([flag(table[_ROW[c]]) for c, flag, _ in _ROW_RULES]))
    if found is not None:
        rule, row = found
        column, _, message = _ROW_RULES[rule]
        raise row_error(row, message(float(table[_ROW[column], row])))

    # The row rules passed, so every year is a whole number and fail is 0 or 1.
    # A stable sort by chain code groups each chain's rows, in file order,
    # with the chains in first-occurrence order.
    chains = tuple(dict.fromkeys(row_chains))
    code = dict(zip(chains, range(len(chains))))
    codes = np.fromiter(map(code.__getitem__, row_chains), np.intp, len(row_chains))
    order = np.argsort(codes, kind="stable")
    chain, year, fail = codes[order], table[_ROW["year"], order], table[_ROW["fail"], order] == 1
    same = chain[1:] == chain[:-1]
    gap = same & (year[1:] != year[:-1] + 1)  # between one chain's rows i and i + 1
    bad = np.zeros((4, len(chains)), dtype=bool)  # per chain rule, in reporting order
    bad[0] = [not c or c != c.strip() or "\n" in c or "\r" in c for c in chains]
    bad[1, chain[:-1][gap]] = True
    bad[2] = np.bincount(chain[fail], minlength=len(chains)) > 1
    bad[3, chain[:-1][fail[:-1] & same]] = True  # a fail=1 row that is not its chain's last
    found = _first_violation(bad)
    if found is not None:
        rule, c = found
        name = chains[c]
        if rule == 0:
            raise DataValidationError(f"chain name {name!r} must be one non-empty line "
                                      f"with no leading or trailing whitespace")
        if rule == 1:
            i = int(gap.argmax())  # no chain before this one has a gap
            raise DataValidationError(f"{name}: years must be strictly ascending and "
                                      f"contiguous ({int(year[i])} followed by {int(year[i + 1])})")
        if rule == 2:
            raise DataValidationError(f"{name}: more than one fail=1 record")
        raise DataValidationError(f"{name} {int(year[fail & (chain == c)][0])}: "
                                  f"fail=1 must be the chain's final year")

    # IEEE division: the same bits as Python's float division. Revenue is
    # positive, so overflow is the only way to a non-finite ratio.
    ratios = table[[_ROW[c] for c in _RATIO_NUMERATORS]]  # a copy, divided in place
    with np.errstate(over="ignore"):
        ratios /= table[_ROW["revenue"]]
    found = _first_violation(~np.isfinite(ratios))
    if found is not None:
        ratio, row = found
        raise row_error(row, f"{RATIO_COLUMNS[ratio]} is not finite")
    ratios.flags.writeable = False
    return chains, ratios


_INTEGER_COLUMNS = ("year", "fail", "pandemic")
_INTEGER_ROWS = [_ROW[c] for c in _INTEGER_COLUMNS]


def _parse_number(text: str, column: str, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataParseError(
            f"line {line_no}: non-numeric value {text!r} in column {column!r}"
        ) from None
    if column in _INTEGER_COLUMNS and not value.is_integer():
        raise DataParseError(f"line {line_no}: column {column!r} must be an integer, got {text!r}")
    return value


def _raise_first_bad_line(lines: list[tuple[int, list[str]]]) -> None:
    """Raise :class:`DataParseError` for the first bad line in file order
    and, within it, its first bad column."""
    for line_no, row in lines:
        if len(row) != len(CSV_HEADER):
            raise DataParseError(
                f"line {line_no}: expected {len(CSV_HEADER)} fields, got {len(row)}"
            )
        if not row[0].strip():
            raise DataParseError(f"line {line_no}: empty chain name")
        for column, text in zip(NUMERIC_COLUMNS, row[1:]):
            _parse_number(text, column, line_no)
    raise AssertionError("the bulk conversion failed on lines that each parse")


def parse_dataset(csv_text: str, ratio_precision: str = "full") -> Dataset:
    """Parse and validate the canonical CSV schema into a :class:`Dataset`.

    Raises :class:`DataParseError` for malformed input (with the offending
    line number) and :class:`DataValidationError` for invariant violations
    (naming the chain and year).
    """
    return Dataset(*_csv_table(csv_text), ratio_precision)


#: Non-empty rows converted at a time: a parse holds one block's fields as
#: strings, never every row's.
_BLOCK_ROWS = 256


def _csv_table(csv_text: str) -> tuple[list[str], np.ndarray]:
    """(chain of each row, the numeric fields as a 12 x n float array), read
    in blocks of :data:`_BLOCK_ROWS` rows; the first fault in file order is
    raised."""
    # Line endings reach the reader as they are, as the csv module expects,
    # so a lone CR ends a line too.
    reader = csv.reader(io.StringIO(csv_text, newline=""))
    try:
        header = next(reader, None)
    except csv.Error as exc:  # such as a field over the module's size limit
        raise DataParseError(f"line {reader.line_num}: {exc}") from None
    if header is None:
        raise DataParseError("empty input: missing header")
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise DataParseError(
            f"unexpected header {header!r}; expected {','.join(CSV_HEADER)}"
        )
    chains, blocks, lines = [], [], []
    try:
        for line_no, row in enumerate(reader, start=2):
            if row:
                lines.append((line_no, row))
                if len(lines) == _BLOCK_ROWS:
                    blocks.append(_convert_block(lines, chains))
                    lines = []
    except csv.Error as exc:
        _convert_block(lines, chains)  # a bad line before the reader's fault comes first
        raise DataParseError(f"line {reader.line_num}: {exc}") from None
    blocks.append(_convert_block(lines, chains))
    return chains, np.concatenate(blocks, axis=1)


def _convert_block(lines: list[tuple[int, list[str]]], chains: list[str]) -> np.ndarray:
    """One block's numeric fields as a 12 x len(lines) float array, converted
    by column; its chain names are appended to ``chains``."""
    rows = [row for _, row in lines]
    # numpy converts each field with Python's float(), as _parse_number does.
    try:
        if set(map(len, rows)) - {len(CSV_HEADER)}:
            raise ValueError("a line of the wrong arity")
        chain, *fields = zip(*rows) if rows else [()] * len(CSV_HEADER)
        names = list(map(str.strip, chain))
        block = np.array(fields, dtype=float)
        whole = block[_INTEGER_ROWS]
        parsed = all(names) and np.all(np.isfinite(whole) & (whole == np.trunc(whole)))
    except ValueError:
        parsed = False
    if not parsed:
        _raise_first_bad_line(lines)
    chains += names
    return block


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def dataset_to_csv(dataset: Dataset) -> str:
    """Serialize to the canonical CSV schema; exact round-trip through parse."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(
        [chain, *map(_format_number, row)]
        for chain, row in zip(dataset.column("chain"), dataset._table.T.tolist())
    )
    return out.getvalue()


@dataclass(frozen=True)
class DesignMatrix:
    """Response vector plus intercept-led predictor matrix with column labels."""

    y: np.ndarray
    X: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.y.ndim != 1 or self.X.ndim != 2 or self.X.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"inconsistent shapes: y {self.y.shape}, X {self.X.shape}"
            )
        if self.X.shape[1] != len(self.labels):
            raise ValueError("one label required per design column")
        if not (np.isfinite(self.X).all() and np.isfinite(self.y).all()):
            raise ValueError("design matrix has non-finite entries")
        if not ((self.y == 0.0) | (self.y == 1.0)).all():
            raise ValueError("response must be binary 0/1")
        if self.p == 0 or not (self.X[:, 0] == 1.0).all():
            raise ValueError("first design column must be the intercept (all ones)")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


def design_matrix(dataset: Dataset, predictors: list[str] | tuple[str, ...]) -> DesignMatrix:
    """Build ``fail ~ intercept + predictors`` in the requested column order."""
    unknown = [p for p in predictors if p not in PREDICTOR_COLUMNS]
    if unknown:
        raise KeyError(
            f"unknown predictor(s) {', '.join(map(repr, unknown))}; "
            f"valid names: {', '.join(PREDICTOR_COLUMNS)}"
        )
    X = np.empty((dataset.n, 1 + len(predictors)))
    X[:, 0] = 1.0
    for j, name in enumerate(predictors, 1):
        X[:, j] = dataset.column(name)
    return DesignMatrix(y=dataset.column("fail"), X=X, labels=("intercept", *predictors))


#: The study's 32 chain-year observations (four U.S. retail chains, 2013-2022),
#: transcribed from the published data table. Raw columns only; ratios are
#: always recomputed.
EMBEDDED_CSV = """\
chain,year,fail,revenue,cost_of_revenue,sga,ebitda,stores,us_interest_rate,us_inflation_rate,long_term_debt,pandemic,acsi
Bed Bath & Beyond,2015,0,12104,7484,3205,1689,1513,2.1,0.12,1500,0,75
Bed Bath & Beyond,2016,0,12216,7639,3441,1426,1530,1.8,1.26,1492,0,79
Bed Bath & Beyond,2017,0,12349,7906,3682,1074,1546,2.3,2.13,1492,0,76
Bed Bath & Beyond,2018,0,12029,7925,3681,251.69,1552,2.9,2.44,1488,0,79
Bed Bath & Beyond,2019,0,11159,7617,3732,-357.55,1533,2.1,1.81,1488,0,80
Bed Bath & Beyond,2020,0,9233,6115,3224,81.06,1500,0.9,1.23,1488,1,79
Bed Bath & Beyond,2021,0,7868,5384,2692,-114.33,1020,1.5,4.7,1190,1,80
Bed Bath & Beyond,2022,1,5345,4130,2373,-2992.29,953,3,8,1180,1,78
Rite Aid,2013,0,25526,18203,6561,1079,4570,2.4,1.62,5708,0,74
Rite Aid,2014,0,26528,18952,6696,1241,4623,2.5,1.46,5459,0,78
Rite Aid,2015,0,20770,15778,4581,762.24,4561,2.1,0.12,6967,0,69
Rite Aid,2016,0,22928,17863,4777,655.92,4536,1.8,1.26,3273,0,78
Rite Aid,2017,0,21529,16749,4651,1838,2550,2.3,2.13,3371,0,77
Rite Aid,2018,0,21640,16963,4592,240.87,2469,2.9,2.44,3479,0,76
Rite Aid,2019,0,21928,17202,4587,493.37,2461,2.1,1.81,5807,0,75
Rite Aid,2020,0,24043,19339,4657,417.45,2510,0.9,1.23,5909,1,72
Rite Aid,2021,0,24568,19462,5034,-54.97,2450,1.5,4.7,5345,1,71
Rite Aid,2022,1,24092,19288,4902,-255.42,2450,3,8,5311,1,80
Sears Holdings,2013,0,36188,27433,9384,-487,2429,2.4,1.62,2531,0,77
Sears Holdings,2014,0,31198,24049,8220,-718,1725,2.5,1.46,2878,0,73
Sears Holdings,2015,0,25146,19336,6857,-836,1672,2.1,0.12,1971,0,71
Sears Holdings,2016,0,22138,15184,6109,-808,1430,1.8,1.26,3470,0,77
Sears Holdings,2017,0,16702,11349,5139,-562,1002,2.3,2.13,2199,0,73
Sears Holdings,2018,1,6709,5899,2626,-571,332,2.9,2.44,2239,0,73
J.C. Penney,2013,0,11859,8367,4114,-819,1094,2.4,1.62,4839,0,79
J.C. Penney,2014,0,12257,7996,3993,323,1062,2.5,1.46,5227,0,77
J.C. Penney,2015,0,12625,8074,3775,654,1021,2.1,0.12,4668,0,74
J.C. Penney,2016,0,12547,8071,3538,926,1013,1.8,1.26,4339,0,82
J.C. Penney,2017,0,12554,8208,3845,935,872,2.3,2.13,3780,0,79
J.C. Penney,2018,0,11664,7870,3596,568,864,2.9,2.44,3716,0,77
J.C. Penney,2019,0,10716,7013,3585,583,849,2.1,1.81,3826,0,78
J.C. Penney,2020,1,1196,813,572,-546,846,0.9,1.23,3574,1,76
"""


@functools.cache
def embedded_dataset(ratio_precision: str = "full") -> Dataset:
    """The built-in 32-row chain-year dataset: one Dataset per ratio
    precision, parsed on first use and shared by every caller, as a Dataset
    never changes after its constructor."""
    return parse_dataset(EMBEDDED_CSV, ratio_precision=ratio_precision)
