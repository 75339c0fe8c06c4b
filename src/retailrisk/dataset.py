"""Firm-year dataset: CSV parsing, validation, revenue ratios, design matrices.

The canonical CSV schema carries one row per chain-year with raw financials in
millions of USD plus macro indicators:

    chain,year,fail,revenue,cost_of_revenue,sga,ebitda,stores,
    us_interest_rate,us_inflation_rate,long_term_debt,pandemic,acsi

Revenue ratios (SGA/revenue, cost of revenue/revenue, EBITDA/revenue,
long-term debt/revenue) are always recomputed from the raw columns, never
read from a file. ``ratio_precision="printed"`` rounds them to two decimals,
matching how such ratios are typically published, and exists so that results
derived from rounded ratios can be reproduced exactly.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from operator import attrgetter

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

RAW_COLUMNS = (
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

RATIO_COLUMNS = ("sga_over_rev", "cor_over_rev", "ebitda_over_rev", "ltd_over_rev")

#: Raw column divided by revenue to form each ratio column.
_RATIO_NUMERATORS = dict(
    zip(RATIO_COLUMNS, ("sga", "cost_of_revenue", "ebitda", "long_term_debt"))
)

#: Names accepted by :func:`design_matrix` and :meth:`Dataset.column`.
PREDICTOR_COLUMNS = ("year",) + RAW_COLUMNS + RATIO_COLUMNS

RATIO_PRECISIONS = ("full", "printed")

YEAR_RANGE = (1990, 2100)


class DataParseError(RetailRiskError):
    """Malformed CSV input (bad header, wrong arity, non-numeric field)."""


class DataValidationError(RetailRiskError):
    """Structurally valid input that violates a dataset invariant."""


@dataclass(frozen=True)
class DerivedRatios:
    """Revenue ratios of one record; each is raw field / revenue."""

    sga_over_rev: float
    cor_over_rev: float
    ebitda_over_rev: float
    ltd_over_rev: float


@dataclass(frozen=True)
class FirmYearRecord:
    """One chain-year observation (raw values only; ratios are derived)."""

    chain: str
    year: int
    fail: int
    revenue: float
    cost_of_revenue: float
    sga: float
    ebitda: float
    stores: float
    us_interest_rate: float
    us_inflation_rate: float
    long_term_debt: float
    pandemic: int
    acsi: float


def derive_ratios(record: FirmYearRecord, precision: str = "full") -> DerivedRatios:
    """Revenue ratios for one record.

    ``precision="printed"`` rounds each ratio to two decimals; the default
    keeps full floating-point precision.
    """
    if record.revenue <= 0:
        raise DataValidationError(
            f"{record.chain} {record.year}: revenue must be positive to form ratios"
        )
    if precision not in RATIO_PRECISIONS:
        raise ValueError(f"unknown ratio precision {precision!r}; use one of {RATIO_PRECISIONS}")
    values = [getattr(record, _RATIO_NUMERATORS[name]) / record.revenue for name in RATIO_COLUMNS]
    if precision == "printed":
        values = [round(v, 2) for v in values]
    return DerivedRatios(*values)


@dataclass(frozen=True)
class Dataset:
    """Validated, immutable collection of firm-year records.

    Chains appear in first-occurrence order; within a chain, years are
    strictly ascending and contiguous, and a ``fail=1`` record (if any) is
    unique and last.
    """

    records: tuple[FirmYearRecord, ...]
    ratio_precision: str = "full"
    chains: tuple[str, ...] = field(init=False)
    _by_chain: dict = field(init=False, repr=False, compare=False)
    _columns: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_chain = _validate_records(self.records)
        if self.ratio_precision not in RATIO_PRECISIONS:
            raise ValueError(
                f"unknown ratio precision {self.ratio_precision!r}; use one of {RATIO_PRECISIONS}"
            )
        object.__setattr__(self, "chains", tuple(by_chain))
        object.__setattr__(self, "_by_chain", {c: tuple(r) for c, r in by_chain.items()})
        object.__setattr__(self, "_columns", {})

    @property
    def n(self) -> int:
        return len(self.records)

    def with_ratio_precision(self, precision: str) -> "Dataset":
        return Dataset(self.records, ratio_precision=precision)

    def chain_records(self, chain: str) -> tuple[FirmYearRecord, ...]:
        recs = self._by_chain.get(chain)
        if recs is None:
            raise KeyError(f"unknown chain {chain!r}; known: {', '.join(self.chains)}")
        return recs

    def column(self, name: str) -> np.ndarray:
        """Numeric column by name; ratio columns honor ``ratio_precision``.

        Each column is built once per dataset and returned as the same
        read-only array on every call.
        """
        values = self._columns.get(name)
        if values is None:
            values = self._build_column(name)
            values.flags.writeable = False
            self._columns[name] = values
        return values

    def _build_column(self, name: str) -> np.ndarray:
        if name in RATIO_COLUMNS:
            # The same Python-float arithmetic as derive_ratios, so that
            # each ratio is bit-identical to the per-record one.
            numerator = _RATIO_NUMERATORS[name]
            values = [getattr(r, numerator) / r.revenue for r in self.records]
            if self.ratio_precision == "printed":
                values = [round(v, 2) for v in values]
            return np.array(values)
        if name == "fail" or name in PREDICTOR_COLUMNS:
            return np.fromiter(map(attrgetter(name), self.records), float, self.n)
        raise KeyError(
            f"unknown column {name!r}; known: fail, {', '.join(PREDICTOR_COLUMNS)}"
        )


def _validate_records(records: tuple[FirmYearRecord, ...]) -> dict[str, list[FirmYearRecord]]:
    """Check every invariant; returns the records grouped by chain, in
    first-occurrence order."""
    if len(records) == 0:
        raise DataValidationError("empty dataset")
    by_chain: dict[str, list[FirmYearRecord]] = {}
    for rec in records:
        where = f"{rec.chain} {rec.year}"
        if rec.fail not in (0, 1):
            raise DataValidationError(f"{where}: fail must be 0 or 1, got {rec.fail}")
        if rec.pandemic not in (0, 1):
            raise DataValidationError(f"{where}: pandemic must be 0 or 1, got {rec.pandemic}")
        if not YEAR_RANGE[0] <= rec.year <= YEAR_RANGE[1]:
            raise DataValidationError(f"{where}: year outside plausible range {YEAR_RANGE}")
        if rec.revenue <= 0:
            raise DataValidationError(f"{where}: revenue must be > 0, got {rec.revenue}")
        if rec.stores <= 0:
            raise DataValidationError(f"{where}: stores must be > 0, got {rec.stores}")
        if rec.cost_of_revenue < 0:
            raise DataValidationError(f"{where}: cost_of_revenue must be >= 0")
        if rec.sga < 0:
            raise DataValidationError(f"{where}: sga must be >= 0")
        if rec.long_term_debt < 0:
            raise DataValidationError(f"{where}: long_term_debt must be >= 0")
        if not 0 <= rec.acsi <= 100:
            raise DataValidationError(f"{where}: acsi must be in [0, 100], got {rec.acsi}")
        for name in ("revenue", "cost_of_revenue", "sga", "ebitda", "stores",
                     "us_interest_rate", "us_inflation_rate", "long_term_debt", "acsi"):
            if not math.isfinite(getattr(rec, name)):
                raise DataValidationError(f"{where}: {name} is not finite")
        by_chain.setdefault(rec.chain, []).append(rec)

    for chain, recs in by_chain.items():
        for prev, cur in zip(recs, recs[1:]):
            if cur.year != prev.year + 1:
                raise DataValidationError(
                    f"{chain}: years must be strictly ascending and contiguous "
                    f"({prev.year} followed by {cur.year})"
                )
        failures = [r for r in recs if r.fail == 1]
        if len(failures) > 1:
            raise DataValidationError(f"{chain}: more than one fail=1 record")
        if failures and failures[0].year != recs[-1].year:
            raise DataValidationError(
                f"{chain} {failures[0].year}: fail=1 must be the chain's final year"
            )
    return by_chain


_INTEGER_COLUMNS = ("year", "fail", "pandemic")
_INTEGER_POSITIONS = tuple(CSV_HEADER.index(c) - 1 for c in _INTEGER_COLUMNS)


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


def _parse_fields(row: list[str], line_no: int) -> list[float]:
    """The numeric fields of a row (every column after the chain name)."""
    try:
        values = list(map(float, row[1:]))
        if all(values[i].is_integer() for i in _INTEGER_POSITIONS):
            return values
    except ValueError:
        pass
    # Some field is bad: this loop raises for the first one in column order.
    for column, text in zip(CSV_HEADER[1:], row[1:]):
        _parse_number(text, column, line_no)


def parse_dataset(csv_text: str, ratio_precision: str = "full") -> Dataset:
    """Parse and validate the canonical CSV schema into a :class:`Dataset`.

    Raises :class:`DataParseError` for malformed input (with the offending
    line number) and :class:`DataValidationError` for invariant violations
    (naming the chain and year).
    """
    reader = csv.reader(io.StringIO(csv_text))
    try:
        header = next(reader)
    except StopIteration:
        raise DataParseError("empty input: missing header") from None
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise DataParseError(
            f"unexpected header {header!r}; expected {','.join(CSV_HEADER)}"
        )
    records = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise DataParseError(
                f"line {line_no}: expected {len(CSV_HEADER)} fields, got {len(row)}"
            )
        chain = row[0].strip()
        if not chain:
            raise DataParseError(f"line {line_no}: empty chain name")
        year, fail, *amounts, pandemic, acsi = _parse_fields(row, line_no)
        records.append(
            FirmYearRecord(chain, int(year), int(fail), *amounts, int(pandemic), acsi)
        )
    return Dataset(tuple(records), ratio_precision=ratio_precision)


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def dataset_to_csv(dataset: Dataset) -> str:
    """Serialize to the canonical CSV schema; exact round-trip through parse."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in dataset.records:
        writer.writerow(
            [
                r.chain,
                r.year,
                r.fail,
                _format_number(r.revenue),
                _format_number(r.cost_of_revenue),
                _format_number(r.sga),
                _format_number(r.ebitda),
                _format_number(r.stores),
                _format_number(r.us_interest_rate),
                _format_number(r.us_inflation_rate),
                _format_number(r.long_term_debt),
                r.pandemic,
                _format_number(r.acsi),
            ]
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
        if not np.all(np.isfinite(self.X)) or not np.all(np.isfinite(self.y)):
            raise ValueError("design matrix has non-finite entries")
        if not np.all((self.y == 0.0) | (self.y == 1.0)):
            raise ValueError("response must be binary 0/1")
        if not np.all(self.X[:, 0] == 1.0):
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
    y = dataset.column("fail")
    columns = [np.ones(dataset.n)]
    columns.extend(dataset.column(name) for name in predictors)
    return DesignMatrix(
        y=y, X=np.column_stack(columns), labels=("intercept", *predictors)
    )


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


def embedded_dataset(ratio_precision: str = "full") -> Dataset:
    """The built-in 32-row chain-year dataset."""
    return parse_dataset(EMBEDDED_CSV, ratio_precision=ratio_precision)
