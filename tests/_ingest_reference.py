"""The per-record CSV parser and validator that ``retailrisk.dataset`` used
before it parsed and validated straight into columns, kept as the reference
for its error classes and messages and for the values it yields: one
record per row, with revenue ratios derived record by record."""

import csv
import io
import math
from dataclasses import dataclass

from retailrisk.dataset import (
    CSV_HEADER,
    RATIO_PRECISIONS,
    YEAR_RANGE,
    DataParseError,
    DataValidationError,
)


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


@dataclass(frozen=True)
class DerivedRatios:
    """Revenue ratios of one record; each is raw field / revenue."""

    sga_over_rev: float
    cor_over_rev: float
    ebitda_over_rev: float
    ltd_over_rev: float


def derive_ratios(record, precision="full"):
    """Revenue ratios for one record; ``precision="printed"`` rounds each
    to two decimals."""
    if record.revenue <= 0:
        raise DataValidationError(
            f"{record.chain} {record.year}: revenue must be positive to form ratios"
        )
    if precision not in RATIO_PRECISIONS:
        raise ValueError(f"unknown ratio precision {precision!r}; use one of {RATIO_PRECISIONS}")
    values = (record.sga, record.cost_of_revenue, record.ebitda, record.long_term_debt)
    values = [v / record.revenue for v in values]
    if precision == "printed":
        values = [round(v, 2) for v in values]
    return DerivedRatios(*values)


_INTEGER_COLUMNS = ("year", "fail", "pandemic")


def validate_records(records):
    """Check every invariant, record by record; returns the chains in
    first-occurrence order."""
    if len(records) == 0:
        raise DataValidationError("empty dataset")
    by_chain = {}
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

    for rec in records:
        ratios = derive_ratios(rec)
        for name in DerivedRatios.__dataclass_fields__:
            if not math.isfinite(getattr(ratios, name)):
                raise DataValidationError(f"{rec.chain} {rec.year}: {name} is not finite")
    return tuple(by_chain)


def _parse_number(text, column, line_no):
    try:
        value = float(text)
    except ValueError:
        raise DataParseError(
            f"line {line_no}: non-numeric value {text!r} in column {column!r}"
        ) from None
    if column in _INTEGER_COLUMNS and not value.is_integer():
        raise DataParseError(f"line {line_no}: column {column!r} must be an integer, got {text!r}")
    return value


def read_records(csv_text):
    """Parse the canonical CSV schema into a tuple of records, unvalidated."""
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
        year, fail, *amounts, pandemic, acsi = (
            _parse_number(text, column, line_no) for column, text in zip(CSV_HEADER[1:], row[1:])
        )
        records.append(
            FirmYearRecord(chain, int(year), int(fail), *amounts, int(pandemic), acsi)
        )
    return tuple(records)


def parse_records(csv_text):
    """Parse and validate the canonical CSV schema into a tuple of records."""
    records = read_records(csv_text)
    validate_records(records)
    return records
