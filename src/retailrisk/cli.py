"""Command-line interface: one subcommand per analysis artifact.

Exit codes: 0 on success, 1 on any :class:`RetailRiskError` (bad or
degenerate data) and on file errors, 2 on usage errors. Reports go to stdout
(or ``--out``) in markdown, CSV, or JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import sys

from .dataset import (
    DataParseError,
    DataValidationError,
    Dataset,
    dataset_to_csv,
    embedded_dataset,
    parse_dataset,
)
from .errors import RetailRiskError
from .pipeline import (
    REFERENCE_MODEL_COEFFICIENTS,
    SCREEN_GROUPS,
    PredictionTable,
    fit_final_model,
    run_screen,
    table_from_coefficients,
)
from .report import (
    FORMATS,
    ROUNDING,
    ReportDocument,
    Section,
    _fit_health_note,
    correlation_section,
    describe_section,
    document_meta,
    drift_section,
    final_model_section,
    fmt_number,
    probability_section,
    render,
    screen_section,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 2 instead of argparse's sys.exit
        raise _UsageError(message)


# One parser per process: parse_args leaves it as it found it.
@functools.cache
def build_parser() -> _Parser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--data", metavar="PATH",
                        help="CSV dataset in the canonical schema (default: embedded data)")
    shared.add_argument("--format", choices=FORMATS, default="markdown",
                        help="output format (default: markdown)")
    shared.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")
    shared.add_argument("--ratios", choices=("full", "printed"), default="full",
                        help="revenue-ratio precision: full floating point or "
                             "rounded to two decimals (default: full)")

    coef = argparse.ArgumentParser(add_help=False)
    coef.add_argument("--coef", choices=("fitted", "rounded"), default="fitted",
                      help="use fitted coefficients or the published rounded "
                           "ones (embedded data only; default: fitted)")

    parser = _Parser(prog="retailrisk",
                     description="Retail chain failure statistics and prediction")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")
    commands.required = True

    commands.add_parser("export-data", parents=[shared],
                        help="emit the dataset as canonical CSV")
    commands.add_parser("describe", parents=[shared],
                        help="means, standard deviations, Shapiro-Wilk tests")
    commands.add_parser("correlate", parents=[shared],
                        help="full Pearson correlation matrix")
    fit = commands.add_parser("fit", parents=[shared],
                              help="univariate logistic screen for one factor group")
    fit.add_argument("--group", choices=tuple(SCREEN_GROUPS), required=True)
    commands.add_parser("fit-final", parents=[shared],
                        help="penalized-likelihood failure prediction model")
    predict = commands.add_parser("predict", parents=[shared, coef],
                                  help="failure probability grid or a single chain-year cell")
    predict.add_argument("--chain", help="chain name (with --year: a single cell)")
    predict.add_argument("--year", type=int, help="calendar year (with --chain)")
    commands.add_parser("report", parents=[shared, coef],
                        help="all sections in one document")
    return parser


def _load_dataset(args) -> Dataset:
    if args.data is None:
        return embedded_dataset(args.ratios)
    # One read() decodes the whole file, so a bad byte's offset is the file's.
    with open(args.data, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise DataParseError(f"{args.data}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}"
                                 f" at offset {exc.start})") from None
    # Drop the byte-order mark that spreadsheet "CSV UTF-8" writes.
    return parse_dataset(text.removeprefix("\ufeff"), ratio_precision=args.ratios)


def _check_usage(args) -> None:
    """The option rules argparse cannot state, checked before any data is read."""
    if getattr(args, "coef", None) == "rounded" and args.data is not None:
        raise _UsageError("--coef rounded applies to the embedded dataset only")
    if (getattr(args, "chain", None) is None) != (getattr(args, "year", None) is None):
        raise _UsageError("--chain and --year must be given together")


def _final_coefficients(args, dataset: Dataset, fit=None):
    """Coefficients for the probability grid, reusing ``fit`` when given,
    and the fit's note when its estimates are not reliable (else None)."""
    if args.coef == "rounded":
        return REFERENCE_MODEL_COEFFICIENTS, None
    if fit is None:
        fit = fit_final_model(dataset)
    return tuple(fit.beta.tolist()), _fit_health_note("Failure model", fit)


def _grid_sections(table: PredictionTable, note: str | None) -> list[Section]:
    """The probability grid, led by the fit's ``note`` when there is one,
    then its drift when it holds a published cell."""
    grid = probability_section(table)
    if note:
        grid = dataclasses.replace(grid, notes=(note, *grid.notes))
    drift = drift_section(table)
    return [grid] + ([drift] if drift.rows else [])


def _cell_section(table: PredictionTable, chain: str, year: int, note: str | None) -> Section:
    """Cell (chain, year) of the grid, with the fit's ``note`` when there is
    one; a marker cell is an error naming the years the chain has
    probabilities for."""
    if chain not in table.probabilities:
        raise DataValidationError(f"unknown chain {chain!r}; known: {', '.join(table.chains)}")
    prob = table.probabilities[chain].get(year)
    if prob is None:
        observed = list(table.probabilities[chain])
        raise DataValidationError(
            f"{chain}: no observation for year {year} (observed {observed[0]}-{observed[-1]})"
        )
    text = fmt_number(prob, ROUNDING["probability"])
    return Section(title="Failure probability", columns=("Chain", "Year", "Probability"),
                   rows=((chain, str(year), text),), notes=(note,) if note else ())


def _sections_for(args, dataset: Dataset) -> list[Section]:
    command = args.command
    if command == "describe":
        return [describe_section(dataset)]
    if command == "correlate":
        return [correlation_section(dataset)]
    if command == "fit":
        return [screen_section(run_screen(dataset, args.group))]
    if command == "fit-final":
        return [final_model_section(fit_final_model(dataset), dataset.n)]
    if command == "predict":
        coefficients, note = _final_coefficients(args, dataset)
        table = table_from_coefficients(coefficients, dataset)
        if args.chain is None:
            return _grid_sections(table, note)
        return [_cell_section(table, args.chain, args.year, note)]
    # report: the sections are built in order, so the first error is the first section's.
    sections = [describe_section(dataset), correlation_section(dataset)]
    sections += [screen_section(run_screen(dataset, group)) for group in SCREEN_GROUPS]
    fit = fit_final_model(dataset)
    coefficients, note = _final_coefficients(args, dataset, fit)
    table = table_from_coefficients(coefficients, dataset)
    return [*sections, final_model_section(fit, dataset.n), *_grid_sections(table, note)]


def _emit(text: str, args, stdout) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        stdout.write(text)


def run_command(argv, stdout=None, stderr=None) -> int:
    """Execute one CLI invocation; returns the process exit status."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        # argparse prints --help to sys.stdout.
        with contextlib.redirect_stdout(stdout):
            args = parser.parse_args(argv)
        _check_usage(args)
    except _UsageError as exc:
        stderr.write(f"error: {exc}\n")
        stderr.write(parser.format_usage())
        return 2
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    try:
        dataset = _load_dataset(args)
        if args.command == "export-data":
            _emit(dataset_to_csv(dataset), args, stdout)
            return 0
        sections = _sections_for(args, dataset)
        document = ReportDocument(
            sections=tuple(sections), format=args.format, meta=document_meta(dataset)
        )
        _emit(render(document), args, stdout)
        return 0
    except (RetailRiskError, OSError) as exc:
        stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
