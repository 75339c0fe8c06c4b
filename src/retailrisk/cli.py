"""Command-line interface: one subcommand per analysis artifact.

Exit codes: 0 on success, 1 on any :class:`RetailRiskError` (bad or
degenerate data) and on file errors, 2 on usage errors. Reports go to stdout
(or ``--out``) in markdown, CSV, or JSON.
"""

from __future__ import annotations

import argparse
import sys

from .dataset import (
    DataValidationError,
    Dataset,
    dataset_to_csv,
    embedded_dataset,
    parse_dataset,
)
from .errors import RetailRiskError
from .pipeline import (
    CELL_PROBABILITY,
    REFERENCE_MODEL_COEFFICIENTS,
    SCREEN_GROUPS,
    PredictionTable,
    fit_final_model,
    run_screen,
    table_from_coefficients,
)
from .report import (
    FORMATS,
    ReportDocument,
    Section,
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
        return embedded_dataset(ratio_precision=args.ratios)
    with open(args.data, "r", encoding="utf-8") as handle:
        return parse_dataset(handle.read(), ratio_precision=args.ratios)


def _final_coefficients(args, dataset: Dataset, fit=None):
    """Coefficients for the probability grid; reuses ``fit`` when given."""
    if args.coef == "rounded":
        if args.data is not None:
            raise _UsageError("--coef rounded applies to the embedded dataset only")
        return REFERENCE_MODEL_COEFFICIENTS
    if fit is None:
        fit = fit_final_model(dataset)
    return tuple(fit.beta.tolist())


def _grid_sections(table: PredictionTable) -> list[Section]:
    """The probability grid, then its drift when it holds a published cell."""
    drift = drift_section(table)
    return [probability_section(table)] + ([drift] if drift.rows else [])


def _cell_section(table: PredictionTable, chain: str, year: int) -> Section:
    """Cell (chain, year) of the grid; a marker cell is an error naming the
    years the chain has probabilities for."""
    if chain not in table.chains:
        raise KeyError(f"unknown chain {chain!r}; known: {', '.join(table.chains)}")
    observed = [y for y in table.years if table.cell(chain, y).kind == CELL_PROBABILITY]
    if year not in observed:
        raise DataValidationError(
            f"{chain}: no observation for year {year} (observed {observed[0]}-{observed[-1]})"
        )
    prob = table.cell(chain, year).probability
    return Section(title="Failure probability", columns=("Chain", "Year", "Probability"),
                   rows=((chain, str(year), fmt_number(prob, 3)),))


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
        if (args.chain is None) != (args.year is None):
            raise _UsageError("--chain and --year must be given together")
        table = table_from_coefficients(_final_coefficients(args, dataset), dataset)
        if args.chain is None:
            return _grid_sections(table)
        return [_cell_section(table, args.chain, args.year)]
    if command == "report":
        sections = [
            describe_section(dataset),
            correlation_section(dataset),
            screen_section(run_screen(dataset, "external")),
            screen_section(run_screen(dataset, "internal")),
            screen_section(run_screen(dataset, "ratios")),
        ]
        fit = fit_final_model(dataset)
        table = table_from_coefficients(_final_coefficients(args, dataset, fit), dataset)
        return [*sections, final_model_section(fit, dataset.n), *_grid_sections(table)]
    raise _UsageError(f"unknown command {command!r}")


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
        args = parser.parse_args(argv)
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
    except _UsageError as exc:
        stderr.write(f"error: {exc}\n")
        return 2
    except (RetailRiskError, OSError) as exc:
        stderr.write(f"error: {exc}\n")
        return 1
    except KeyError as exc:
        stderr.write(f"error: {exc.args[0] if exc.args else exc}\n")
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
