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
import gc
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
    _run_screens,
    fit_final_model,
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

    parser = _Parser(prog="retailrisk",
                     description="Retail chain failure statistics and prediction")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")
    commands.required = True
    for name, (help_line, stages, options) in _COMMANDS.items():
        command = commands.add_parser(name, parents=[shared], help=help_line)
        if _probabilities in stages:
            command.add_argument("--coef", choices=("fitted", "rounded"), default="fitted",
                                 help="use fitted coefficients or the published rounded "
                                      "ones (embedded data only; default: fitted)")
        for flag, spec in options.items():
            command.add_argument(flag, **spec)
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


def _describe(args, dataset: Dataset, shared: dict) -> list[Section]:
    return [describe_section(dataset)]


def _correlate(args, dataset: Dataset, shared: dict) -> list[Section]:
    return [correlation_section(dataset)]


def _screens(args, dataset: Dataset, shared: dict) -> list[Section]:
    """The ``--group`` screen, or every group's, from one Newton stack."""
    groups = (args.group,) if "group" in args else tuple(SCREEN_GROUPS)
    return [screen_section(screen) for screen in _run_screens(dataset, groups)]


def _final_model(args, dataset: Dataset, shared: dict) -> list[Section]:
    shared["fit"] = fit = fit_final_model(dataset)
    return [final_model_section(fit, dataset.n)]


def _probabilities(args, dataset: Dataset, shared: dict) -> list[Section]:
    """The grid and its drift (when it holds a published cell), or the one
    ``--chain``/``--year`` cell, led by the note of a fit whose estimates
    are not reliable; the final model's fit is reused when it has run."""
    coefficients, note = REFERENCE_MODEL_COEFFICIENTS, None
    if args.coef == "fitted":
        fit = shared["fit"] if "fit" in shared else fit_final_model(dataset)
        coefficients, note = tuple(fit.beta.tolist()), _fit_health_note("Failure model", fit)
    table = table_from_coefficients(coefficients, dataset)
    if getattr(args, "chain", None) is not None:
        return [_cell_section(table, args.chain, args.year, note)]
    grid = probability_section(table)
    if note:
        grid = dataclasses.replace(grid, notes=(note, *grid.notes))
    drift = drift_section(table)
    return [grid] + ([drift] if drift.rows else [])


#: Each subcommand: its help line, its stages in order and its own options;
#: one that runs the probabilities also takes ``--coef``. A stage maps (args,
#: dataset, shared) to sections, and ``shared`` carries the final model's fit
#: to the probabilities. A report runs every stage, so its first error is its
#: first section's.
_COMMANDS = {
    "export-data": ("emit the dataset as canonical CSV", (), {}),
    "describe": ("means, standard deviations, Shapiro-Wilk tests", (_describe,), {}),
    "correlate": ("full Pearson correlation matrix", (_correlate,), {}),
    "fit": ("univariate logistic screen for one factor group", (_screens,),
            {"--group": dict(choices=tuple(SCREEN_GROUPS), required=True)}),
    "fit-final": ("penalized-likelihood failure prediction model", (_final_model,), {}),
    "predict": ("failure probability grid or a single chain-year cell", (_probabilities,),
                {"--chain": dict(help="chain name (with --year: a single cell)"),
                 "--year": dict(type=int, help="calendar year (with --chain)")}),
    "report": ("all sections in one document",
               (_describe, _correlate, _screens, _final_model, _probabilities), {}),
}


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
        sections, shared = [], {}
        for stage in _COMMANDS[args.command][1]:
            sections += stage(args, dataset, shared)
        document = ReportDocument(sections=tuple(sections), format=args.format,
                                  meta=document_meta(dataset))
        _emit(render(document), args, stdout)
        return 0
    except (RetailRiskError, OSError) as exc:
        stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    """The process entry. It first moves every object built at import into
    the collector's permanent generation, which the collections at exit skip;
    ``run_command``, the in-process entry, leaves the collector alone."""
    gc.freeze()
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
