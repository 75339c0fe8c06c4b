"""Report document model and deterministic renderers (markdown, CSV, JSON).

Rounding happens exactly once, here, when a section is built; the pipeline
itself always works at full precision. Cells are stored as already-formatted
strings so that the three output formats agree character-for-character on
every value and rendering stays byte-deterministic.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

from .dataset import Dataset
from .descriptive import correlation_matrix, describe
from .firth import FirthFit
from .logistic import SEPARATION_NONE, significance_code
from .pipeline import PredictionTable, ScreenReport, probability_drift

SCHEMA_VERSION = 1

#: Decimal places per column class.
ROUNDING = {
    "summary": 4,       # means / standard deviations
    "coefficient": 4,   # estimates and standard errors
    "statistic": 3,     # W, chi-square, AIC, test statistics
    "p_value": 3,       # below 10^-3 rendered as "<0.001"
    "correlation": 2,
    "probability": 3,
}

#: Human-readable names for dataset columns, in report output.
COLUMN_LABELS = {
    "year": "Year",
    "fail": "Fail",
    "revenue": "Revenue (M$)",
    "cost_of_revenue": "Cost of revenue (M$)",
    "sga": "SGA (M$)",
    "ebitda": "EBITDA (M$)",
    "stores": "Stores",
    "us_interest_rate": "US interest rate (%)",
    "us_inflation_rate": "US inflation rate (%)",
    "long_term_debt": "Long-term debt (M$)",
    "pandemic": "Pandemic",
    "acsi": "ACSI score",
    "sga_over_rev": "SGA/Revenue",
    "cor_over_rev": "Cost of revenue/Revenue",
    "ebitda_over_rev": "EBITDA/Revenue",
    "ltd_over_rev": "Long-term debt/Revenue",
}

SIGNIF_LEGEND = "Signif. codes: 0 '***' 0.001 '**' 0.01 '*' 0.05 '.' 0.1 ' ' 1"

SCREEN_TITLES = {
    "external": "external factors",
    "internal": "internal factors",
    "ratios": "internal factors as revenue ratios",
}


def fmt_number(value: float, decimals: int) -> str:
    """Fixed decimals; a non-finite value reads ``NA``, as in :func:`fmt_p`."""
    if not math.isfinite(value):
        return "NA"
    text = f"{value:.{decimals}f}"
    # Avoid "-0.000"-style output when the rounded value is zero.
    if text[0] == "-" and float(text) == 0.0:
        return text[1:]
    return text


def fmt_p(value: float) -> str:
    if not math.isfinite(value):
        return "NA"
    if value < 0.001:
        return "<0.001"
    return fmt_number(value, ROUNDING["p_value"])


@dataclass(frozen=True)
class Section:
    title: str
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class ReportDocument:
    sections: tuple[Section, ...]
    format: str = "markdown"
    meta: dict = field(default_factory=dict)


def describe_section(dataset: Dataset) -> Section:
    rows = []
    for summary in describe(dataset):
        rows.append(
            (
                COLUMN_LABELS[summary.name],
                fmt_number(summary.mean, ROUNDING["summary"]),
                fmt_number(summary.std, ROUNDING["summary"]),
                fmt_number(summary.sw_w, ROUNDING["statistic"]),
                fmt_p(summary.sw_p),
            )
        )
    return Section(
        title="Descriptive statistics",
        columns=("Variable", "Mean", "Std. deviation", "Shapiro-Wilk W", "p-value"),
        rows=tuple(rows),
    )


def correlation_section(dataset: Dataset) -> Section:
    matrix = correlation_matrix(dataset)
    labels = [COLUMN_LABELS.get(name, name) for name in matrix.labels]
    nd = ROUNDING["correlation"]
    rows = [(label, *(fmt_number(r, nd) for r in row))
            for label, row in zip(labels, matrix.r.tolist())]
    return Section(
        title="Correlation matrix",
        columns=("Variable", *labels),
        rows=tuple(rows),
    )


def screen_section(report: ScreenReport) -> Section:
    predictors = [name for name, _ in report.fits]
    fits = [fit for _, fit in report.fits]
    values = [(fit.beta.tolist(), fit.se.tolist(), fit.p_values.tolist()) for fit in fits]

    def across(fn) -> tuple[str, ...]:
        return tuple(fn(*v) for v in values)

    coef_nd = ROUNDING["coefficient"]
    rows = (
        ("Intercept", *across(lambda b, s, p: fmt_number(b[0], coef_nd))),
        ("Intercept (p-value)", *across(lambda b, s, p: fmt_p(p[0]))),
        ("Intercept [s.e.]", *across(lambda b, s, p: fmt_number(s[0], coef_nd))),
        ("Intercept signif.", *across(lambda b, s, p: significance_code(p[0]))),
        ("Slope", *across(lambda b, s, p: fmt_number(b[1], coef_nd))),
        ("Slope (p-value)", *across(lambda b, s, p: fmt_p(p[1]))),
        ("Slope [s.e.]", *across(lambda b, s, p: fmt_number(s[1], coef_nd))),
        ("Slope signif.", *across(lambda b, s, p: significance_code(p[1]))),
        ("AIC", *(fmt_number(fit.aic, ROUNDING["statistic"]) for fit in fits)),
    )
    labels = [COLUMN_LABELS.get(name, name) for name in predictors]
    return Section(
        title=f"Univariate logistic screen: {SCREEN_TITLES.get(report.group, report.group)}",
        columns=("Estimates", *labels),
        rows=rows,
        notes=(*filter(None, map(_fit_health_note, labels, fits)), SIGNIF_LEGEND),
    )


def _fit_health_note(label: str, fit) -> str | None:
    """A note for a fit that did not converge or shows separation (a Firth
    fit has no separation class); None for a healthy fit."""
    problems = []
    if not fit.converged:
        problems.append("not converged")
    if getattr(fit, "separation", SEPARATION_NONE) != SEPARATION_NONE:
        problems.append(f"{fit.separation} separation")
    if not problems:
        return None
    return f"{label}: {', '.join(problems)}; estimates are not reliable"


def final_model_section(fit: FirthFit, n: int) -> Section:
    coef_nd = ROUNDING["coefficient"]
    stat_nd = ROUNDING["statistic"]
    rows = []
    for label, beta, se, chisq, p in zip(fit.labels, fit.beta.tolist(), fit.se.tolist(),
                                         fit.chisq.tolist(), fit.p_values.tolist()):
        display = "Intercept" if label == "intercept" else COLUMN_LABELS.get(label, label)
        rows.append((display, fmt_number(beta, coef_nd), fmt_number(se, coef_nd),
                     fmt_number(chisq, stat_nd), fmt_p(p)))
    notes = (
        f"Likelihood ratio test={fmt_number(fit.lr_stat, stat_nd)} "
        f"on {fit.lr_df} df, p={fmt_p(fit.lr_p)}, n={n}",
        f"Wald test={fmt_number(fit.wald_stat, stat_nd)} "
        f"on {fit.wald_df} df, p={fmt_p(fit.wald_p)}",
        *filter(None, [_fit_health_note("Failure model", fit)]),
        SIGNIF_LEGEND,
    )
    return Section(
        title="Failure prediction model",
        columns=("Term", "Estimate", "Std. Error", "Chi-sq.", "p-value"),
        rows=tuple(rows),
        notes=notes,
    )


#: Text and meaning of the probability grid's two marker cells: 'not
#: available', then 'ceased operations'.
CELL_MARKERS = {"-": "not available", "*": "firm has ceased operations"}


def probability_section(table: PredictionTable) -> Section:
    """The grid, built one chain column at a time from the chain's window:
    'not available' before its first year, its probabilities, then 'ceased
    operations' after a failure year or 'not available' after a last year.
    This is the only place that decides a marker cell."""
    nd = ROUNDING["probability"]
    position = {year: i for i, year in enumerate(table.years)}
    not_available, ceased = CELL_MARKERS
    columns = []
    for chain in table.chains:
        by_year = table.probabilities[chain]
        start = position[next(iter(by_year))]
        after = not_available if table.failure_years[chain] is None else ceased
        columns.append([not_available] * start
                       + [fmt_number(prob, nd) for prob in by_year.values()]
                       + [after] * (len(table.years) - start - len(by_year)))
    return Section(
        title="Failure probability by chain and year",
        columns=("Year", *table.chains),
        rows=tuple((str(year), *row) for year, row in zip(table.years, zip(*columns))),
        notes=tuple(f"'{text}': {meaning}" for text, meaning in CELL_MARKERS.items()),
    )


def drift_section(table: PredictionTable) -> Section:
    nd = ROUNDING["probability"]
    rows = tuple(
        (chain, str(year), fmt_number(computed, nd), fmt_number(published, nd),
         fmt_number(delta, nd))
        for chain, year, computed, published, delta in probability_drift(table)
    )
    return Section(
        title="Failure probability drift vs published estimates",
        columns=("Chain", "Year", "Computed", "Published", "Delta"),
        rows=rows,
        notes=("Published estimates are not exactly reproducible from the "
               "published model's printed precision; deltas are reported "
               "instead of forcing agreement.",),
    )


def _render_markdown(document: ReportDocument) -> str:
    lines = ["# Retail chain failure analysis", ""]
    for section in document.sections:
        lines.append(f"## {section.title}")
        lines.append("")
        lines.append("| " + " | ".join(section.columns) + " |")
        lines.append("| " + " | ".join("---" for _ in section.columns) + " |")
        for row in section.rows:
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
        for note in section.notes:
            lines.append(note)
        if section.notes:
            lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def _render_csv(document: ReportDocument) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for index, section in enumerate(document.sections):
        if index:
            out.write("\n")
        out.write(f"# {section.title}\n")
        writer.writerow(section.columns)
        for row in section.rows:
            writer.writerow(row)
        for note in section.notes:
            out.write(f"# {note}\n")
    return out.getvalue()


def _render_json(document: ReportDocument) -> str:
    import json  # here, so that a markdown or CSV run does not load it

    payload = {
        "schema_version": SCHEMA_VERSION,
        "sections": [
            {
                "title": section.title,
                "columns": list(section.columns),
                "rows": [list(row) for row in section.rows],
                "notes": list(section.notes),
            }
            for section in document.sections
        ],
        "meta": document.meta,
    }
    return json.dumps(payload, indent=2) + "\n"


_RENDERERS = {
    "markdown": _render_markdown,
    "csv": _render_csv,
    "json": _render_json,
}

FORMATS = tuple(_RENDERERS)


def render(document: ReportDocument) -> str:
    """Serialize a document; identical inputs yield byte-identical output."""
    try:
        renderer = _RENDERERS[document.format]
    except KeyError:
        raise ValueError(
            f"unknown format {document.format!r}; valid: {', '.join(_RENDERERS)}"
        ) from None
    return renderer(document)


def document_meta(dataset: Dataset) -> dict:
    return {
        "n": dataset.n,
        "chains": list(dataset.chains),
        "failures": int(dataset.column("fail").sum()),
    }
