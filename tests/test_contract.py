"""A property-based net over the command line and the dataset constructor.

On any schema-valid panel, every subcommand exits 0 or 1 without raising,
writes nothing to stderr on success and one ``error:`` line otherwise, and
the exported CSV parses back to the same dataset; a report is the runs of
its subcommands joined, and fails with the first of them that fails. A
column, or the five money columns together, times any power of two that
keeps every value normal changes no byte of the fits and the grid but that
column's estimates and standard errors.
Every dataset the constructor accepts gives a design matrix that passes
``DesignMatrix``'s checks, and every matrix the fits factor without the
symmetry scan is one that the validating ``Cholesky(a)`` treats the same.
A screen group's stacked fit, and a report's one stack of every screen,
give every predictor the bits of its own fit, and the whole-table
``describe`` and ``correlation_matrix`` every value the bits of its own
column or pair.
The failure model's closed-form null maximizes l* along the intercept as
well as a bounded scalar optimizer does.
"""

import csv
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from scipy.optimize import minimize_scalar

from retailrisk import linalg
from retailrisk.cli import run_command
from retailrisk.dataset import (
    CSV_HEADER,
    EMBEDDED_CSV,
    NUMERIC_COLUMNS,
    PREDICTOR_COLUMNS,
    RATIO_PRECISIONS,
    YEAR_RANGE,
    DataValidationError,
    Dataset,
    dataset_to_csv,
    design_matrix,
    parse_dataset,
)
from retailrisk.errors import RetailRiskError
from retailrisk.firth import fit_firth
from retailrisk.logistic import _evaluate, fit_logistic, newton
from retailrisk.pipeline import FINAL_MODEL_PREDICTORS, SCREEN_GROUPS, _run_screens, run_screen
from retailrisk.report import COLUMN_LABELS, FORMATS

from _one_series import assert_correlations_keep_each_pair, assert_describe_keeps_each_column

MONEY_COLUMNS = ("revenue", "cost_of_revenue", "sga", "ebitda", "long_term_debt")

CHAIN_NAMES = ("Bed Bath & Beyond", "Rite Aid", "Sears Holdings", "J.C. Penney",
               'Toys "R" Us, Inc.')

#: Each drawn column's values as (low, high) multiples of its magnitude.
#: The money columns share one magnitude, so their ratios stay near 1;
#: ``acsi`` keeps magnitude 1, for its range [0, 100].
MULTIPLES = {
    "revenue": (1.0, 10.0),
    "cost_of_revenue": (0.0, 10.0),
    "sga": (0.0, 10.0),
    "ebitda": (-10.0, 10.0),
    "long_term_debt": (0.0, 10.0),
    "stores": (1.0, 10.0),
    "us_interest_rate": (-10.0, 10.0),
    "us_inflation_rate": (-10.0, 10.0),
    "acsi": (0.0, 100.0),
}

#: A column's magnitude: 1, or a power of ten from 1e-300 to 1e300.
MAGNITUDES = st.one_of(st.just(1.0), st.integers(-300, 300).map(lambda k: 10.0 ** k))


@st.composite
def panels(draw):
    """(chain of each row, values of each numeric column) of a panel with
    one to four chains of one to eight contiguous years, each failing in its
    final year or never. About half the panels are drawn to fit: their first
    chain fails and runs a year for each coefficient of the failure model or
    more, and no column is constant. About half of the others hold one or two
    constant columns. The other drawn columns have distinct values."""
    fittable = draw(st.booleans())
    chains = draw(st.lists(st.sampled_from(CHAIN_NAMES), min_size=1, max_size=4, unique=True))
    row_chains, years, fails = [], [], []
    first_years = len(FINAL_MODEL_PREDICTORS) + 1 if fittable else 1
    for k, chain in enumerate(chains):
        length = draw(st.integers(first_years if k == 0 else 1, 8))
        start = draw(st.integers(YEAR_RANGE[0], YEAR_RANGE[1] - length + 1))
        row_chains += [chain] * length
        years += range(start, start + length)
        fails += [0] * (length - 1) + [int(fittable and k == 0 or draw(st.booleans()))]
    n = len(row_chains)
    pandemic = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    if fittable:
        pandemic = pandemic.filter(lambda flags: 0 < sum(flags) < n)
    columns = {"year": years, "fail": fails, "pandemic": draw(pandemic)}
    magnitudes = {"acsi": 1.0, **dict.fromkeys(MONEY_COLUMNS, draw(MAGNITUDES))}
    constant = set() if fittable else draw(st.one_of(
        st.just(set()), st.sets(st.sampled_from(tuple(MULTIPLES)), min_size=1, max_size=2)))
    for name, (low, high) in MULTIPLES.items():
        magnitude = magnitudes[name] if name in magnitudes else draw(MAGNITUDES)
        values = st.floats(low, high).map(lambda v, m=magnitude: v * m)
        if name in constant:
            columns[name] = [draw(values)] * n
        else:
            columns[name] = draw(st.lists(values, min_size=n, max_size=n, unique=True))
    return row_chains, columns


def _csv(row_chains, columns):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(zip(row_chains, *(columns[name] for name in NUMERIC_COLUMNS)))
    return out.getvalue()


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "panel.csv"


def _cli(data_path, text, *argv):
    """(exit code, stdout, stderr) of one in-process run on ``text``."""
    data_path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    code = run_command([*argv, "--data", str(data_path)], out, err)
    return code, out.getvalue(), err.getvalue()


INVOCATIONS = (
    ("export-data",), ("describe",), ("correlate",),
    *(("fit", "--group", group) for group in SCREEN_GROUPS),
    ("fit-final",), ("predict",), ("report",),
)

_EMBEDDED_ROWS = list(csv.DictReader(io.StringIO(EMBEDDED_CSV)))
#: The embedded data as a drawn panel, on which every subcommand succeeds.
EMBEDDED_PANEL = ([row["chain"] for row in _EMBEDDED_ROWS],
                  {name: [row[name] for row in _EMBEDDED_ROWS] for name in NUMERIC_COLUMNS})

MARKDOWN_HEADER = "# Retail chain failure analysis\n\n"


def _joined(outputs, fmt):
    """The outputs of several runs as the one document of their sections."""
    if fmt == "json":
        documents = [json.loads(out) for out in outputs]
        return dict(documents[0], sections=[s for doc in documents for s in doc["sections"]])
    if fmt == "csv":
        return "\n".join(outputs)
    return MARKDOWN_HEADER + "\n".join(out.removeprefix(MARKDOWN_HEADER) for out in outputs)


@given(panel=panels(), bom=st.booleans(), ratios=st.sampled_from(RATIO_PRECISIONS),
       fmt=st.sampled_from(FORMATS))
@example(panel=EMBEDDED_PANEL, bom=False, ratios="full", fmt="markdown")
@example(panel=EMBEDDED_PANEL, bom=True, ratios="printed", fmt="csv")
@example(panel=EMBEDDED_PANEL, bom=False, ratios="printed", fmt="json")
def test_every_subcommand_keeps_the_error_contract(panel, bom, ratios, fmt, data_path):
    row_chains, columns = panel
    text = _csv(row_chains, columns)
    cell = ("predict", "--chain", row_chains[0], "--year", str(columns["year"][0]))
    results = [
        _cli(data_path, "\ufeff" * bom + text, *argv, "--ratios", ratios, "--format", fmt)
        for argv in (*INVOCATIONS, cell)
    ]
    for code, _, err in results:
        assert code in (0, 1)
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    # A report is its subcommands' runs, in order; it fails with the first
    # of them that fails.
    *parts, (code, report, err) = results[1:len(INVOCATIONS)]
    failed = [part for part in parts if part[0]]
    if code:
        assert err == failed[0][2]
    else:
        assert not failed
        joined = _joined([out for _, out, _ in parts], fmt)
        assert (json.loads(report) if fmt == "json" else report) == joined
    code, exported, _ = results[0]
    if code == 0:
        dataset = parse_dataset(text, ratios)
        assert parse_dataset(exported, ratios) == dataset
        assert dataset_to_csv(parse_dataset(exported)) == exported
    else:  # the data did not load, so nothing ran
        assert all(result == results[0] for result in results)


#: Columns whose unit is free: the five money columns together, so that
#: their ratios keep their bits, and every other unbounded column alone.
UNIT_FREE = (MONEY_COLUMNS, ("stores",), ("us_interest_rate",), ("us_inflation_rate",))


def _without_estimates(result, labels):
    """A JSON run's (exit code, sections, stderr), with the estimate and
    s.e. cells of the ``labels`` columns' failure-model terms and screen
    slopes set to None; a failed run as it is."""
    code, out, err = result
    if code:
        return result
    sections = json.loads(out)["sections"]
    for section in sections:
        for row in section["rows"]:
            if row[0] in labels:
                row[1] = row[2] = None
            if row[0] in ("Slope", "Slope [s.e.]"):
                for j, column in enumerate(section["columns"]):
                    if column in labels:
                        row[j] = None
    return code, sections, err


@given(panel=panels(), names=st.sampled_from(UNIT_FREE), k=st.integers(-1074, 1023),
       ratios=st.sampled_from(RATIO_PRECISIONS))
def test_a_binary_unit_changes_only_its_estimates(panel, names, k, ratios, data_path):
    """Columns x2^k, with k drawn over the float range: every fit runs on
    unit-scaled columns, so ``fit``, ``fit-final`` and ``predict`` print the
    same bytes, apart from the scaled columns' estimates and s.e."""
    row_chains, columns = panel
    scaled = {**columns, **{name: [v * 2.0**k for v in columns[name]] for name in names}}
    before, after = (np.array([side[name] for name in names]) for side in (columns, scaled))
    # Scaling by a power of two is exact for finite normal numbers only, and
    # a value that underflows to 0 is not scaled.
    tiny = np.finfo(float).tiny
    assume(np.all((before == 0) | ((abs(before) >= tiny) & (abs(after) >= tiny)
                                   & np.isfinite(after))))
    labels = [COLUMN_LABELS[name] for name in names]
    for argv in (*(("fit", "--group", group) for group in SCREEN_GROUPS), ("fit-final",),
                 ("predict",)):
        runs = [_cli(data_path, _csv(row_chains, side), *argv, "--ratios", ratios,
                     "--format", "json") for side in (scaled, columns)]
        assert _without_estimates(runs[0], labels) == _without_estimates(runs[1], labels), argv


@given(panel=panels(), names=st.lists(st.text(max_size=6), min_size=4, max_size=4),
       ratios=st.sampled_from(RATIO_PRECISIONS))
def test_what_the_constructor_accepts_round_trips(panel, names, ratios):
    """Any chain names, padded or empty ones included: a dataset that the
    constructor accepts comes back unchanged through the CSV."""
    row_chains, columns = panel
    rename = dict(zip(dict.fromkeys(row_chains), names))
    try:
        dataset = Dataset([rename[chain] for chain in row_chains],
                          [columns[name] for name in NUMERIC_COLUMNS], ratios)
    except DataValidationError:
        return
    assert parse_dataset(dataset_to_csv(dataset), ratios) == dataset


@given(panel=panels())
def test_a_dataset_proves_what_a_design_matrix_checks(panel):
    """In both ratio modes, a dataset the constructor accepts gives a design
    of all predictors that passes ``DesignMatrix``'s checks."""
    row_chains, columns = panel
    table = [columns[name] for name in NUMERIC_COLUMNS]
    try:
        datasets = [Dataset(row_chains, table, ratios) for ratios in RATIO_PRECISIONS]
    except DataValidationError:
        return
    for dataset in datasets:
        design_matrix(dataset, list(PREDICTOR_COLUMNS))


@given(panel=panels(), ratios=st.sampled_from(RATIO_PRECISIONS))
def test_formed_matrices_pass_the_validating_entry(panel, ratios, data_path):
    """Every matrix that ``fit``, ``fit-final`` and ``report`` factor through
    ``Cholesky._of_symmetric``, which skips the shape and symmetry scan, is
    one that ``Cholesky(a)`` factors to the same bits or refuses alike."""
    of_symmetric = linalg.Cholesky._of_symmetric.__func__
    factored = []

    def checked(cls, a):
        try:
            factor = of_symmetric(cls, a)
        except (linalg.NonFiniteMatrixError, linalg.SingularMatrixError) as exc:
            with pytest.raises(type(exc)) as public:
                linalg.Cholesky(a)
            assert str(public.value) == str(exc)
            raise
        # repr round-trips every float, so equal reprs are equal bits.
        assert repr(linalg.Cholesky(a)._rows) == repr(factor._rows)
        factored.append(a.shape)
        return factor

    text = _csv(*panel)
    with mock.patch.object(linalg.Cholesky, "_of_symmetric", classmethod(checked)):
        code = _cli(data_path, text, "fit-final", "--ratios", ratios)[0]
        assert code == 1 or factored
        for argv in (*(("fit", "--group", group) for group in SCREEN_GROUPS), ("report",)):
            assert _cli(data_path, text, *argv, "--ratios", ratios)[0] in (0, 1)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _assert_fits_alone(dataset, screen, names):
    """Every fit of ``screen`` has the bits of ``fit_logistic`` of its own design."""
    assert [name for name, _ in screen.fits] == list(names)
    for name, fit in screen.fits:
        single = fit_logistic(design_matrix(dataset, [name]))
        for field in ("beta", "se", "z", "p_values", "log_lik", "aic"):
            assert _bits(getattr(fit, field)) == _bits(getattr(single, field)), (name, field)
        assert (fit.iterations, fit.converged, fit.separation) == (
            single.iterations, single.converged, single.separation)


def _drawn_dataset(panel, ratios):
    """The panel as a Dataset, or None where the constructor refuses it."""
    row_chains, columns = panel
    try:
        return Dataset(row_chains, [columns[name] for name in NUMERIC_COLUMNS], ratios)
    except DataValidationError:
        return None


@given(panel=panels(), ratios=st.sampled_from(RATIO_PRECISIONS))
def test_screen_stack_fits_each_predictor_as_its_own_fit(panel, ratios):
    """Every fit of ``run_screen``, which runs a group's designs as one
    Newton stack, equals ``fit_logistic`` of its own design bit for bit; a
    group the fits refuse is refused for its first design alike."""
    dataset = _drawn_dataset(panel, ratios)
    if dataset is None:
        return
    for group, names in SCREEN_GROUPS.items():
        try:
            screen = run_screen(dataset, group)
        except RetailRiskError as exc:
            with pytest.raises(type(exc)) as alone:
                fit_logistic(design_matrix(dataset, [names[0]]))
            assert str(exc) == f"{group} screen: {alone.value}"
            continue
        _assert_fits_alone(dataset, screen, names)


@given(panel=panels(), ratios=st.sampled_from(RATIO_PRECISIONS))
def test_one_stack_of_every_screen_fits_each_predictor_as_its_own_fit(panel, ratios):
    """A report runs the designs of all three groups as one Newton stack:
    every predictor still gets the bits of ``fit_logistic`` of its own
    design, and a panel the fits refuse is refused with the text that
    ``run_screen(ds, "external")`` raises."""
    dataset = _drawn_dataset(panel, ratios)
    if dataset is None:
        return
    try:
        screens = _run_screens(dataset, tuple(SCREEN_GROUPS))
    except RetailRiskError as exc:
        with pytest.raises(type(exc)) as alone:
            run_screen(dataset, "external")
        assert str(exc) == str(alone.value)
        return
    assert [screen.group for screen in screens] == list(SCREEN_GROUPS)
    for screen, names in zip(screens, SCREEN_GROUPS.values()):
        _assert_fits_alone(dataset, screen, names)


@given(panel=panels(), ratios=st.sampled_from(RATIO_PRECISIONS))
def test_whole_table_summaries_keep_each_series_bits(panel, ratios):
    """describe() and correlation_matrix() equal mean_std, shapiro_wilk and
    pearson_corr of each column or pair bit for bit, and a refused panel
    names the first column that the one-series functions refuse."""
    dataset = _drawn_dataset(panel, ratios)
    if dataset is None:
        return
    assert_describe_keeps_each_column(dataset)
    assert_correlations_keep_each_pair(dataset)


@given(panel=panels())
def test_closed_form_null_maximizes_the_penalized_likelihood(panel):
    """Wherever the failure model fits, l* with the slopes at zero peaks at
    the intercept logit((sum(y) + p/2) / (n + p)): no bounded scalar search
    along the intercept finds more, the intercept's modified score is zero
    there, and the LR statistic is measured from there."""
    row_chains, columns = panel
    for ratios in RATIO_PRECISIONS:
        try:
            dataset = Dataset(row_chains, [columns[name] for name in NUMERIC_COLUMNS], ratios)
            dm = design_matrix(dataset, list(FINAL_MODEL_PREDICTORS))
            fit = fit_firth(dm)
        except RetailRiskError:
            continue
        n, p = dm.n, dm.p
        # l* on the fit's unit-scaled design, at intercept b0 in raw units: in
        # raw units an extreme column's X'WX can be singular or overflow.
        e = linalg.binary_exponents(dm.X, 0)[0]
        X = np.ldexp(dm.X, -e)

        def pen_ll(b0):
            return _evaluate(X, dm.y, np.array([math.ldexp(b0, int(e[0]))] + [0.0] * (p - 1)),
                             True)

        prob = (float(dm.y.sum()) + 0.5 * p) / (n + p)
        null_ll, *_, score, _, _ = pen_ll(math.log(prob / (1.0 - prob)))
        # The intercept of any mean p in [1/(n+p), 1 - 1/(n+p)].
        edge = math.log(n + p - 1.0)
        found = minimize_scalar(lambda b0: -pen_ll(b0)[0], bounds=(-edge, edge),
                                method="bounded", options={"xatol": 1e-10})
        assert null_ll >= -found.fun - 1e-9 * abs(found.fun), (ratios, null_ll, found)
        assert abs(score[0]) <= 1e-9 * n, ratios
        fit_ll = newton(X, dm.y, penalized=True)[1]
        assert fit.pen_log_lik == fit_ll + math.log(2.0) * int(e.sum()), ratios
        assert fit.lr_stat == max(0.0, 2.0 * (fit_ll - null_ll)), ratios
