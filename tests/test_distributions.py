"""The numpy/stdlib distribution functions against scipy, the reference."""

import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
import scipy.special
import scipy.stats

from retailrisk.distributions import _norm_ppf, chi2_sf, expit, norm_ppf, norm_sf

TOL = 1e-12
EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def assert_close(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(np.isnan(actual), np.isnan(expected))
    assert float(np.max(np.abs(np.nan_to_num(actual - expected)))) <= TOL


def check_scalar_path(fn, grid):
    # The scalar fast path gives the array path's values, as Python floats.
    values = fn(grid)
    for x, v in zip(grid[::97].tolist(), values[::97].tolist()):
        scalar = fn(x)
        assert type(scalar) is float
        assert scalar == pytest.approx(v, abs=TOL, nan_ok=True)


class TestExpit:
    grid = np.linspace(-745.0, 745.0, 200_001)

    def test_matches_scipy(self):
        assert_close(expit(self.grid), scipy.special.expit(self.grid))

    def test_edges(self):
        np.testing.assert_array_equal(expit(EDGES), scipy.special.expit(EDGES))

    def test_tails_saturate(self):
        # Exactly 0 below about -38 (scipy: ~1e-17) and exactly 1 above ~37.
        assert expit(-40.0) == 0.0
        assert expit(40.0) == 1.0 == scipy.special.expit(40.0)


class TestNormSf:
    grid = np.linspace(-8.0, 38.0, 100_001)

    def test_matches_scipy(self):
        assert_close(norm_sf(self.grid), scipy.stats.norm.sf(self.grid))

    def test_edges(self):
        np.testing.assert_array_equal(norm_sf(EDGES), scipy.stats.norm.sf(EDGES))

    def test_scalar_path(self):
        check_scalar_path(norm_sf, np.concatenate([self.grid, EDGES]))

    def test_keeps_shape(self):
        z = np.arange(6.0).reshape(2, 3)
        assert norm_sf(z).shape == (2, 3)


class TestNormPpf:
    grid = np.linspace(1e-6, 1.0 - 1e-6, 100_001)
    edges = np.array([0.0, 1.0, -0.5, 1.5, np.inf, -np.inf, np.nan])

    def test_matches_scipy(self):
        assert_close(norm_ppf(self.grid), scipy.stats.norm.ppf(self.grid))

    def test_edges(self):
        np.testing.assert_array_equal(norm_ppf(self.edges), scipy.stats.norm.ppf(self.edges))

    def test_scalar_path(self):
        check_scalar_path(norm_ppf, np.concatenate([self.grid, self.edges]))

    def test_bits_of_the_standard_library(self):
        """AS 241 as ``NormalDist().inv_cdf`` computes it, bit for bit: on the
        Royston ranks (i - 0.375)/(n + 0.25) of Shapiro-Wilk, for n = 3..5000
        in strides of 37 and every n from 4990, on both sides of each branch
        edge, and at the extremes."""
        ranks = [(i - 0.375) / (n + 0.25)
                 for n in [*range(3, 4990, 37), *range(4990, 5001)] for i in range(1, n + 1)]
        # |q - 1/2| = 0.425, and r = sqrt(-log(min(q, 1 - q))) = 5 in each tail.
        edges = [around(q) for q in (0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0))]
        for floats in edges:
            assert len({as241_branch(q) for q in floats}) == 2
        inv_cdf = NormalDist().inv_cdf
        qs = [*ranks, *(q for floats in edges for q in floats), 1e-300, 5e-324, 1.0 - 2.0**-53]
        assert [q for q in qs if _norm_ppf(q) != inv_cdf(q)] == []


def around(q, k=64):
    """q and the k floats on each side of it."""
    below, above = [q], [q]
    for _ in range(k):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], 1.0))
    return below[::-1] + above[1:]


def as241_branch(q):
    """The rational function that AS 241 evaluates at q."""
    if abs(q - 0.5) <= 0.425:
        return "central"
    return "near tail" if math.sqrt(-math.log(min(q, 1.0 - q))) <= 5.0 else "far tail"


class TestChi2Sf:
    grid = np.linspace(0.0, 200.0, 20_001)
    edges = np.array([0.0, -1.0, np.inf, -np.inf, np.nan])

    @pytest.mark.parametrize("df", range(1, 9))
    def test_matches_scipy(self, df):
        assert_close(chi2_sf(self.grid, df), scipy.stats.chi2.sf(self.grid, df))

    @pytest.mark.parametrize("df", range(1, 9))
    def test_edges(self, df):
        np.testing.assert_array_equal(chi2_sf(self.edges, df), scipy.stats.chi2.sf(self.edges, df))

    @pytest.mark.parametrize("df", [1, 2, 3])
    def test_scalar_path(self, df):
        check_scalar_path(lambda x: chi2_sf(x, df), np.concatenate([self.grid, self.edges]))

    @pytest.mark.parametrize("df", range(1, 16))
    def test_is_a_probability_near_zero(self, df):
        near_zero = np.concatenate([np.logspace(-300, 0, 40_000), np.linspace(0.0, 1.0, 10_001)])
        values = chi2_sf(near_zero, df)
        assert np.all((0.0 <= values) & (values <= 1.0))

    @pytest.mark.parametrize("df", [0, -1, 1.5])
    def test_rejects_non_integer_df(self, df):
        with pytest.raises(ValueError):
            chi2_sf(1.0, df)


def _fresh_output(code):
    """The stdout of ``code`` run in a fresh interpreter that imports the
    package from this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120, check=True)
    return result.stdout


def test_report_imports_no_scipy():
    code = (
        "import io, sys\n"
        "from retailrisk.cli import run_command\n"
        "assert run_command(['report'], stdout=io.StringIO()) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _fresh_output(code).strip() == "[]"


def test_report_imports_json_for_json_only():
    """A markdown report loads neither ``statistics`` (with its ``fractions``
    and ``decimal``) nor ``json``; a JSON report then loads ``json``."""
    code = (
        "import io, sys\n"
        "from retailrisk.cli import run_command\n"
        "names = ('statistics', 'fractions', 'decimal', 'json')\n"
        "for fmt in ('markdown', 'json'):\n"
        "    assert run_command(['report', '--format', fmt], stdout=io.StringIO()) == 0\n"
        "    print(*(name for name in names if name in sys.modules))\n"
    )
    assert _fresh_output(code) == "\njson\n"
