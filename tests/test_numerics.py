import ast
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfc, ndtri

from support_limits import numerics as nm
from support_limits import verify
from support_limits.model import rng_stream

LOG2 = math.log(2.0)


class TestBinaryEntropy:
    def test_half_is_log2(self):
        assert nm.binary_entropy(0.5) == pytest.approx(LOG2, abs=1e-15)

    def test_degenerate_endpoints(self):
        assert nm.binary_entropy(0.0) == 0.0
        assert nm.binary_entropy(1.0) == 0.0

    def test_symmetry(self):
        assert nm.binary_entropy(0.11) == pytest.approx(nm.binary_entropy(0.89), abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            nm.binary_entropy(-0.1)
        with pytest.raises(ValueError):
            nm.binary_entropy(1.1)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_range_and_symmetry_property(self, rho):
        h = nm.binary_entropy(rho)
        assert -1e-15 <= h <= LOG2 + 1e-15
        assert h == pytest.approx(nm.binary_entropy(1.0 - rho), abs=1e-12)


class TestBinaryEntropyScalarPath:
    """A float argument takes the scalar path; it equals the array element
    bit for bit, signed zeros included."""

    @settings(max_examples=300)
    @given(st.floats(min_value=0.0, max_value=1.0))
    @example(0.0)
    @example(1.0)
    @example(5e-324)
    @example(2.2250738585072009e-308)  # largest subnormal
    @example(2.2250738585072014e-308)  # smallest normal
    @example(1.0 - 2.0**-53)
    @example(0.5)
    def test_scalar_equals_array_element(self, rho):
        h = nm.binary_entropy(rho)
        assert type(h) is float
        assert repr(h) == repr(float(nm.binary_entropy(np.array([rho]))[0]))
        assert repr(h) == repr(nm.binary_entropy(np.array(rho)))  # 0-d: array path
        assert repr(nm.binary_entropy(np.float64(rho))) == repr(h)

    def test_scalar_equals_array_on_a_dense_sample(self):
        # math.log differs from np.log in the last bit at about 1 in 300
        # arguments here; a sample this size catches a scalar path that uses it
        rng = rng_stream(9)
        x = np.concatenate([rng.uniform(0.0, 1.0, 20000),
                            np.exp(rng.uniform(-700.0, 0.0, 5000)),
                            1.0 - np.exp(rng.uniform(-36.0, 0.0, 5000))])
        assert [nm.binary_entropy(v) for v in x.tolist()] == nm.binary_entropy(x).tolist()

    def test_signed_zeros_at_the_endpoints(self):
        assert repr(nm.binary_entropy(0.0)) == "0.0"
        assert repr(nm.binary_entropy(1.0)) == "-0.0"
        assert repr(nm.binary_entropy(np.array([0.0, 1.0])).tolist()) == "[0.0, -0.0]"

    @pytest.mark.parametrize(
        "bad",
        [float("nan"), np.float64("nan"), np.array(float("nan")), np.array([0.2, float("nan")]),
         np.array([[0.5], [float("nan")]]), -0.1, 1.1, np.array([0.3, -1e-300]), float("inf")],
    )
    def test_nan_and_out_of_range_raise_naming_the_argument(self, bad):
        with pytest.raises(ValueError, match=r"binary_entropy argument outside \[0, 1\]: "):
            nm.binary_entropy(bad)


class TestEntropyPerturbation:
    def test_scales_both_binary_entropy_paths(self):
        rhos = [0.0, 0.11, 0.5, 1.0 - 2.0**-53, 1.0]
        base = nm.binary_entropy(np.array(rhos))
        with nm.entropy_perturbation(1e-3):
            scalar = [nm.binary_entropy(r) for r in rhos]
            array = nm.binary_entropy(np.array(rhos)).tolist()
        assert scalar == array == (base * (1.0 + 1e-3)).tolist()
        assert [nm.binary_entropy(r) for r in rhos] == base.tolist()

    def test_restores_the_previous_value(self):
        with nm.entropy_perturbation(1e-3):
            with nm.entropy_perturbation(2e-3):
                assert nm.binary_entropy(0.5) == LOG2 * (1.0 + 2e-3)
            assert nm.binary_entropy(0.5) == LOG2 * (1.0 + 1e-3)
            with pytest.raises(RuntimeError):
                with nm.entropy_perturbation(5e-3):
                    raise RuntimeError("inside the block")
            assert nm.mean_entropy_q_scaled(0.0) == LOG2 * (1.0 + 1e-3)
        assert nm.binary_entropy(0.5) == LOG2

    @pytest.mark.parametrize("bad", [float("nan"), math.inf, -math.inf])
    def test_non_finite_refused_and_nothing_set(self, bad):
        # NaN made the verify canary report PASS with measured 0
        with pytest.raises(ValueError, match="must be finite"):
            nm.set_entropy_perturbation(bad)
        assert nm.binary_entropy(0.5) == LOG2


class TestQFunction:
    def test_median(self):
        assert nm.q_function(0.0) == 0.5

    def test_symmetry(self):
        assert nm.q_function(-2.0) == pytest.approx(1.0 - nm.q_function(2.0), abs=1e-15)

    def test_decile_vs_erfc_series(self):
        oracle = 0.5 * erfc(1.2816 / math.sqrt(2.0))
        assert nm.q_function(1.2816) == pytest.approx(oracle, abs=1e-6)
        assert round(nm.q_function(1.2816), 4) == 0.1000

    def test_symmetry_grid(self):
        xs = np.linspace(-10, 10, 401)
        assert np.max(np.abs(nm.q_function(xs) + nm.q_function(-xs) - 1.0)) < 1e-14

    def test_log_q_finite_to_forty(self):
        for x in (-40.0, -8.0, 0.0, 8.0, 38.0, 40.0):
            assert math.isfinite(nm.log_q_function(x))
        assert nm.log_q_function(40.0) < -800.0


class TestChi2Cdf:
    def test_zero(self):
        assert nm.chi2_cdf_1dof(0.0) == 0.0

    def test_one_vs_monte_carlo(self):
        rng = rng_stream(11)
        w = rng.standard_normal(10**7)
        emp = float(np.mean(w * w <= 1.0))
        se = math.sqrt(emp * (1 - emp) / w.size)
        assert nm.chi2_cdf_1dof(1.0) == pytest.approx(emp, abs=3 * se)

    def test_upper_limit(self):
        assert 1.0 - nm.chi2_cdf_1dof(100.0) < 1e-9

    def test_domain_error(self):
        with pytest.raises(ValueError):
            nm.chi2_cdf_1dof(-1e-9)

    def test_identity_with_q(self):
        us = np.linspace(0, 30, 301)
        lhs = nm.chi2_cdf_1dof(us)
        rhs = 1.0 - 2.0 * nm.q_function(np.sqrt(us))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestGAlpha:
    def test_endpoints(self):
        assert nm.g_alpha(0.0) == 0.0
        assert nm.g_alpha(1.0) == 1.0

    def test_monotone_and_bounded_by_alpha_u(self):
        grid = np.linspace(0.0, 1.0, 100)
        vals = [nm.g_alpha(float(a)) for a in grid]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        for a, v in zip(grid[1:-1], vals[1:-1]):
            u_a = float(ndtri((1 + a) / 2)) ** 2
            assert v <= a * u_a + 1e-12

    def test_adaptive_route_matches_closed_form(self):
        for a in (0.1, 0.5, 0.9):
            assert verify.g_alpha_simpson(a, 1e-12) == pytest.approx(nm.g_alpha(a), abs=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            nm.g_alpha(1.5)

    def test_alpha_one_limit_where_the_quantile_overflows(self):
        top = 1.0 - 2.0**-53  # (1 + top)/2 rounds to 1, so Phi^{-1} is infinite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert nm.g_alpha(top) == 1.0
            assert nm.g_alpha(np.array([0.5, top, 1.0])).tolist() == [nm.g_alpha(0.5), 1.0, 1.0]
            below = nm.g_alpha(1.0 - 2.0**-52)
        assert math.isfinite(below) and below < 1.0

    def test_array_equals_scalar_calls_exactly(self):
        grid = np.concatenate([[0.0, 1.0], np.linspace(0.0, 1.0, 501), rng_stream(3).random(500)])
        vals = nm.g_alpha(grid)
        assert vals.shape == grid.shape
        assert vals.tolist() == [nm.g_alpha(float(a)) for a in grid]
        assert vals[0] == 0.0 and vals[1] == 1.0
        assert type(nm.g_alpha(0.5)) is float and type(nm.g_alpha(1.0)) is float
        assert nm.g_alpha(grid[:999].reshape(-1, 3)).tolist() == vals[:999].reshape(-1, 3).tolist()

    @pytest.mark.parametrize("bad", [[0.5, 1.5], [-0.1, 0.2], [0.3, float("nan")]])
    def test_array_domain_error(self, bad):
        with pytest.raises(ValueError, match="outside"):
            nm.g_alpha(np.array(bad))


class TestGaussianExpectation:
    def test_normalization(self):
        assert nm.gaussian_expectation(lambda w: np.ones_like(w)) == pytest.approx(1.0, abs=1e-12)

    def test_unit_variance(self):
        assert nm.gaussian_expectation(lambda w: w * w) == pytest.approx(1.0, abs=1e-12)

    def test_logit_slope_vs_trapezoid_oracle(self):
        # Stein identity: E[W log((1-Q)/Q)] = E[phi(W)/(Q(W)(1-Q(W)))]
        t = np.linspace(-10, 10, 2_000_001)
        phi = np.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
        qm = nm.q_function(np.abs(t))
        oracle = float(np.trapezoid(phi * phi / (qm * (1 - qm)), t))
        mine = nm.gaussian_expectation(
            lambda w: w * (nm.log_q_function(-np.asarray(w)) - nm.log_q_function(np.asarray(w)))
        )
        assert mine == pytest.approx(oracle, abs=1e-4)
        assert mine == pytest.approx(1.806, abs=1e-3)

    def test_odd_function_vanishes(self):
        gh = nm.gaussian_expectation(lambda w: w**3)
        simpson = verify.gaussian_expectation_simpson(lambda w: w**3, 1e-10)
        assert abs(gh) < 1e-10 and abs(simpson) < 1e-10

    def test_nonconvergence_reported(self):
        jump = lambda w: np.sign(w - 1 / 3.0)
        with pytest.raises(nm.NonConvergenceError):
            verify.gaussian_expectation_simpson(jump, 1e-300)


class TestLogBinomial:
    def test_choose_zero(self):
        assert nm.log_binomial(17, 0) == 0.0

    def test_small_exact(self):
        assert nm.log_binomial(5, 2) == pytest.approx(math.log(10), abs=1e-12)

    def test_large_vs_log_sum_oracle(self):
        oracle = sum(math.log(10**6 - i) - math.log(i + 1) for i in range(10**3))
        mine = nm.log_binomial(10**6, 10**3)
        assert abs(mine - oracle) / abs(oracle) < 1e-10

    def test_domain_error(self):
        with pytest.raises(ValueError):
            nm.log_binomial(3, 4)

    NS = [0, 1, 2, 7, 100, 10**4, 10**6, 10**9, 10**12, 2**53 + 1, 10**15]

    @pytest.mark.parametrize("n", NS)
    def test_array_of_r_equals_scalar_calls(self, n):
        rng = np.random.default_rng(n)
        edges = [0, 1, n // 2, n - 1, n]
        r = np.unique(np.concatenate([edges, rng.integers(0, n, 200, endpoint=True)]))
        r = r[(r >= 0) & (r <= n)]
        got = nm.log_binomial(n, r)
        assert got.shape == r.shape
        for ri, g in zip(r.tolist(), got.tolist()):
            assert g == nm.log_binomial(n, ri)
        # n broadcast as an array too (the converse numerators' C(p-k+l, l))
        assert np.array_equal(nm.log_binomial(np.full(r.shape, n), r), got)

    def test_array_of_n_and_r_equals_scalar_calls(self):
        r = np.arange(0, 101)
        for offset in (0, 1, 10**6 - 100, 10**15):
            got = nm.log_binomial(offset + r, r)
            assert got.tolist() == [nm.log_binomial(offset + int(ri), int(ri)) for ri in r]

    def test_zero_d_and_integer_scalars(self):
        assert nm.log_binomial(10, np.array(3)) == nm.log_binomial(10, 3)
        assert isinstance(nm.log_binomial(10, np.array(3)), float)
        assert nm.log_binomial(np.int64(10), np.int64(3)) == nm.log_binomial(10, 3)

    @pytest.mark.parametrize(
        "n, r, named",
        [
            (10, [1, 11, 12], "n[1]=10, r[1]=11"),
            (10, [2, -1, 3], "n[1]=10, r[1]=-1"),
            (-1, [0, 0], "n[0]=-1, r[0]=0"),
            (10**15, [10**15 + 1], "r[0]=1000000000000001"),
        ],
    )
    def test_array_domain_error_names_the_first_bad_element(self, n, r, named):
        with pytest.raises(ValueError, match=re.escape(named)) as err:
            nm.log_binomial(n, np.array(r))
        assert str(err.value).count("r[") == 1


class TestScaledEntropyMean:
    def test_even_in_x(self):
        xs = np.linspace(0, 5, 26)
        for x in xs:
            a = nm.binary_entropy(nm.q_function(float(x)))
            b = nm.binary_entropy(nm.q_function(float(-x)))
            assert a == pytest.approx(b, abs=1e-12)

    def test_matches_dense_oracle_across_scales(self):
        # direct density integration in the substituted variable
        for a in (0.3, 1.0, 3.9, 4.1, 25.0, 400.0):
            r = np.linspace(-45, 45, 400_001)
            q = nm.q_function(r)
            lq = nm.log_q_function(r)
            h = np.where(
                q > 1e-8,
                -np.clip(q, 1e-300, 1) * np.log(np.clip(q, 1e-300, 1))
                - (1 - q) * np.log1p(-np.clip(q, None, 1 - 1e-16)),
                np.exp(lq) * (1 - lq),
            )
            dens = np.exp(-0.5 * (r / a) ** 2) / math.sqrt(2 * math.pi) / a
            oracle = float(np.trapezoid(dens * h, r))
            assert nm.mean_entropy_q_scaled(a) == pytest.approx(oracle, abs=1e-7)

    def test_zero_scale_is_log2(self):
        assert nm.mean_entropy_q_scaled(0.0) == pytest.approx(LOG2, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.01, max_value=50.0))
    def test_monotone_decreasing_in_scale(self, a):
        assert nm.mean_entropy_q_scaled(a) >= nm.mean_entropy_q_scaled(a * 1.5) - 1e-12


class TestScaledEntropyMeanGrid:
    """An array argument gives exactly the per-element scalar results."""

    def _grid(self):
        rng = rng_stream(21)
        # more than one _GRID_BLOCK per branch, branches interleaved
        a = np.concatenate([
            [0.0, 1.0, -1.0, 1e-12, np.nextafter(1.0, 2.0)],
            rng.uniform(0.0, 1.0, 300),
            rng.uniform(1.0, 60.0, 300),
            np.exp(rng.uniform(-15.0, 10.0, 100)),
            -rng.uniform(0.0, 5.0, 50),
        ])
        return rng.permutation(a)

    def test_array_equals_scalar_calls_exactly(self):
        a = self._grid()
        vals = nm.mean_entropy_q_scaled(a)
        assert vals.shape == a.shape
        assert vals.tolist() == [nm.mean_entropy_q_scaled(float(x)) for x in a]

    def test_zero_and_negative_arguments(self):
        vals = nm.mean_entropy_q_scaled(np.array([0.0, -0.0, 0.4, -0.4, 3.0, -3.0]))
        assert vals[0] == vals[1] == LOG2
        assert vals[2] == vals[3] == nm.mean_entropy_q_scaled(0.4)
        assert vals[4] == vals[5] == nm.mean_entropy_q_scaled(3.0)

    def test_shape_kept_and_scalar_returns_float(self):
        a = self._grid()[:300].reshape(20, 15)
        vals = nm.mean_entropy_q_scaled(a)
        assert vals.shape == (20, 15)
        assert vals.ravel().tolist() == nm.mean_entropy_q_scaled(a.ravel()).tolist()
        assert nm.mean_entropy_q_scaled(np.array([])).shape == (0,)
        for x in (0.0, 0.5, 2.0, np.float64(2.0), np.array(2.0)):
            assert type(nm.mean_entropy_q_scaled(x)) is float

    def test_perturbation_scales_array_path(self):
        a = self._grid()[:200]
        base = nm.mean_entropy_q_scaled(a)
        with nm.entropy_perturbation(1e-3):
            got = nm.mean_entropy_q_scaled(a)
            assert got.tolist() == [nm.mean_entropy_q_scaled(float(x)) for x in a]
            assert got.tolist() == (base * (1.0 + 1e-3)).tolist()
        assert nm.mean_entropy_q_scaled(a).tolist() == base.tolist()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-80.0, max_value=80.0), min_size=1, max_size=300))
    def test_property_array_equals_scalar(self, xs):
        vals = nm.mean_entropy_q_scaled(np.array(xs))
        assert vals.tolist() == [nm.mean_entropy_q_scaled(x) for x in xs]


class TestLogSumExp:
    SPECIAL = np.array([-np.inf, np.inf, np.nan, 0.0, -0.0, 1e308, -1e308, 5e-324])

    def _array(self, rng, kind):
        """One seeded array of the given kind: 'normal', 'neg-inf' entries,
        an 'all-neg-inf' row, 'nan' and other special entries, 'tied' maxima
        or a 1-d array ('0-d' result); its last axis may have length 1."""
        a_len = int(rng.integers(1, 6))
        shape = (a_len,) if kind == "0-d" else (int(rng.integers(0, 6)), a_len)
        a = rng.normal(scale=float(rng.choice([1e-3, 1.0, 50.0, 800.0])), size=shape)
        if kind == "neg-inf":
            a[rng.random(shape) < 0.4] = -np.inf
        elif kind == "all-neg-inf" and a.ndim == 2 and len(a):
            a[int(rng.integers(0, len(a)))] = -np.inf
        elif kind == "nan":
            mask = rng.random(shape) < 0.3
            a[mask] = rng.choice(self.SPECIAL, size=int(mask.sum()))
        elif kind == "tied" and a.size:
            flat = a.reshape(-1)
            flat[rng.integers(0, a.size, size=a.size)] = np.max(flat)
        return a

    def test_equals_scipy_bit_for_bit(self):
        from scipy.special import logsumexp

        rng = rng_stream(20240917, 21)
        kinds = ("normal", "neg-inf", "all-neg-inf", "nan", "tied", "0-d")
        seen = set()
        for t in range(10002):  # at least 10^4 arrays, every kind alike
            a = self._array(rng, kinds[t % len(kinds)])
            with np.errstate(over="ignore"):  # both warn where a - max overflows
                want = logsumexp(a, axis=-1)
                got = nm.log_sum_exp(a)
            assert type(got) is type(want) and np.shape(got) == np.shape(want), a
            assert np.array_equal(got, want, equal_nan=True), a
            assert np.array_equal(np.signbit(got), np.signbit(want)), a
            seen.add("nan" if np.isnan(want).any() else "")
            seen.add("-inf" if np.isneginf(want).any() else "")
            seen.add("a=1" if a.shape[-1] == 1 else "")
            seen.add("0-d" if np.ndim(want) == 0 else "")
        assert seen >= {"nan", "-inf", "a=1", "0-d"}


# ---------------------------------------------------------------------------
# numerics loads scipy.special's compiled ufuncs without scipy/special's
# __init__ and its array-API layer, most of the package's import time; the
# ufuncs are the very objects a later `import scipy.special` exposes.
# ---------------------------------------------------------------------------

PACKAGE = Path(nm.__file__).parent
UFUNCS = ("gammaln", "log_ndtr", "ndtr", "ndtri")


def _fresh_python(code: str) -> None:
    """Run `code` in a new interpreter that imports this package's source."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr


def test_cold_import_skips_the_array_api_layer():
    _fresh_python(
        "import sys\n"
        "import support_limits.cli\n"
        "heavy = {'scipy._lib._array_api', 'numpy.f2py', 'scipy.special'} & set(sys.modules)\n"
        "assert not heavy, heavy\n"
    )


def test_verify_import_skips_scipy_special():
    _fresh_python(
        "import sys\n"
        "import support_limits.verify\n"
        "heavy = {'scipy._lib._array_api', 'scipy.special'} & set(sys.modules)\n"
        "assert not heavy, heavy\n"
    )


@pytest.mark.parametrize("first,second", [("support_limits", "scipy.special"),
                                          ("scipy.special", "support_limits")])
def test_ufuncs_are_scipy_specials_own(first, second):
    _fresh_python(
        f"import math, {first}, {second}\n"
        "from support_limits import numerics as nm\n"
        "import scipy.special as sc\n"
        f"for name in {UFUNCS!r}:\n"
        "    assert getattr(nm, name) is getattr(sc, name), name\n"
        "assert abs(sc.erfc(1.0) - math.erfc(1.0)) < 1e-15\n"
    )


def _scipy_imports(tree) -> list[int]:
    """Lines of the absolute imports of scipy or of a scipy submodule."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "name",
    # numerics holds the loader; verify takes ndtr and ndtri from it and its
    # Q-tail oracle from math.erfc
    sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "numerics"),
)
def test_only_the_loader_and_the_oracles_import_scipy(name):
    assert not _scipy_imports(ast.parse((PACKAGE / f"{name}.py").read_text()))


def test_the_structural_check_sees_a_scipy_import():
    tree = ast.parse(
        "import numpy, scipy.special as sc\n"
        "from scipy import stats\n"
        "from .scipy_like import x\n"
        "import scipyish\n"
        "def f():\n    from scipy.special import erfc\n"
    )
    assert _scipy_imports(tree) == [1, 2, 6]


# ---------------------------------------------------------------------------
# One quadrature rule: no function takes a quadrature setting, and numerics
# defines no settings object to pass.
# ---------------------------------------------------------------------------


def _quad_parameters(tree) -> list[int]:
    """Lines of the functions with a parameter named `quad`."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and any(
            arg.arg == "quad"
            for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
        )
    ]


@pytest.mark.parametrize("name", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_no_function_takes_a_quadrature_setting(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    assert not _quad_parameters(tree)
    if name == "numerics":
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)} | {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        assert not defined & {"QuadratureSpec", "DEFAULT_QUAD"}


def test_the_structural_check_sees_a_quad_parameter():
    tree = ast.parse(
        "def f(a, quad=None):\n    pass\n"
        "def g(a, *, quad):\n    pass\n"
        "h = lambda a, quad: a\n"
        "def quad(a):\n    pass\n"
    )
    assert _quad_parameters(tree) == [1, 3, 5]
