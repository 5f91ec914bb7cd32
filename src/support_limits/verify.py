"""
Named verification checks: every derived oracle and invariant the package
relies on, runnable as one suite from the CLI (`support-limits verify`).

Each check recomputes its target through an independent route (brute-force
enumeration, Monte Carlo, dense quadrature, finite differences of closed
forms) and compares against the library path at a stated tolerance.  A check
returns (measured, tolerance, passed); the CLI emits one line per check and
a machine-readable JSON report.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, asdict
from typing import Callable, Sequence

import numpy as np

from . import bounds, conc, info, model as md, numerics as nm, sim
from .channels import CHANNELS, GROUP_TESTING, LINEAR
from .numerics import ndtr, ndtri

SEED = 20240917


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""
    seconds: float = 0.0

    def to_dict(self):
        """JSON-ready record: non-finite numbers become None (null)."""
        return {
            k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in asdict(self).items()
        }


_REGISTRY: dict[str, Callable[[], tuple[float, float, str]]] = {}


def check(name: str):
    def deco(fn):
        _REGISTRY[name] = fn
        return fn

    return deco


def available_checks() -> list[str]:
    return sorted(_REGISTRY)


def run_checks(only: str | None = None) -> list[CheckResult]:
    names = [only] if only else available_checks()
    out = []
    for name in names:
        if name not in _REGISTRY:
            raise KeyError(f"unknown check {name!r}; see available_checks()")
        t0 = time.perf_counter()
        try:
            measured, tol, detail = _REGISTRY[name]()
            measured, tol = float(measured), float(tol)
            passed = measured <= tol
        except Exception as exc:  # surface as a failed check, not a crash
            measured, tol, detail, passed = math.inf, 0.0, f"exception: {exc}", False
        out.append(
            CheckResult(
                name=name,
                passed=passed,
                measured=measured,
                tolerance=tol,
                detail=detail,
                seconds=time.perf_counter() - t0,
            )
        )
    return out


# --- numerics ---------------------------------------------------------------


@check("q-symmetry")
def _q_symmetry():
    xs = np.linspace(-8, 8, 1601)
    err = float(np.max(np.abs(nm.q_function(xs) + nm.q_function(-xs) - 1.0)))
    return err, 1e-14, "max |Q(x)+Q(-x)-1|"


@check("q-tail-value")
def _q_tail():
    # the standard library's complementary error function at x = 1.2816 (~0.1000)
    oracle = 0.5 * math.erfc(1.2816 / math.sqrt(2.0))
    return abs(nm.q_function(1.2816) - oracle), 1e-6, "Q(1.2816) vs erfc series"


@check("chi2-identity")
def _chi2_identity():
    us = np.linspace(0.0, 25.0, 501)
    err = float(np.max(np.abs(nm.chi2_cdf_1dof(us) - (1.0 - 2.0 * nm.q_function(np.sqrt(us))))))
    return err, 1e-12, "F(u) vs 1 - 2Q(sqrt(u))"


@check("chi2-mc")
def _chi2_mc():
    rng = md.rng_stream(SEED, 1)
    n = 10**7
    w = rng.standard_normal(n)
    emp = float(np.mean(w * w <= 1.0))
    se = math.sqrt(emp * (1 - emp) / n)
    return abs(nm.chi2_cdf_1dof(1.0) - emp), 3 * se, "F(1) vs 1e7-sample MC"


@check("g-endpoints")
def _g_endpoints():
    return max(abs(nm.g_alpha(0.0)), abs(nm.g_alpha(1.0) - 1.0)), 1e-9, "g(0)=0, g(1)=1"


@check("g-monotone")
def _g_monotone():
    grid = np.linspace(0.0, 1.0, 101)
    vals = np.array([nm.g_alpha(float(a)) for a in grid])
    worst = float(np.max(np.maximum(0.0, -np.diff(vals))))
    return worst, 0.0, "nondecreasing on 101-point grid"


@check("g-sort-oracle")
def _g_sort_oracle():
    # sort-based oracle: mean of the smallest half of 1e6 squared normals
    devs = []
    for s in range(5):
        rng = md.rng_stream(SEED, 2, s)
        sq = np.sort(rng.standard_normal(10**6) ** 2)
        devs.append(abs(float(np.mean(sq[: 500000])) * 0.5 - nm.g_alpha(0.5)))
    return max(devs), 1e-3, "g(0.5) vs sorted-squares MC, 5 seeds"


def _adaptive_simpson(f, a: float, b: float, tol: float, max_depth: int = 48) -> float:
    """int_a^b f by adaptive Simpson to absolute tolerance tol; raises
    NonConvergenceError past max_depth bisections."""

    def simp(lo, mid, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, tol, depth):
        mid = 0.5 * (lo + hi)
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        flm, frm = float(f(lm)), float(f(rm))
        left = simp(lo, lm, mid, flo, flm, fmid)
        right = simp(mid, rm, hi, fmid, frm, fhi)
        if depth >= max_depth:
            raise nm.NonConvergenceError(
                f"adaptive Simpson: depth {max_depth} exceeded on [{lo}, {hi}]"
            )
        if abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, flm, fmid, left, tol / 2.0, depth + 1) + recurse(
            mid, hi, fmid, frm, fhi, right, tol / 2.0, depth + 1
        )

    mid = 0.5 * (a + b)
    fa, fm, fb = float(f(a)), float(f(mid)), float(f(b))
    whole = simp(a, mid, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def g_alpha_simpson(alpha: float, tol: float) -> float:
    """g(alpha) = int_0^{u_a} [alpha - F_chi2(u)] du by adaptive Simpson,
    u_a = t^2 with t = Phi^{-1}((1+alpha)/2); the alpha = 1 limit 1.0
    where t is infinite."""
    t = ndtri((1.0 + alpha) / 2.0)
    if math.isinf(t):
        return 1.0
    # substitute u = s^2: removes the sqrt(u) kink of F_chi2 at zero
    integrand = lambda s: (alpha - nm.chi2_cdf_1dof(s * s)) * 2.0 * s
    return float(_adaptive_simpson(integrand, 0.0, t, tol))


def gaussian_expectation_simpson(f: Callable, tol: float) -> float:
    """E[f(W)], W ~ N(0,1), by adaptive Simpson with the tails cut at |w| = 10."""
    phi = lambda w: np.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)
    return _adaptive_simpson(lambda w: f(w) * phi(w), -10.0, 10.0, tol)


@check("g-quadrature-vs-closed")
def _g_quad():
    grid = np.linspace(0.05, 0.95, 19)
    err = max(abs(g_alpha_simpson(float(a), 1e-12) - nm.g_alpha(float(a))) for a in grid)
    return err, 1e-9, "adaptive Simpson route vs closed form"


@check("stein-constant")
def _stein():
    # Stein identity: E[W logit(1-Q)] = E[phi(W)/(Q(W)(1-Q(W)))], dense grid;
    # Q(t)(1-Q(t)) is even, so evaluate it at |t| where Q is the small factor
    t = np.linspace(-10, 10, 2000001)
    phi = np.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    qm = ndtr(-np.abs(t))
    oracle = float(np.trapezoid(phi * phi / (qm * (1.0 - qm)), t))
    mine = info.gaussian_logit_slope_constant()
    return abs(mine - oracle), 1e-4, f"oracle {oracle:.6f}"


@check("gauss-exp-odd")
def _odd_function():
    v = nm.gaussian_expectation(lambda w: w**3)
    v2 = gaussian_expectation_simpson(lambda w: w**3, 1e-10)
    return max(abs(v), abs(v2)), 1e-9, "E[W^3] = 0 both schemes"


@check("gh-entropy-vs-mc")
def _gh_vs_mc():
    # E[H2(Q(cW))] by 96-node quadrature vs 1e7-sample Monte Carlo
    rng = md.rng_stream(SEED, 3)
    w = rng.standard_normal(10**7)
    devs = []
    for c in (0.5, 2.0, 20.0):
        samples = nm.binary_entropy(np.clip(ndtr(-c * w), 1e-300, 1 - 1e-16))
        se = float(np.std(samples) / math.sqrt(w.size))
        dev = abs(float(np.mean(samples)) - nm.mean_entropy_q_scaled(c))
        devs.append(dev - 3 * se)
    return max(devs), 0.0, "3-SE agreement at c in {0.5, 2, 20}"


@check("log-binomial-stirling")
def _log_binom_stirling():
    exact = nm.log_binomial(10**6, 10**3)
    oracle = float(sum(math.log(10**6 - i) - math.log(i + 1) for i in range(10**3)))
    return abs(exact - oracle) / abs(oracle), 1e-10, "log-sum oracle, relative"


@check("entropy-even-in-x")
def _entropy_even():
    xs = np.linspace(0.0, 5.0, 51)
    err = max(
        abs(nm.binary_entropy(nm.q_function(float(x))) - nm.binary_entropy(nm.q_function(float(-x))))
        for x in xs
    )
    return err, 1e-12, "H2(Q(x)) even"


# --- model -----------------------------------------------------------------


@check("support-uniformity")
def _support_uniform():
    dims = md.ProblemDims(p=6, k=2, n=0)
    m = md.ModelSpec.linear(1.0)
    pr = md.SignalPrior.fixed([1.0, 2.0])
    trials = 10**4
    block = md.sample_realization(dims, m, pr, SEED, trials=range(trials))
    counts = np.unique(block.support, axis=0, return_counts=True)[1]
    expect = trials / 15.0
    sd = math.sqrt(trials * (1 / 15) * (14 / 15))
    worst = float(np.max(np.abs(counts - expect)))
    return worst, 4 * sd, f"15 supports, worst dev {worst:.0f}"


def _plain(state: dict) -> dict:
    """A bit generator's state dict with its arrays as lists, for ==."""
    return {k: _plain(v) if isinstance(v, dict) else np.asarray(v).tolist() for k, v in state.items()}


def _live_state(gen: np.random.Generator) -> dict:
    """gen's state as `_plain` gives it, with the parked half word zeroed
    when has_uint32 marks it spent: nothing reads it then."""
    state = _plain(gen.bit_generator.state)
    state["uinteger"] *= state["has_uint32"]
    return state


@check("support-draw-vs-numpy-choice")
def _support_draw():
    # The block draw of 30 trials against np.sort(choice) on a fresh twin
    # generator per trial: p = k, rejections (a quarter of the draws at
    # 3 * 2^30), the span 2^32 (p = 2^32), and the steps the block draw
    # leaves to choice: its tail shuffle (10001, 201) and 64-bit draws
    # (p > 2^32).  With the half word parked, the generator state and the
    # 32-bit draws that follow the support must match too.
    cases = [(1, 1), (7, 7), (50, 1), (16, 5), (16, 6), (10000, 300), (10001, 200),
             (10001, 201), (3 * 2**30, 3), (3 * 2**30, 5), (2**32, 2), (2**32 + 5, 2)]
    trials = range(30)
    keys = md._stream_keys(SEED, (9,), trials)
    bad = redrawn = 0
    for p, k in cases:
        after, calls = {}, np.zeros(len(trials), dtype=int)

        def rest(i, rng):
            calls[i] += 1
            after[i] = (_live_state(rng), rng.integers(0, 2**32, 3, np.uint32).tolist())

        got = md._block_supports(keys, p, k, rest, park_half=True)
        for t in trials:
            twin = md.rng_stream(SEED, 9, t)
            want = np.sort(twin.choice(p, size=k, replace=False))
            state = _live_state(twin)
            following = twin.integers(0, 2**32, 3, np.uint32).tolist()
            same = got.dtype == want.dtype and got[t].tolist() == want.tolist()
            bad += not (same and after[t] == (state, following))
        redrawn += int((calls > 1).sum())
    return float(bad), 0.0, (f"{len(cases) * len(trials)} draws ({redrawn} redrawn): supports, "
                             f"generator states and the draws after them")


def _fresh_realization(dims, model, prior, seed, stream):
    """The one-trial RealizationBlock sample_realization draws for trial
    stream[-1] after the prefix stream[:-1], drawn from a new
    rng_stream(seed, *stream) generator with numpy's own calls in its order:
    np.sort(choice), the prior's permutation or normal draw, the design's
    random or standard_normal fill and then the noise's."""
    md.validate_pairing(model, prior, dims.k)
    rng = md.rng_stream(seed, *stream)
    n, p, k = dims.n, dims.p, dims.k
    index = np.sort(rng.choice(p, size=k, replace=False))
    if prior.variant == md.FIXED_VECTOR:
        b_s = np.asarray(prior.b, dtype=float)
    elif prior.variant == md.PERMUTED_VECTOR:
        b_s = rng.permutation(np.asarray(prior.b, dtype=float))
    elif prior.variant == md.IID_GAUSSIAN:
        b_s = rng.normal(0.0, np.sqrt(prior.sigma_beta_sq), size=k)
    else:
        b_s = np.ones(k)
    if model.channel == md.GROUP_TESTING:
        x = (rng.random((n, p)) < model.nu / k).astype(float)
        hit = x[:, index].astype(bool).any(axis=1)
        if model.rho > 0.0:
            hit = hit ^ (rng.random(n) < model.rho)
        y = hit.astype(float)
    else:
        x = rng.standard_normal((n, p))
        y = x[:, index] @ b_s + model.sigma * rng.standard_normal(n)
        if model.channel == md.ONE_BIT:
            y = np.where(y >= 0.0, 1.0, -1.0)
    beta = np.zeros(p)
    beta[index] = b_s
    return md.RealizationBlock(support=index[None] + 1, beta=beta[None], x=x[None], y=y[None])


def _same_trial(block, t, one) -> bool:
    """Trial t of block equals the one-trial block one, bit for bit."""
    return all(
        getattr(block, f)[t].tolist() == getattr(one, f)[0].tolist()
        for f in ("support", "beta", "x", "y")
    )


@check("block-draw-vs-rng-stream")
def _block_draw():
    # every channel and prior, n = 0, and trials 250..261 across the
    # boundary of two 256-trial key chunks
    b = (1.0, -0.5, 2.0)
    pairs = [
        (md.ModelSpec.linear(0.7), md.SignalPrior.fixed(b)),
        (md.ModelSpec.linear(0.7), md.SignalPrior.permuted(b)),
        (md.ModelSpec.one_bit(0.5), md.SignalPrior.iid_gaussian(2.0)),
        (md.ModelSpec.group_testing(0.0), md.SignalPrior.all_ones()),
        (md.ModelSpec.group_testing(0.11), md.SignalPrior.all_ones()),
    ]
    trials = range(250, 262)
    bad = draws = 0
    for model, prior in pairs:
        for n in (0, 9):
            dims = md.ProblemDims(p=11, k=3, n=n)
            block = md.sample_realization(dims, model, prior, SEED, stream=(4,), trials=trials)
            for i, t in enumerate(trials):
                fresh = _fresh_realization(dims, model, prior, SEED, (4, t))
                bad += not _same_trial(block, i, fresh)
                draws += 1
    return float(bad), 0.0, f"{draws} block trials: supports, beta, x and y"


@check("permuted-multiset")
def _permuted_multiset():
    dims = md.ProblemDims(p=9, k=4, n=2)
    m = md.ModelSpec.linear(1.0)
    pr = md.SignalPrior.permuted([1.0, 1.0, -2.0, 0.5])
    block = md.sample_realization(dims, m, pr, SEED, trials=range(200))
    b_s = np.sort(np.take_along_axis(block.beta, block.support - 1, axis=1), axis=1)
    bad = int((b_s != sorted(pr.b)).any(axis=1).sum())
    return float(bad), 0.0, "non-zero values preserve the multiset"


@check("min-info-partition-bruteforce")
def _min_partition_brute():
    rng = md.rng_stream(SEED, 4)
    worst = 0.0
    for k in (3, 5, 8):
        b = rng.standard_normal(k)
        for ell in range(1, k + 1):
            target = float(np.sum(b[md.min_info_partition(b, ell).dif_index()] ** 2))
            brute = min(
                float(np.sum(b[p.dif_index()] ** 2))
                for p in md.enumerate_partitions(k, [ell])
            )
            worst = max(worst, target - brute)
    return worst, 1e-12, "min-energy split over all partitions"


# --- info ------------------------------------------------------------------


def _gt_mi_exhaustive(nu, k, ell, rho):
    """Exhaustive joint enumeration over X in {0,1}^k (and Y) from first
    principles; independent of the case-table path.  The 2^k patterns are
    the rows of a (2^k x k) 0/1 matrix, column i holding bit i."""
    p1 = nu / k
    x = (np.arange(2**k)[:, None] >> np.arange(k)) & 1
    px = np.prod(np.where(x == 1, p1, 1 - p1), axis=1)
    clean = x.any(axis=1)
    eq_any = x[:, ell:].any(axis=1)
    # P[y | x_eq] marginalizing x_dif
    xi_l = (1 - p1) ** ell
    I = 0.0
    for y in (0, 1):
        py_num = np.where(clean == y, 1 - rho, rho)
        p_hit, p_miss = ((1 - rho) if y == 1 else rho), ((1 - rho) if y == 0 else rho)
        py_den = np.where(eq_any, p_hit, xi_l * p_miss + (1 - xi_l) * p_hit)
        keep = py_num != 0.0
        I += float(np.sum(px[keep] * py_num[keep] * np.log(py_num[keep] / py_den[keep])))
    return I


@check("gt-mi-enumeration")
def _gt_mi_enum():
    worst = 0.0
    for k in range(1, 13):
        for ell in range(1, k + 1):
            for nu in (0.3, math.log(2.0), 1.5):
                if nu > k:  # nu/k > 1 is not a valid Bernoulli design
                    continue
                for rho in (0.0, 0.11, 0.25):
                    closed = info.gt_mi_closed_form(nu, k, ell, rho)
                    brute = _gt_mi_exhaustive(nu, k, ell, rho)
                    worst = max(worst, abs(closed - brute))
    return worst, 1e-12, "closed form vs exhaustive joint enumeration"


@check("info-density-mean-linear")
def _idens_mean_linear():
    m = md.ModelSpec.linear(0.8)
    b = np.array([1.0, -0.6, 0.3])
    part = md.min_info_partition(b, 2)
    mc = info.variance_mc(m, part, b, trials=10**6, seed=SEED + 5)
    closed = info.mutual_information(m, part, b)
    return abs(mc.mi - closed), 3 * mc.std_err, "1e6-sample density mean vs closed form"


@check("info-density-mean-1bit")
def _idens_mean_1bit():
    m = md.ModelSpec.one_bit(1.0)
    b = np.array([1.0, 1.0, -0.5])
    part = md.min_info_partition(b, 1)
    mc = info.variance_mc(m, part, b, trials=10**6, seed=SEED + 6)
    quad = info.mutual_information(m, part, b)
    return abs(mc.mi - quad), 3 * mc.std_err, "1e6-sample density mean vs quadrature"


@check("info-density-mean-gt")
def _idens_mean_gt():
    m = md.ModelSpec.group_testing(rho=0.11)
    part = md.min_info_partition([1.0] * 4, 2)
    mc = info.variance_mc(m, part, None, trials=10**6, seed=SEED + 7)
    closed = info.mutual_information(m, part)
    return abs(mc.mi - closed), 3 * mc.std_err, "1e6-sample density mean vs closed form"


@check("gt-variance-enumeration")
def _gt_var_enum():
    worst = 0.0
    for k in (4, 8):
        for ell in (1, k // 2, k):
            part = md.min_info_partition([1.0] * k, ell)
            m = md.ModelSpec.group_testing(rho=0.11)
            var_table = info.density_variance(m, part)
            mc = info.variance_mc(m, part, None, trials=2 * 10**5, seed=SEED + k + ell)
            se = mc.var * math.sqrt(2.0 / (mc.trials - 1))
            worst = max(worst, abs(var_table - mc.var) - 3 * se)
    return worst, 0.0, "case-table variance vs MC, 3 SE"


@check("onebit-mi-le-log2-and-dpi")
def _onebit_dpi():
    rng = md.rng_stream(SEED, 8)
    worst = -math.inf
    for _ in range(20):
        k = int(rng.integers(2, 6))
        b = rng.normal(0, 1.2, k)
        ell = int(rng.integers(1, k + 1))
        part = md.min_info_partition(b, ell)
        sigma = float(rng.uniform(0.5, 2.0))
        one = info.mutual_information(md.ModelSpec.one_bit(sigma), part, b)
        lin = info.mutual_information(md.ModelSpec.linear(sigma), part, b)
        worst = max(worst, one - nm.LOG2, one - lin)
    return worst, 1e-9, "1-bit MI <= log 2 and <= linear MI"


@check("gt-mi-rho-monotone")
def _gt_rho_monotone():
    part = md.min_info_partition([1.0] * 6, 3)
    rhos = np.linspace(0.0, 0.49, 50)
    vals = [info.mutual_information(md.ModelSpec.group_testing(rho=float(r)), part) for r in rhos]
    worst = max(max(0.0, vals[i + 1] - vals[i]) for i in range(len(vals) - 1))
    return worst, 1e-12, "GT MI decreasing in rho"


@check("min-partition-minimizes-mi")
def _min_partition_mi():
    rng = md.rng_stream(SEED, 9)
    worst = 0.0
    for model in (md.ModelSpec.linear(1.0), md.ModelSpec.one_bit(1.0)):
        for k in (4, 6, 8):
            b = rng.normal(0, 1, k)
            for ell in (1, k // 2, k - 1):
                mine = info.mutual_information(model, md.min_info_partition(b, ell), b)
                brute = min(
                    info.mutual_information(model, p, b)
                    for p in md.enumerate_partitions(k, [ell])
                )
                worst = max(worst, mine - brute)
    return worst, 1e-9, "min-info split minimizes MI (brute force)"


@check("variance-bound-1bit-c0")
def _var_bound_1bit():
    # MC variance <= c0 x structural bound with c0 = 16 across a (b, sigma) grid
    worst = -math.inf
    for sigma in (0.5, 1.0, 2.0):
        for scale in (0.3, 1.0, 2.0):
            b = scale * np.array([1.0, -0.7, 0.4])
            part = md.min_info_partition(b, 2)
            m = md.ModelSpec.one_bit(sigma)
            mc = info.variance_mc(m, part, b, trials=10**5, seed=SEED)
            bound = info.variance_bound_1bit(b, sigma, part, c0=16.0)
            worst = max(worst, mc.var - bound)
    return worst, 0.0, "MC variance within c0=16 x structural bound"


@check("i0-bound-mc")
def _i0_mc():
    # empirical I0 (log-ratio of exact Gaussian densities) <= closed bound
    k, n, sbsq, sigma = 3, 10, 0.1, 1.0
    dims = md.ProblemDims(p=5, k=k, n=n)
    m = md.ModelSpec.linear(sigma)
    pr = md.SignalPrior.iid_gaussian(sbsq)
    rng = md.rng_stream(SEED, 10)
    vals = np.empty(4000)
    for t in range(vals.size):
        x = rng.standard_normal((n, k))
        b = rng.normal(0, math.sqrt(sbsq), k)
        y = x @ b + sigma * rng.standard_normal(n)
        num = -0.5 * np.sum((y - x @ b) ** 2) / sigma**2 - 0.5 * n * math.log(
            2 * math.pi * sigma**2
        )
        den = info.log_marginal_likelihood(m, pr, x, y)
        vals[t] = num - den
    bound, _, _ = info.prior_divergence_stats(m, pr, dims)
    se = float(np.std(vals) / math.sqrt(vals.size))
    return float(np.mean(vals)) - bound - 3 * se, 0.0, f"I0 MC {np.mean(vals):.3f} <= {bound:.3f}"


@check("marginal-gaussian-2d")
def _marginal_2d():
    m = md.ModelSpec.linear(0.7)
    pr = md.SignalPrior.iid_gaussian(0.5)
    x = np.array([[1.3], [-0.4]])
    y = np.array([0.2, 1.1])
    cov = 0.49 * np.eye(2) + 0.5 * np.outer(x[:, 0], x[:, 0])
    oracle = -0.5 * y @ np.linalg.solve(cov, y) - 0.5 * math.log(
        (2 * math.pi) ** 2 * np.linalg.det(cov)
    )
    return abs(info.log_marginal_likelihood(m, pr, x, y) - oracle), 1e-10, "2-D Gaussian oracle"


# --- concentration ----------------------------------------------------------


def _gt_density_sums(m: md.ModelSpec, part: md.Partition, n: int, trials: int, seed: int):
    """i^n samples for GT by multinomial draws over the finite case table."""
    table = CHANNELS[m.channel].table(m, part)
    keep = table.probs > 0
    rng = md.rng_stream(seed)
    counts = rng.multinomial(n, table.probs[keep] / table.probs[keep].sum(), size=trials)
    return counts @ table.vals[keep]


def _tail_freq(sums: np.ndarray, n: int, I: float, delta2: float, two_sided: bool):
    if two_sided:
        hits = np.abs(sums - n * I) >= n * delta2 * I
    else:
        hits = sums <= n * I * (1.0 - delta2)
    p = float(np.mean(hits))
    se = math.sqrt(max(p * (1 - p), 1.0 / hits.size) / hits.size)
    return p, se


@check("psi-chebyshev-domination")
def _psi_cheby_dom():
    worst = -math.inf
    m = md.ModelSpec.group_testing(rho=0.11)
    for ell, n, d2 in ((2, 500, 0.5), (3, 300, 0.6), (1, 800, 0.7)):
        part = md.min_info_partition([1.0] * 8, ell)
        mi = info.mutual_information(m, part)
        sums = _gt_density_sums(m, part, n, 10**4, SEED + ell)
        p, se = _tail_freq(sums, n, mi, d2, two_sided=True)
        bound = conc.psi_chebyshev(mi, info.density_variance(m, part), n, d2)
        worst = max(worst, p - bound - 3 * se)
    return worst, 0.0, "empirical two-sided tail <= Chebyshev"


@check("psi-bernstein-discrete-domination")
def _psi_bd_dom():
    worst = -math.inf
    m = md.ModelSpec.one_bit(1.0)
    b = np.array([2.0, 2.0, 2.0])
    rng = md.rng_stream(SEED, 11)
    for ell, n, d2 in ((3, 300, 0.9), (2, 500, 0.8), (1, 900, 0.9)):
        part = md.min_info_partition(b, ell)
        mi = info.mutual_information(m, part, b)
        x = rng.standard_normal((10**4, n, 3)).reshape(-1, 3)
        y = np.where(x @ b + rng.standard_normal(x.shape[0]) >= 0, 1.0, -1.0)
        dens = info.density_rows(m, part, b, x, y).reshape(10**4, n)
        p, se = _tail_freq(dens.sum(axis=1), n, mi, d2, two_sided=True)
        bound = conc.tail(*conc.bernstein_discrete_terms(mi, 2, d2), n)
        worst = max(worst, p - bound - 3 * se)
    return worst, 0.0, "empirical tail <= discrete Bernstein"


@check("psi-bernstein-linear-domination")
def _psi_bl_dom():
    worst = -math.inf
    m = md.ModelSpec.linear(1.0)
    b = np.array([1.0, -0.8, 0.6])
    rng = md.rng_stream(SEED, 12)
    for ell, n, d2 in ((3, 60, 0.9), (2, 120, 0.9), (1, 400, 0.9)):
        part = md.min_info_partition(b, ell)
        mi = info.mutual_information(m, part, b)
        x = rng.standard_normal((10**4 * n, 3))
        y = x @ b + rng.standard_normal(x.shape[0])
        dens = info.density_rows(m, part, b, x, y).reshape(10**4, n)
        p, se = _tail_freq(dens.sum(axis=1), n, mi, d2, two_sided=True)
        s_sq = float(np.sum(b[part.dif_index()] ** 2))
        bound = conc.tail(*conc.bernstein_linear_terms(s_sq, 1.0, d2), n)
        worst = max(worst, p - bound - 3 * se)
    return worst, 0.0, "empirical tail <= linear Bernstein"


@check("psi-chernoff-gt-domination")
def _psi_chernoff_dom():
    worst = -math.inf
    m = md.ModelSpec.group_testing(rho=0.0)
    for ell, n, d2 in ((1, 1500, 0.9), (2, 900, 0.85), (3, 600, 0.9)):
        part = md.min_info_partition([1.0] * 100, ell)
        mi = info.mutual_information(m, part)
        sums = _gt_density_sums(m, part, n, 10**4, SEED + 13 + ell)
        p, se = _tail_freq(sums, n, mi, d2, two_sided=False)
        bound = conc.tail(*conc.chernoff_gt_terms(m.nu, 100, ell, d2, 0.05), n)
        worst = max(worst, p - bound - 3 * se)
    return worst, 0.0, "empirical lower tail <= Chernoff"


@check("psi-bennett-gt-domination")
def _psi_bennett_dom():
    worst = -math.inf
    m = md.ModelSpec.group_testing(rho=0.11)
    for ell, n, d2 in ((2, 1200, 0.9), (1, 2500, 0.9), (3, 900, 0.85)):
        part = md.min_info_partition([1.0] * 100, ell)
        mi = info.mutual_information(m, part)
        sums = _gt_density_sums(m, part, n, 10**4, SEED + 17 + ell)
        p, se = _tail_freq(sums, n, mi, d2, two_sided=False)
        bound = conc.tail(*conc.bennett_gt_noisy_terms(m.nu, 0.11, 100, ell, d2, 0.05), n)
        worst = max(worst, p - bound - 3 * se)
    return worst, 0.0, "empirical lower tail <= Bennett"


@check("variance-cap-discrete")
def _var_cap():
    cap = conc.variance_cap_discrete(2)
    worst = -math.inf
    for k in (4, 6, 8):
        for ell in (1, k // 2, k):
            for rho in (0.0, 0.11, 0.25):
                part = md.min_info_partition([1.0] * k, ell)
                v = info.density_variance(md.ModelSpec.group_testing(rho=rho), part)
                worst = max(worst, v - cap)
    return worst, 0.0, f"GT variances <= |Y|(4/e)^2 = {cap:.3f}"


def _gt_specs(dims: md.ProblemDims) -> list[conc.TailBoundSpec]:
    """The noiseless group-testing channel's own tail families for dims.k."""
    model = md.ModelSpec.group_testing()
    return CHANNELS[GROUP_TESTING].tail_specs(model, None, *bounds._per_ell_mi(model, None, dims))


@check("remainder-monotone")
def _remainder_monotone():
    dims = md.ProblemDims(p=10**4, k=20, n=0)
    specs = _gt_specs(dims)
    ns = [
        conc.remainder_n_required(specs, dims, range(1, 21), t)
        for t in (0.5, 0.1, 0.01)
    ]
    ok = ns[0] <= ns[1] <= ns[2]
    return 0.0 if ok else 1.0, 0.0, f"n(0.5..0.01) = {ns}"


@check("remainder-gt-scaling")
def _remainder_scaling():
    # computed n consistent with k log(p/k) scaling along k = sqrt(p)
    xs, ys = [], []
    for p in (10**3, 10**4, 10**5):
        k = round(math.sqrt(p))
        dims = md.ProblemDims(p=p, k=k, n=0)
        specs = _gt_specs(dims)
        n = float(conc.remainder_n_required(specs, dims, range(1, k + 1), 0.01))
        xs.append(math.log(k * math.log(p / k)))
        ys.append(math.log(n))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return abs(slope - 1.0), 0.5, f"regression slope {slope:.3f} vs 1 (k log(p/k) scaling)"


def _family_tail(model: md.ModelSpec, b: np.ndarray, ell: int, n: int) -> float:
    """One ell's tail min(1, scale exp(-q n / den)), from the family formulas
    of the conc module docstring with the deltas each channel uses: GT
    Chernoff/Bennett (delta2 = 0.9, eps = 0.05) up to floor(k / log k),
    discrete Bernstein (delta2 = 0.1) above; linear Bernstein and 1-bit
    discrete Bernstein at delta2 = 0.5."""
    k = b.size
    if model.channel == GROUP_TESTING and ell <= (int(k / math.log(k)) if k >= 3 else 1):
        d2, nu, gap = 0.9, model.nu, 1.0 - 2.0 * model.rho
        if model.rho == 0.0:
            shape = (1.0 - d2) * math.log(1.0 - d2) + d2
        else:
            shape = d2 * d2 * gap * gap / (2.0 * (1.0 + d2 * gap / 3.0))
        return min(1.0, math.exp(-(ell / k) * math.exp(-nu) * nu * shape * 0.95 * n))
    part = md.min_info_partition(b, ell)
    s_sq = float(np.sum(b[part.dif_index()] ** 2))
    if model.channel == LINEAR:
        if s_sq == 0.0:
            return 0.0
        s, sig = math.sqrt(s_sq), model.sigma
        a = 2.0 * s * (sig + s) / (sig * sig + s_sq)
        d = 0.5 * 0.5 * math.log1p(s_sq / (sig * sig))
        return min(1.0, 2.0 * math.exp(-d * d * n / (2.0 * (4.0 * a * a + d * a))))
    d = (0.1 if model.channel == GROUP_TESTING else 0.5) * info.mutual_information(model, part, b)
    return min(1.0, 2.0 * math.exp(-d * d * n / (2.0 * (16.0 + 2.0 * d))))


@check("remainder-n-minimal")
def _remainder_n_minimal():
    # remainder_n of the generic achievability is the smallest n whose
    # weighted tail sum S(n) = sum_ell C(k, ell) tail_ell(n), capped at 1,
    # is <= 1e-2; S is recomputed here from the family formulas.  Measured:
    # the worst of S(n) - target and target - S(n - 1), relative to the
    # target and floored at 0; 1e-12 absorbs the last bits in which the two
    # routes may round
    target, worst, ns = 1e-2, -math.inf, []
    b_real = np.array([0.5, -1.0, 1.5, -2.0, 0.5])
    cases = [
        (md.ModelSpec.group_testing(rho=rho), np.ones(k)) for k in (10, 100) for rho in (0.0, 0.11)
    ]
    cases += [(md.ModelSpec.linear(1.0), b_real), (md.ModelSpec.one_bit(1.0), b_real)]
    for model, b in cases:
        k = b.size
        dims = md.ProblemDims(p=10**6, k=k, n=0)
        n = int(bounds.achievability_threshold_generic(model, b, dims).remainder_n)
        ns.append(n)
        s = lambda m: min(
            1.0, sum(math.comb(k, l) * _family_tail(model, b, l, m) for l in range(1, k + 1))
        )
        worst = max(worst, (s(n) - target) / target, (target - s(n - 1)) / target)
    return max(worst, 0.0), 1e-12, f"S(n) <= 1e-2 < S(n - 1) at n = {ns}"


# --- bounds -----------------------------------------------------------------


@check("achievability-generic-breakdown")
def _ach_breakdown():
    # every breakdown row (ell, num, mi, ratio) of the generic achievability
    # and its binding ell, recomputed: num = log C(p - k, ell) + 2 log(k /
    # delta1) + 2 log C(k, ell) from 30-digit mpmath binomials; mi by
    # exhaustive enumeration (GT) or as 1/2 log(1 + sum_dif b^2 / sigma^2)
    # over the ell smallest |b| (linear); the binding by brute-force argmax,
    # ties to the smallest ell.  Measured: the largest relative error of num,
    # mi and ratio; a wrong ell list or binding counts as 1
    import mpmath

    delta1 = 1e-3
    opts = bounds.BoundOptions(delta1=delta1)
    b_lin = [0.5, -1.0, 1.5]
    cases = [(md.ModelSpec.group_testing(rho=rho), None, 10) for rho in (0.0, 0.11)]
    cases.append((md.ModelSpec.linear(1.0), b_lin, len(b_lin)))
    log_binom = lambda n, r: mpmath.log(mpmath.binomial(n, r))
    worst, count = 0.0, 0
    with mpmath.workdps(30):
        for model, b, k in cases:
            ells = range(1, k + 1)
            if b is None:
                mis = [_gt_mi_exhaustive(model.nu, k, ell, model.rho) for ell in ells]
            else:
                sq = [x * x for x in sorted(abs(x) for x in b)]
                mis = [0.5 * math.log1p(sum(sq[:ell]) / model.sigma**2) for ell in ells]
            for p in (10**4, 10**6):
                dims = md.ProblemDims(p=p, k=k, n=0)
                res = bounds.achievability_threshold_generic(model, b, dims, opts)
                oracle = []
                for ell, mi in zip(ells, mis):
                    num = log_binom(p - k, ell) + 2 * mpmath.log(k / mpmath.mpf(delta1))
                    num += 2 * log_binom(k, ell)
                    oracle.append((ell, float(num), mi, float(num / mi)))
                binding = max(oracle, key=lambda row: (row[3], -row[0]))[0]
                got_ells = [row[0] for row in res.breakdown]
                if got_ells != list(ells) or res.binding != binding:
                    worst = max(worst, 1.0)
                for got, want in zip(res.breakdown, oracle):
                    for g, w in zip(got[1:], want[1:]):
                        worst = max(worst, abs(g - w) / abs(w))
                count += len(oracle)
    return worst, 1e-9, f"{count} rows, max relative error {worst:.2e}"


@check("cor-gt-noiseless-third")
def _cor6_third():
    thetas = np.arange(0.05, 1.0 / 3.0 + 1e-12, 0.05).tolist()
    worst = max(abs(res.coef_ach - 1.0 / nm.LOG2) for res in bounds.cor_gt_noiseless(thetas))
    return worst, 1e-9, "coef_ach = 1/log2 for theta <= 1/3"


@check("cor-gt-noisy-term-compare")
def _gt_term_compare():
    rhos = np.arange(0.001, 0.5, 0.001)
    worst = min(bounds.gt_logit_entropy_margin(float(r)) for r in rhos)
    return -worst, 1e-12, "(1-2r) log((1-r)/r) >= 4(log2 - H2(r))"


@check("cor-linear-lasso-constant")
def _lasso():
    worst = 0.0
    for cb in (2.0, 10.0, 100.0):
        val, arg = bounds.lasso_comparison_constant(cb)
        worst = max(worst, abs(val - 2.0 / math.log1p(cb)), abs(arg - 1.0))
    return worst, 1e-6, "sup_alpha ratio = 2/log(1+c) at alpha = 1"


@check("onebit-pi-over-2")
def _pi_over_2():
    p, k = 10**6, 3
    b = [1e-3] * k
    one = bounds.cor_1bit_exact_lowsnr(b, 1.0, p, k)
    lin = bounds.cor_linear_exact(b, 1.0, p, k)
    ratio = one.n_ach / lin.n_ach
    return abs(ratio / (math.pi / 2.0) - 1.0), 0.01, f"ratio {ratio:.5f}"


@check("fano-weaker-than-converse")
def _fano_weaker():
    b = [1.0, -0.5, 2.0]
    m = md.ModelSpec.linear(1.0)
    conv = bounds.converse_threshold_generic(m, b, md.ProblemDims(p=200, k=3, n=0))
    dims = md.ProblemDims(p=200, k=3, n=1)
    _, region = bounds.fano_lower_bound(m, b, dims, delta2=0.5)
    return region.boundary_n - conv.n_conv, 1e-9, "Fano region boundary <= strong-converse n"


@check("cor-ach-ge-conv-grids")
def _ach_ge_conv():
    thetas, cbs = [0.1, 0.3, 0.5, 0.7], [0.1, 10.0, 1e4]
    results = (
        bounds.cor_gt_noiseless(thetas)
        + bounds.cor_gt_noisy(thetas, 0.11)
        + bounds.cor_linear_partial(cbs, grid_points=501)
        + bounds.cor_1bit_partial(cbs, grid_points=501)
    )
    worst = max(r.coef_conv - r.coef_ach for r in results)
    a, c = bounds.cor_gt_partial(0.11, 0.1)
    worst = max(worst, c - a)
    return worst, 1e-12, "coef_ach >= coef_conv on corollary grids"


@check("partial-coef-vs-dense-grid")
def _partial_dense_grid():
    # the figure's golden-section coefficients against the plain maximum of
    # both objectives over a 90001-point alpha grid (spacing 1e-5); measured
    # at most 1.6e-9 relative, the refinement beating the grid at interior
    # maxima and missing the alpha* endpoint by its 1e-10 bracket
    snrs, alpha_star = (-10.0, 10.0, 30.0), 0.1
    rows = bounds.figure_curves(
        bounds.FIG_PARTIAL,
        {"snr_db": list(snrs), "alpha_star": alpha_star, "sigma": 1.0, "grid_points": 2001},
    )
    coef = {(x, c): y for x, c, y in rows}
    a = np.linspace(alpha_star, 1.0, 90001)
    worst = 0.0
    for snr in snrs:
        cb = md.c_beta_from_snr(snr)
        dens = {"linear": 0.5 * np.log1p(cb * nm.g_alpha(a)),
                "1bit": bounds.psi_function_1bit(a, cb)}
        for name, den in dens.items():
            for curve, num in (("ach", a), ("conv", a - alpha_star)):
                dense = float(np.max(num / den))
                worst = max(worst, abs(coef[(snr, f"{name}-{curve}-coef-nats")] / dense - 1.0))
    return worst, 1e-8, "partial-recovery coefficients vs dense alpha grid, SNR -10/10/30 dB"


@check("partial-argmax-vs-full-grid")
def _partial_argmax():
    # the bisection's grid argmaxes (bounds._bisect_argmax, the figure's
    # path) against np.argmax of each whole grid on all four curves, and the
    # bisection's precondition: no grid denominator falls more than
    # bounds._BOUND_ABS below its running maximum (a strict rise is false
    # below about -100 dB).  Seeded sets of SNRs over -140 ... 80 dB, with
    # -120 and -110 dB fixed at 2001 and 10^4 points, where a relative margin
    # alone changes the 1-bit argmax
    rng = np.random.default_rng(SEED)
    cases = [(1.0, 0.1, gp, [-120.0, -110.0]) for gp in (2001, 10**4)]
    for gp in (2, 3, 50, 2001, 10**4):
        for _ in range(2):
            sigma = float(rng.choice([0.5, 1.0, 2.0]))
            alpha_star = float(rng.choice([0.05, 0.1, 0.3, 0.9, 0.999, 1.0]))
            cases.append((sigma, alpha_star, gp, rng.uniform(-140.0, 80.0, 6).round(1).tolist()))
    denoms = (bounds.linear_partial_denominator, bounds.psi_function_1bit)
    lanes = wrong = 0
    fall = 0.0
    for sigma, alpha_star, gp, snrs in cases:
        cbs = [md.c_beta_from_snr(snr, sigma) for snr in snrs]
        alphas = np.linspace(alpha_star, 1.0, gp)
        for f in denoms:
            denom = lambda a, cb: f(a, cb, sigma)
            got = bounds._bisect_argmax(denom, cbs, alphas, alpha_star).reshape(-1, 2).tolist()
            for cb, pair in zip(cbs, got):
                dens = denom(alphas, cb)
                fall = max(fall, float(np.max(np.maximum.accumulate(dens) - dens)))
                with np.errstate(divide="ignore", invalid="ignore"):
                    obj_a = np.where(dens > 0, alphas / dens, math.inf)
                    obj_c = np.where(dens > 0, (alphas - alpha_star) / dens, 0.0)
                obj_c[0] = 0.0
                wrong += sum(i != int(np.argmax(o)) for i, o in zip(pair, (obj_a, obj_c)))
                lanes += 2
    eps = bounds._BOUND_ABS
    return wrong + (fall > eps), 0.0, (
        f"{wrong} of {lanes} grid argmaxes differ; largest fall below the running "
        f"max {fall:.2e} (eps {eps:g})"
    )


@check("psi1bit-range-monotone")
def _psi_range():
    worst = 0.0
    for cb in (0.1, 1.0, 100.0):
        prev = -1.0
        for a in np.linspace(0.01, 1.0, 50):
            v = bounds.psi_function_1bit(float(a), cb)
            worst = max(worst, -v, v - nm.LOG2, prev - v - 1e-12)
            prev = v
    return worst, 1e-9, "Psi in [0, log2], nondecreasing in alpha"


@check("gen-finite-converse-limit")
def _gen_finite():
    # eps -> infinity removes the additive denominator term and recovers the
    # plain converse; at finite eps the term scales as n^{-1/2}
    m = md.ModelSpec.group_testing(rho=0.11)
    dims = md.ProblemDims(p=10**6, k=100, n=0)
    n_limit = bounds.cor_general_discrete_converse(m, None, dims, 2, delta1=0.01, eps=1e18)
    plain = bounds.converse_threshold_generic(
        m, None, dims, bounds.BoundOptions(delta1=0.01)
    ).n_conv
    rel = abs(n_limit - plain) / plain
    term = lambda eps, n: math.sqrt(2.0 / (n * eps))
    scaling = abs(term(0.005, 1000.0) / term(0.01, 1000.0) - math.sqrt(2.0))
    return max(rel, scaling), 1e-6, f"eps->inf limit {n_limit:.1f} vs plain {plain:.1f}"


# --- simulation -------------------------------------------------------------


@check("ml-phase-monotone-small")
def _ml_phase():
    m = md.ModelSpec.group_testing(rho=0.0)
    pr = md.SignalPrior.all_ones()
    dims = md.ProblemDims(p=16, k=2, n=0)
    reports = sim.phase_sweep(
        m, pr, dims, [0, 8, 16, 24], sim.DecoderSpec(kind="exhaustive-ml"), 200, SEED
    )
    worst = -math.inf
    for a, b2 in zip(reports, reports[1:]):
        se = math.sqrt(
            a.pe_hat * (1 - a.pe_hat) / a.trials + b2.pe_hat * (1 - b2.pe_hat) / b2.trials
        )
        worst = max(worst, b2.pe_hat - a.pe_hat - 3 * max(se, 1.0 / a.trials))
    return worst, 0.0, "pe_hat nonincreasing up to 3 SE"


@check("threshold-union-bound")
def _thresh_union():
    m = md.ModelSpec.group_testing(rho=0.0)
    pr = md.SignalPrior.all_ones()
    dims = md.ProblemDims(p=12, k=2, n=60)
    p1, se1, term2 = sim.threshold_union_bound(m, pr, dims, trials=400, seed=SEED)
    rep = sim.run_cell(m, pr, dims, sim.DecoderSpec(kind="threshold"), 400, SEED + 1)
    se = math.sqrt(rep.pe_hat * (1 - rep.pe_hat) / rep.trials + se1**2)
    return rep.pe_hat - (p1 + term2) - 3 * max(se, 1.0 / rep.trials), 0.0, (
        f"pe {rep.pe_hat:.3f} <= bound {p1 + term2:.3f}"
    )


def _mp_threshold_statistic(linear: bool, sigma: float, atoms, x, y, eq):
    """Oracle for the threshold statistic log P(y|x_s) - log P(y|x_eq) of
    one candidate (design columns x, n x k) on the split whose equal part is
    the column set eq, in mpmath at its working precision.  beta_S is
    averaged over the vectors atoms, equally weighted.  Each row's
    likelihood is the Gaussian density of y - <x, b> (linear) or
    Q(-y <x, b> / sigma) = erfc(-y <x, b> / (sigma sqrt 2)) / 2 (1-bit); its
    marginal is the same with <x_eq, b_eq> and sigma^2 + sum_dif b^2."""
    import mpmath as mp

    def log_lik(mean, var, yi):
        if linear:
            return -((yi - mean) ** 2) / (2 * var) - mp.log(2 * mp.pi * var) / 2
        return mp.log(mp.erfc(-yi * mean / mp.sqrt(2 * var)) / 2)

    def log_sum_exp(terms):
        top = max(terms)
        return top + mp.log(mp.fsum(mp.exp(t - top) for t in terms))

    rows = [([mp.mpf(v) for v in row], mp.mpf(yi)) for row, yi in zip(x.tolist(), y.tolist())]
    lw = -mp.log(len(atoms))
    num, den = [], []
    for atom in atoms:
        b = [mp.mpf(v) for v in atom]
        var = mp.mpf(sigma) ** 2
        var_eq = var + mp.fsum(b[j] ** 2 for j in range(len(b)) if j not in eq)
        num.append(lw + mp.fsum(
            log_lik(mp.fsum(r * c for r, c in zip(row, b)), var, yi) for row, yi in rows
        ))
        den.append(lw + mp.fsum(
            log_lik(mp.fsum(row[j] * b[j] for j in eq), var_eq, yi) for row, yi in rows
        ))
    return log_sum_exp(num) - log_sum_exp(den)


@check("threshold-stat-vs-mpmath")
def _threshold_stat_mpmath():
    # the threshold decoder's statistic on every partition of five
    # candidates (the true support first), for the linear channel with the
    # permuted prior 1,1,2 and the 1-bit channel with the fixed b = 1,2,
    # against a 50-digit oracle built from the channel formulas alone.
    # Measured: the largest |library - oracle| / |oracle|
    import mpmath

    worst, count = 0.0, 0
    cases = [
        (md.ModelSpec.linear(0.8), md.SignalPrior.permuted([1.0, 1.0, 2.0]), 7, 12),
        (md.ModelSpec.one_bit(0.5), md.SignalPrior.fixed([1.0, 2.0]), 6, 16),
    ]
    for model, prior, p, n in cases:
        k = len(prior.b)
        if prior.variant == md.PERMUTED_VECTOR:
            atoms = set(itertools.permutations(prior.b))
        else:
            atoms = {prior.b}
        dims = md.ProblemDims(p=p, k=k, n=n)
        real = md.sample_realization(dims, model, prior, SEED, trials=range(1))
        x, y = real.x[0], real.y[0]
        cands = [real.support[0]] + list(itertools.combinations(range(1, p + 1), k))[:4]
        x_cands = np.stack([x[:, np.asarray(c) - 1] for c in cands])
        for part in md.enumerate_partitions(k):
            got = sim._averaged_partition_density(model, prior, x_cands, y, part)
            eq = set(part.eq_index().tolist())
            with mpmath.workdps(50):
                for x_c, value in zip(x_cands, got.tolist()):
                    oracle = _mp_threshold_statistic(
                        model.channel == LINEAR, model.sigma, atoms, x_c, y, eq
                    )
                    worst = max(worst, float(abs((value - oracle) / oracle)))
                    count += 1
    return worst, 1e-9, f"{count} statistics, max relative error {worst:.2e}"


@check("comp-vs-ml")
def _comp_vs_ml():
    m = md.ModelSpec.group_testing(rho=0.0)
    pr = md.SignalPrior.all_ones()
    dims = md.ProblemDims(p=12, k=2, n=14)
    trials = 10**3
    # trial t of the block draws stream (0, t)
    reals = md.sample_realization(dims, m, pr, SEED, stream=(0,), trials=range(trials))
    err_ml = int((sim.decode_ml(reals, m, pr, dims) != reals.support).any(axis=1).sum())
    err_comp = int((sim.decode_comp(reals, dims) != reals.support).any(axis=1).sum())
    se = math.sqrt(2.0 * 0.25 / trials)
    return (err_ml - err_comp) / trials - 3 * se, 0.0, (
        f"pe(ML) {err_ml/trials:.3f} <= pe(COMP) {err_comp/trials:.3f} + 3 SE"
    )


def empirical_g_check(k: int, trials: int, seed: int, alphas: Sequence[float] = ()):
    """Sorted squared-Gaussian partial means against g(alpha).

    Draws k squares per trial, sorts, and reports the average over trials of
    (1/k) sum of the floor(alpha k) smallest, next to g(alpha).
    """
    if not alphas:
        alphas = tuple(np.linspace(0.1, 1.0, 10))
    rng = md.rng_stream(seed)
    acc = np.zeros(len(alphas))
    for _ in range(trials):
        sq = np.sort(rng.standard_normal(k) ** 2)
        csum = np.concatenate([[0.0], np.cumsum(sq)])
        for j, a in enumerate(alphas):
            acc[j] += csum[int(math.floor(a * k))] / k
    acc /= trials
    return [(float(a), float(emp), nm.g_alpha(float(a))) for a, emp in zip(alphas, acc)]


@check("empirical-g-convergence")
def _emp_g():
    worst = 0.0
    for s in range(5):
        table = empirical_g_check(10**6, 1, SEED + s)
        worst = max(worst, max(abs(emp - g) for _, emp, g in table))
    return worst, 0.01, "max |empirical - g| at k = 1e6, 5 seeds"


@check("determinism")
def _determinism():
    m = md.ModelSpec.group_testing(rho=0.11)
    pr = md.SignalPrior.all_ones()
    dims = md.ProblemDims(p=10, k=2, n=12)
    a = sim.run_cell(m, pr, dims, sim.DecoderSpec(kind="exhaustive-ml"), 50, SEED)
    b = sim.run_cell(m, pr, dims, sim.DecoderSpec(kind="exhaustive-ml"), 50, SEED)
    return 0.0 if a == b else 1.0, 0.0, "identical (config, seed) => identical report"
