"""
Necessary and sufficient measurement counts for exact and partial support
recovery, assembled from the generic max-ratio conditions

    achievability   n >= max_ell [ log C(p-k, l) + log(k^2/d1^2 C(k,l)^2) + gamma ]
                              / [ I_l (1 - d2) ]
    converse        n <= max_ell [ log C(p-k+l, l) - log d1 ] / [ I_l (1 + d2) ]

(partial recovery restricts l > d_max and subtracts
log sum_{d <= d_max} C(p-k, d) C(l, d) from the converse numerator), plus the
per-model corollaries with explicit constants:

    linear exact / partial, 1-bit low-SNR exact / high-SNR converse / partial,
    group testing noiseless / noisy / partial, general finite-alphabet converse.

Asymptotic coefficients for the partial-recovery and group-testing cases
multiply k log(p/k); the "rate" normalization used by the figure tables is
k log2(p/k) / n = 1 / (coef * log 2).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import numerics
from .channels import CHANNELS
from .conc import remainder_n_required
from .info import (
    finite_mi,
    gaussian_logit_slope_constant,
    mutual_information,
    prior_divergence_stats,
)
from .model import (
    ALL_ONES,
    FIXED_VECTOR,
    PERMUTED_VECTOR,
    ModelSpec,
    ProblemDims,
    SignalPrior,
    c_beta_from_snr,
    max_info_partition,
    min_info_partitions,
)
from .numerics import (
    LOG2,
    NonConvergenceError,
    binary_entropy,
    g_alpha,
    log_binomial,
    mean_entropy_q_scaled,
)

INFINITE = float("inf")


@dataclass(frozen=True)
class BoundOptions:
    """Slack parameters for the generic threshold formulas.

    delta1/eta default to the formula-evaluation convention (1e-3 and 0); the
    corollaries report eta-free max-ratios and callers scale by (1 +/- eta).
    delta2 enters the denominators as (1 -/+ delta2); 0 gives the bare ratio.
    gamma_rule: discrete | chebyshev | markov | zero.
    remainder_target, when set, folds the tail-bound side condition into
    n_ach by max; when None the side condition is reported only.
    """

    delta1: float = 1e-3
    delta2: float = 0.0
    gamma_rule: str = "zero"
    delta0: float = 0.01
    eta: float = 0.0
    asymptotic: bool = False
    remainder_target: float | None = None

    def __post_init__(self):
        _check_eta(self.eta)
        _check_delta1(self.delta1)
        # outside these ranges (or NaN) the counts divide by zero, turn
        # negative or come out NaN
        target = self.remainder_target
        for name, ok, rng in (
            ("delta2", 0.0 <= self.delta2 < 1.0, "[0, 1)"),
            ("delta0", self.delta0 > 0.0, "(0, inf)"),
            ("remainder_target", target is None or 0.0 < target <= 1.0, "(0, 1]"),
        ):
            if not ok:
                raise ValueError(f"{name} must lie in {rng}, got {getattr(self, name)}")


def _check_delta1(delta1: float) -> None:
    """The numerators take log delta1; outside (0, 1] (or NaN) they divide
    by zero, fail every test or relax the bound past its statement."""
    if not 0.0 < delta1 <= 1.0:
        raise ValueError(f"delta1 must lie in (0, 1], got {delta1}")


def _check_eta(eta: float) -> None:
    """The slack eta scales counts by (1 +/- eta); outside [0, 1) (or NaN)
    the converse count turns zero, negative or NaN."""
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta}")


@dataclass(frozen=True)
class ThresholdResult:
    """Measurement count with its per-ell diagnostic table.

    breakdown rows are (ell, numerator, mi, ratio), one for every ell
    considered; the ratio is infinite where mi = 0 (that ell cannot be
    resolved) and a note where the converse is vacuous.  binding is the ell
    of the largest ratio, ties (infinite ratios included) to the smallest.
    remainder_n carries the tail-bound side condition when one was computed.

    A wrong support lies at a distance ell <= min(k, p - k), so the
    achievability rows (generic and cor_linear_exact) and the remainder's ell
    range stop there.  At p = k no wrong support exists: the counts of wrong
    supports (the generic achievability and converse, cor_linear_exact,
    fano_lower_bound, cor_general_discrete_converse) give 0.0 with no binding
    ell and an empty breakdown; the generic achievability also does when
    d_max >= p - k, where every wrong support is within the allowed misses.
    """

    n_ach: float = INFINITE
    n_conv: float = INFINITE
    binding: int | float | None = None
    breakdown: tuple = ()
    remainder_n: float | None = None


def _ratio_row(ell: int, num: float, mi: float, scale: float = 1.0) -> tuple:
    """Breakdown row (ell, num, mi, num / (mi * scale)), the ratio inf if mi <= 0."""
    return (ell, num, mi, num / (mi * scale) if mi > 0.0 else INFINITE)


def _binding(rows) -> tuple:
    """(ell, ratio) of the largest ratio, ties to the smallest ell; rows whose
    ratio is a note are skipped, and (None, -inf) means no row has a ratio."""
    ratios = [(row[0], row[3]) for row in rows if not isinstance(row[3], str)]
    return max(ratios, key=lambda pair: (pair[1], -pair[0]), default=(None, -INFINITE))


def gamma_select(
    rule: str,
    model: ModelSpec,
    prior: SignalPrior | None,
    dims: ProblemDims,
    delta0: float = 0.01,
) -> float:
    """Offset gamma controlling the prior-averaging remainder P0(gamma).

    discrete  -> log(1 / min-prob): 0 for deterministic entries, k log m_beta
                 for a permuted vector with m_beta distinct values;
    chebyshev -> I0_bound + sqrt(V0_bound / delta0);
    markov    -> I0+_bound / delta0;
    zero      -> 0 (deterministic beta, e.g. group testing).

    Every rule but zero needs the prior.
    """
    if rule == "zero":
        return 0.0
    if prior is None:
        raise ValueError(f"gamma rule {rule!r} needs the prior")
    if rule == "discrete":
        if prior.variant in (FIXED_VECTOR, ALL_ONES):
            return 0.0
        if prior.variant == PERMUTED_VECTOR:
            return dims.k * math.log(prior.m_beta)
        raise ValueError("discrete gamma rule needs a discrete prior")
    if rule == "chebyshev":
        i0, v0, _ = prior_divergence_stats(model, prior, dims)
        return i0 + math.sqrt(v0 / delta0)
    if rule == "markov":
        _, _, i0p = prior_divergence_stats(model, prior, dims)
        return i0p / delta0
    raise ValueError(f"unknown gamma rule {rule!r}")


def _entries(b, dims: ProblemDims) -> np.ndarray:
    """b as k finite floats; all ones when absent (group testing)."""
    b = np.ones(dims.k) if b is None else np.asarray(b, dtype=float)
    if b.shape != (dims.k,) or not np.isfinite(b).all():
        raise ValueError(f"b needs k = {dims.k} finite entries, got {b.tolist()}")
    return b


def _per_ell_mi(model: ModelSpec, b, dims: ProblemDims):
    """The min-info partitions for ell = 1..k (a lazy sequence, index ell - 1)
    and their worst-case (minimum) mutual information per ell, from one call."""
    b = _entries(b, dims)
    parts = min_info_partitions(b)
    return parts, dict(enumerate(mutual_information(model, parts, b), start=1))


def _stirling_log_binom(N: float, r: float) -> float:
    """Leading-order r log(N/r) used by the asymptotic mode."""
    return r * math.log(N / r) if r > 0 else 0.0


def achievability_numerators(dims: ProblemDims, ells: range, delta1: float, gamma: float) -> list:
    """log C(p-k, l) + 2 log(k/d1) + 2 log C(k, l) + gamma per l in ells: the
    numerators that achievability_threshold_generic divides by I_l and the
    thresholds of sim's threshold decoder.  delta1 outside (0, 1] raises
    ValueError."""
    _check_delta1(delta1)
    k = dims.k
    r = np.arange(ells.start, ells.stop)
    return (
        log_binomial(dims.p - k, r) + 2.0 * math.log(k / delta1) + 2.0 * log_binomial(k, r) + gamma
    ).tolist()


def achievability_threshold_generic(
    model: ModelSpec,
    b,
    dims: ProblemDims,
    opts: BoundOptions = BoundOptions(),
    prior: SignalPrior | None = None,
) -> ThresholdResult:
    """Sufficient measurement count: max-ratio over ell in
    {d_max+1..min(k, p-k)} with the worst-case (min-info) partition per ell.

    Returns an infinite threshold (unrecoverable sentinel) if some required
    ell has zero mutual information.  The tail-bound side condition is
    reported in remainder_n, and folded into n_ach only when
    opts.remainder_target is set.
    """
    k, p = dims.k, dims.p
    gamma = gamma_select(opts.gamma_rule, model, prior, dims, opts.delta0)
    ells = range(dims.d_max + 1, min(k, p - k) + 1)
    if not ells:
        return ThresholdResult(n_ach=0.0)
    parts, mi_map = _per_ell_mi(model, b, dims)
    if opts.asymptotic:
        nums = [_stirling_log_binom(p - k, ell) + gamma for ell in ells]
    else:
        nums = achievability_numerators(dims, ells, opts.delta1, gamma)
    rows = [_ratio_row(ell, num, mi_map[ell], 1.0 - opts.delta2) for ell, num in zip(ells, nums)]
    binding, ratio = _binding(rows)
    n_formula = ratio * (1.0 + opts.eta)
    remainder = None
    if math.isfinite(n_formula):
        spec = CHANNELS[model.channel].tail_spec(model, b, parts, mi_map)
        remainder = float(remainder_n_required(spec, dims, ells, opts.remainder_target or 1e-2))
    n_ach = n_formula
    if opts.remainder_target is not None and remainder is not None:
        n_ach = max(n_ach, remainder)
    return ThresholdResult(
        n_ach=n_ach, n_conv=INFINITE, binding=binding, breakdown=tuple(rows), remainder_n=remainder
    )


def log_partial_conv_subtraction(p: int, k: int, ell: int, d_max: int) -> float:
    """log sum_{d=0..d_max} C(p-k, d) C(ell, d), via log-sum-exp over d.

    Terms with d > p - k or d > ell vanish (zero binomial coefficients).
    """
    d = np.arange(0, min(d_max, ell, p - k) + 1)
    terms = (log_binomial(p - k, d) + log_binomial(ell, d)).tolist()
    m = max(terms)
    return m + math.log(sum(math.exp(t - m) for t in terms))


def _converse_numerators(
    p: int, k: int, ells: range, delta1: float, asymptotic: bool
) -> tuple[list[float], list[float]]:
    """(main, num) per ell: main = log C(p-k+l, l), its leading order
    l log((p-k+l)/l) in the asymptotic mode, and the converse numerator
    num = main - log delta1.  delta1 outside (0, 1] raises ValueError."""
    _check_delta1(delta1)
    if asymptotic:
        mains = [_stirling_log_binom(p - k + ell, ell) for ell in ells]
    else:
        r = np.arange(ells.start, ells.stop)
        mains = log_binomial(p - k + r, r).tolist()
    log_d1 = math.log(delta1)
    return mains, [main - log_d1 for main in mains]


def converse_threshold_generic(
    model: ModelSpec,
    b,
    dims: ProblemDims,
    opts: BoundOptions = BoundOptions(),
) -> ThresholdResult:
    """Necessary measurement count (strong-converse sense): max-ratio over
    ell in {d_max+1..k} with converse numerators.

    Partial recovery (d_max > 0) subtracts the confusable-set mass
    log sum_d C(p-k, d) C(ell, d); an ell whose subtracted mass reaches the
    main term is recorded as vacuous and skipped.
    """
    k, p = dims.k, dims.p
    if p == k:
        return ThresholdResult(n_conv=0.0)
    _, mi_map = _per_ell_mi(model, b, dims)
    ells = range(dims.d_max + 1, k + 1)
    mains, nums = _converse_numerators(p, k, ells, opts.delta1, opts.asymptotic)
    rows = []
    for ell, main, num in zip(ells, mains, nums):
        mi = finite_mi(ell, mi_map[ell])
        if dims.d_max > 0:
            sub = log_partial_conv_subtraction(p, k, ell, dims.d_max)
            if sub >= main - 1e-9 * max(1.0, abs(main)):
                rows.append((ell, num, mi, "converse vacuous at this ell"))
                continue
            num -= sub
        rows.append(_ratio_row(ell, num, mi, 1.0 + opts.delta2))
    binding, ratio = _binding(rows)
    # every ell vacuous (no binding): the bound makes no converse claim
    n_conv = 0.0 if binding is None else ratio * (1.0 - opts.eta)
    return ThresholdResult(n_conv=n_conv, binding=binding, breakdown=tuple(rows))


@dataclass(frozen=True)
class FanoRegion:
    boundary_n: float
    description: str


def fano_lower_bound(
    model: ModelSpec,
    b,
    dims: ProblemDims,
    delta2: float,
) -> tuple[float, FanoRegion]:
    """Fano-style baseline: delta2 1{n <= boundary} - 1/log(p - k + 1) with
    boundary = min over partitions of log C(p-k+l, l) (1 - delta2) / I.

    For deterministic b the probability term is an indicator.  Clamped at 0;
    reported alongside the strong converse, which it never exceeds.
    """
    k, p = dims.k, dims.p
    if p == k:
        return 0.0, FanoRegion(boundary_n=0.0, description="no wrong support at p = k")
    b = _entries(b, dims)
    boundary = INFINITE
    r = np.arange(1, k + 1)
    mis = mutual_information(model, [max_info_partition(b, ell) for ell in r.tolist()], b)
    for ell, num, mi in zip(r.tolist(), log_binomial(p - k + r, r).tolist(), mis):
        if finite_mi(ell, mi) <= 0.0:
            continue
        boundary = min(boundary, num * (1.0 - delta2) / mi)
    indicator = 1.0 if dims.n <= boundary else 0.0
    pe = max(0.0, delta2 * indicator - 1.0 / math.log(p - k + 1))
    return pe, FanoRegion(
        boundary_n=boundary,
        description=f"indicator {'on' if indicator else 'off'} at n={dims.n}",
    )


# ---------------------------------------------------------------------------
# Corollaries: linear model
# ---------------------------------------------------------------------------


def _corollary_result(rows, conv_rows, eta: float) -> ThresholdResult:
    """n_ach and binding from rows, n_conv from conv_rows, scaled by (1 +/- eta);
    both infinite, whatever eta, when some ell has zero MI."""
    binding, ratio = _binding(rows)
    if ratio == INFINITE:
        return ThresholdResult(binding=binding, breakdown=tuple(rows))
    n_conv = _binding(conv_rows)[1] * (1.0 - eta)
    return ThresholdResult(ratio * (1.0 + eta), n_conv, binding, tuple(rows))


def cor_linear_exact(
    b: Sequence[float], sigma: float, p: int, k: int, eta: float = 0.0
) -> ThresholdResult:
    """Exact-recovery thresholds for the linear channel with fixed entries.

    n_ach = max_ell log C(p-k, l) / ((1/2) log(1 + sum_l-smallest b^2/sigma^2))
    scaled by (1 + eta); n_conv replaces C(p-k, l) by C(p-k+l, l) and scales
    by (1 - eta).
    """
    _check_eta(eta)
    if p == k:
        return ThresholdResult(n_ach=0.0, n_conv=0.0)
    sq, r = np.sort(np.asarray(b, dtype=float) ** 2), np.arange(1, k + 1)
    mis = [0.5 * math.log1p(float(np.sum(sq[:ell])) / sigma**2) for ell in r.tolist()]
    ach = zip(r.tolist(), log_binomial(p - k, r[: p - k]).tolist(), mis)  # ell <= min(k, p - k)
    conv = zip(r.tolist(), log_binomial(p - k + r, r).tolist(), mis)
    return _corollary_result([_ratio_row(*t) for t in ach], [_ratio_row(*t) for t in conv], eta)


def lasso_comparison_constant(c_beta: float, grid_points: int = 10**4) -> tuple[float, float]:
    """sup_{alpha in (0,1]} alpha / ((1/2) log(1 + c_beta alpha)) and argmax.

    The supremum is attained at alpha = 1, giving 2 / log(1 + c_beta).
    """
    alphas = np.linspace(1.0 / grid_points, 1.0, grid_points)
    vals = alphas / (0.5 * np.log1p(c_beta * alphas))
    i = int(np.argmax(vals))
    return float(vals[i]), float(alphas[i])


@dataclass(frozen=True)
class PartialCurves:
    """Asymptotic partial-recovery coefficients of k log(p/k)."""

    coef_ach: float
    coef_conv: float
    alpha_ach: float
    alpha_conv: float


def _maximize_partial(denoms: tuple, c_beta, alpha_star: float, grid_points: int, eta: float):
    """Maximize alpha/D and (alpha - alpha*)/D over [alpha*, 1] for each
    denominator D(alpha, c_beta) of `denoms` (arrays broadcast against each
    other) and each c_beta, on a grid refined by golden-section; ties
    resolve to the smaller alpha.  The maxima are scaled by (1 + eta) and
    (1 - eta).

    Returns a tuple with one entry per denominator.  A float c_beta is a
    sequence of one: its entry is one PartialCurves, a sequence's a list.
    Every (denominator, c_beta) lane takes its two grid argmaxes from one
    lockstep bisection (`_bisect_argmax`: np.argmax of the whole grid from a
    few percent of its points) and its refinements from one `_golden_lanes`
    pass, each level and step one `_lanes` call.  A denominator not > 0 at
    a refinement point raises NonConvergenceError."""
    _check_eta(eta)
    if grid_points < 2:
        raise ValueError(f"grid_points must be at least 2, got {grid_points!r}")
    if not 0.0 <= alpha_star <= 1.0:
        raise ValueError(f"alpha_star must lie in [0, 1], got {float(alpha_star)!r}")
    if alpha_star == 0.0:  # alpha / denom(alpha) grows without bound as alpha -> 0
        raise ValueError("alpha_star must be > 0: both coefficients are infinite at alpha_star = 0")
    single = np.ndim(c_beta) == 0
    cbs = np.asarray([c_beta] if single else list(c_beta), dtype=float)
    n, alphas = cbs.size, np.linspace(alpha_star, 1.0, grid_points)
    best = _bisect_argmax(_lanes(denoms, cbs, False), len(denoms) * n, alphas, alpha_star)
    lane, checked = np.arange(len(denoms) * n).repeat(2), _lanes(denoms, cbs, True)
    offset = np.tile([0.0, alpha_star], len(denoms) * n)
    x, v = _golden_lanes(lambda x, i: (x - offset[i]) / checked(x, lane[i]), alphas, best)
    x, v = x.tolist(), v.tolist()
    out = [PartialCurves(v[j] * (1.0 + eta), v[j + 1] * (1.0 - eta), x[j], x[j + 1])
           for j in range(0, len(x), 2)]
    return tuple(out[i] if single else out[i * n : i * n + n] for i in range(len(denoms)))


def _lanes(denoms: tuple, cbs: np.ndarray, check: bool) -> Callable:
    """denom(alpha, lanes) for an int array of lane ids, lane i being
    denominator i // cbs.size of `denoms` at c_beta cbs[i % cbs.size].  A
    call runs each denominator once on its own points, in order; with check,
    a value not > 0 raises NonConvergenceError before the next one runs."""
    def call(f, x, cb):
        den = f(x, cb)
        if check and not (den > 0.0).all():
            j = int(np.argmax(~(den > 0.0)))
            raise NonConvergenceError(
                f"the partial-recovery denominator is {float(den[j]):g} at alpha={float(x[j]):.6g}, "
                f"c_beta={float(cb[j]):g}: the SNR is too low, or alpha* too small, for the "
                f"quadrature to resolve")
        return den

    def denom(x, lanes):
        own, cb, out = lanes // cbs.size, cbs[lanes % cbs.size], np.empty(x.shape)
        for j, f in enumerate(denoms):
            if (on := own == j).any():
                out[on] = call(f, x[on], cb[on])
        return out

    return denom


# Slack of the bisection's interval bound num(alpha_j) / (D(alpha_i) - eps):
# relative, for the rounding of the divisions, and absolute.  Below about
# -100 dB Psi is the difference of two expectations near log 2 and falls to
# 1e-11 ... 3e-15, where rounding leaves the grid non-monotone (most steps
# do not rise at -130 dB); a relative margin alone then drops intervals that
# hold the argmax.  The largest fall of D below its running maximum measured
# over -140 ... 80 dB is 2.2e-16 (the verify check
# partial-argmax-vs-full-grid asserts it stays within _BOUND_ABS).
_BOUND_REL = 1e-9
_BOUND_ABS = 1e-13


def _bisect_argmax(denom: Callable, n: int, alphas: np.ndarray, alpha_star: float) -> np.ndarray:
    """Each of the n lanes' grid argmaxes of the ach and conv objectives,
    alpha/D and (alpha - alpha*)/D where D > 0, else inf and 0, the conv one
    0 at the grid's first point, as np.argmax of the whole grid gives them
    (the first maximum), in order [ach 0, conv 0, ach 1, ...].  D =
    denom(alpha, lanes) takes int lane ids.

    Both numerators rise with alpha and D is non-decreasing on the grid up
    to _BOUND_ABS, so every point inside a grid interval [i, j] has an
    objective at most num(alpha_j) / (D(alpha_i) - _BOUND_ABS), raised by
    _BOUND_REL, and unbounded where D(alpha_i) <= _BOUND_ABS.  Each lane
    starts with its grid's two end points.  An interval lives while its
    bound can reach its objective's best value so far: on >= left of the
    best index and on > right of it, since a later point wins only a strict
    maximum.  An interval whose ends share one alpha (every interval at
    alpha* = 1) holds only points equal to its visited left end and never
    lives.  Each level halves every live interval of every lane with one
    denom call over the midpoints; a lane's ach and conv objectives share
    its D values."""
    last = len(alphas) - 1
    best = np.full((n, 2), -INFINITE)  # each objective's best value so far
    at = np.full((n, 2), last + 1)  # and its grid index

    def visit(owner, idx):
        """D at grid points idx of lanes owner; folds their objectives
        into each lane's best, the smaller index winning a tie."""
        a = alphas[idx]
        dens = denom(a, owner)
        with np.errstate(divide="ignore", invalid="ignore"):
            obj_a = np.where(dens > 0, a / dens, INFINITE)
            obj_c = np.where((dens > 0) & (idx > 0), (a - alpha_star) / dens, 0.0)
        obj = np.stack([obj_a, obj_c], axis=1)
        top = np.full((n, 2), -INFINITE)
        np.maximum.at(top, owner, obj)
        first = np.full((n, 2), last + 1)
        np.minimum.at(first, owner, np.where(obj == top[owner], idx[:, None], last + 1))
        better = (top > best) | ((top == best) & (first < at))
        best[better], at[better] = top[better], first[better]
        return dens

    own = np.arange(n)
    lo, hi = np.zeros(n, dtype=int), np.full(n, last)
    d_lo = visit(np.concatenate([own, own]), np.concatenate([lo, hi]))[:n]
    while True:
        num = np.stack([alphas[hi], alphas[hi] - alpha_star], axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = np.where(
                (d_lo > _BOUND_ABS)[:, None], num / (d_lo - _BOUND_ABS)[:, None], INFINITE
            )
        bound *= 1.0 + _BOUND_REL
        reach = np.where(hi[:, None] <= at[own], bound >= best[own], bound > best[own])
        live = reach.any(axis=1) & (hi - lo > 1) & (alphas[lo] < alphas[hi])
        if not live.any():
            return at.ravel()
        own, lo, hi, d_lo = own[live], lo[live], hi[live], d_lo[live]
        mid = (lo + hi) // 2
        d_mid = visit(own, mid)
        own = np.concatenate([own, own])
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        d_lo = np.concatenate([d_lo, d_mid])


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_lanes(f, grid: np.ndarray, best, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maximization of every lane at once, lane i bracketed by
    the grid neighbors of its grid argmax best[i]: (argmax, max) arrays, one
    element per lane.

    f(x, lanes) is the objective at the points x of the lanes `lanes` (an
    index array).  All lanes take their steps together, so each step is one
    f call over the live lanes, and each lane takes the steps of the scalar
    loop bit for bit: it keeps the left part when f(c) >= f(d), stops once
    its own b - a <= tol (a bracket that starts so narrow takes no step), and
    gives x = c if f(c) >= f(d) else d, with the value max(f(c), f(d)) as
    Python's max takes it.  A minimizer maximizes the exact negation."""
    best = np.asarray(best, dtype=int)
    a = grid[np.maximum(best - 1, 0)]
    b = grid[np.minimum(best + 1, len(grid) - 1)]
    if not a.size:
        return a, b
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    every = np.arange(a.size)
    fcd = f(np.concatenate([c, d]), np.concatenate([every, every]))
    fc, fd = fcd[: a.size], fcd[a.size :]
    live = every[b - a > tol]
    while live.size:
        left = fc[live] >= fd[live]
        keep, drop = live[left], live[~left]
        # left part: b, d, fd = d, c, fc; c = b - invphi (b - a)
        b[keep], d[keep], fd[keep] = d[keep], c[keep], fc[keep]
        c[keep] = b[keep] - _INVPHI * (b[keep] - a[keep])
        # right part: a, c, fc = c, d, fd; d = a + invphi (b - a)
        a[drop], c[drop], fc[drop] = c[drop], d[drop], fd[drop]
        d[drop] = a[drop] + _INVPHI * (b[drop] - a[drop])
        fx = f(np.where(left, c[live], d[live]), live)
        fc[keep], fd[drop] = fx[left], fx[~left]
        live = live[b[live] - a[live] > tol]
    return np.where(fc >= fd, c, d), np.where(fd > fc, fd, fc)


def cor_linear_partial(
    c_beta,
    sigma: float = 1.0,
    alpha_star: float = 0.1,
    eta: float = 0.0,
    grid_points: int = 10**4,
) -> PartialCurves | list[PartialCurves]:
    """Partial-recovery coefficients for the linear channel, Gaussian prior:

        coef_ach  = max_{a in [a*,1]}  a / ((1/2) log(1 + c_beta g(a)/sigma^2))
        coef_conv = max_{a in [a*,1]} (a - a*) / (same denominator),

    both multiplying k log(p/k); eta scales them by (1 +/- eta).  A float
    c_beta returns one PartialCurves, a sequence a list: the one-denominator
    `_maximize_partial` call.
    """
    denom = functools.partial(linear_partial_denominator, sigma=sigma)
    return _maximize_partial((denom,), c_beta, alpha_star, grid_points, eta)[0]


# math.log1p per element: np.log1p differs from it in the last bit on some
# numpy builds, and the figure CSVs must not change.  It returns objects, a
# bare float for a 0-d argument, which np.asarray turns into float64.
_log1p = np.frompyfunc(math.log1p, 1, 1)


def linear_partial_denominator(alpha: np.ndarray, c_beta, sigma: float = 1.0) -> np.ndarray:
    """(1/2) log(1 + c_beta g(alpha) / sigma^2), the linear channel's
    partial-recovery denominator, for an array alpha and a float or array
    c_beta broadcast against it."""
    return 0.5 * np.asarray(_log1p(c_beta * g_alpha(alpha) / sigma**2), dtype=float)


# ---------------------------------------------------------------------------
# Corollaries: 1-bit model
# ---------------------------------------------------------------------------


def cor_1bit_exact_lowsnr(
    b: Sequence[float], sigma: float, p: int, k: int, eta: float = 0.0
) -> ThresholdResult:
    """Low-SNR 1-bit thresholds (k fixed, entries o(1)): both directions equal

        max_ell (ell log p) / ((1/(pi sigma^2)) sum_{ell smallest} b^2),

    scaled by (1 + eta) / (1 - eta) respectively.  Ties go to the smallest
    ell.
    """
    _check_eta(eta)
    sq = np.sort(np.asarray(b, dtype=float) ** 2)
    rows = [_ratio_row(ell, ell * math.log(p), float(np.sum(sq[:ell])) / (math.pi * sigma**2))
            for ell in range(1, k + 1)]
    return _corollary_result(rows, rows, eta)


def cor_1bit_highsnr_converse(
    b0: float,
    sigma: float,
    p: int,
    k: int,
    eta: float = 0.0,
) -> float:
    """High-SNR 1-bit necessary count (k proportional to p, equal entries):

        log p / [ (1/2) (b0^2/sigma^2) / sqrt(2 pi k b0^2/sigma^2)
                  E[W log((1-Q(W))/Q(W))] ] * (1 - eta).
    """
    _check_eta(eta)
    snr = b0**2 / sigma**2
    denom = 0.5 * snr / math.sqrt(2.0 * math.pi * k * snr)
    denom *= gaussian_logit_slope_constant()
    return math.log(p) / denom * (1.0 - eta)


def psi_function_1bit(alpha, c_beta, sigma: float = 1.0):
    """Psi(alpha, c_beta, sigma) =
        E[H2(Q(W sqrt(c_beta (1-g)/(sigma^2 + c_beta g))))]
        - E[H2(Q(W sqrt(c_beta)/sigma))],  g = g_alpha(alpha).

    Always in [0, log 2]; a non-finite quadrature value (e.g. c_beta = inf)
    raises NonConvergenceError.  alpha and c_beta, floats or arrays, are
    broadcast against each other through one array path; a 0-d result is
    returned as a float, as g_alpha does.  The first expectation is one
    mean_entropy_q_scaled call on all the points; the alpha-free second one
    is a cached lookup per element of c_beta, computed once per c_beta.
    """
    g = g_alpha(alpha)
    a1 = np.sqrt(c_beta * (1.0 - g) / (sigma**2 + c_beta * g))
    eps = numerics._ENTROPY_PERTURBATION
    cbs = np.asarray(c_beta, dtype=float)
    full = np.array([_psi_full_term(cb, sigma, eps) for cb in cbs.ravel().tolist()])
    diff = mean_entropy_q_scaled(a1) - full.reshape(cbs.shape)
    if not np.isfinite(diff).all():
        raise NonConvergenceError(f"Psi quadrature is not finite at c_beta={c_beta}, sigma={sigma}")
    psi = np.where(diff > 0.0, diff, 0.0)
    return float(psi) if psi.ndim == 0 else psi


# Holds every c_beta of a figure call up to this many SNR points; beyond it
# the lockstep steps recompute the term, with the same value.
@functools.lru_cache(maxsize=1024)
def _psi_full_term(c_beta: float, sigma: float, eps: float) -> float:
    """E[H2(Q(W sqrt(c_beta)/sigma))], the alpha-free term of Psi.  `eps`
    is the entropy perturbation in force: it scales the value, so it is
    part of the cache key."""
    return mean_entropy_q_scaled(math.sqrt(c_beta) / sigma)


def cor_1bit_partial(
    c_beta,
    sigma: float = 1.0,
    alpha_star: float = 0.1,
    eta: float = 0.0,
    grid_points: int = 10**4,
) -> PartialCurves | list[PartialCurves]:
    """Partial-recovery coefficients for the 1-bit channel: as the linear
    case with denominator Psi(alpha, c_beta, sigma), float or sequence
    c_beta alike, one psi_function_1bit call per bisection level (about 12
    at 2001 points) and golden-section step."""
    denom = functools.partial(psi_function_1bit, sigma=sigma)
    return _maximize_partial((denom,), c_beta, alpha_star, grid_points, eta)[0]


# ---------------------------------------------------------------------------
# Corollaries: group testing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GtNoiselessResult:
    coef_ach: float
    coef_conv: float
    nu_star: float


def _thetas(theta) -> tuple[bool, list]:
    """(single, thetas): a float theta as a list of one; each in (0, 1)."""
    single = np.ndim(theta) == 0
    thetas = [theta] if single else list(theta)
    if not all(0.0 < t < 1.0 for t in thetas):
        raise ValueError("theta must lie in (0, 1)")
    return single, thetas


def _grid_golden_min(objective, grid: np.ndarray, thetas: list) -> tuple[list, list]:
    """(argmins, minima) of objective(theta, x) over x for each theta: the
    argmin of the theta's grid values, refined by one `_golden_lanes` pass
    over all the thetas on the exact negation."""
    best = [int(np.argmin(objective(t, grid))) for t in thetas]
    th = np.array(thetas, dtype=float)
    x, v = _golden_lanes(lambda x, lanes: -objective(th[lanes], x), grid, best)
    return x.tolist(), (-v).tolist()


def cor_gt_noiseless(theta, eta: float = 0.0) -> GtNoiselessResult | list[GtNoiselessResult]:
    """Noiseless group-testing coefficients of k log(p/k) at sparsity
    exponent theta:

        coef_ach  = inf_{nu>0} max{ theta/(e^-nu nu (1-theta)), 1/H2(e^-nu) }
        coef_conv = 1 / log 2.

    The second term is globally minimized at nu = log 2 where H2(e^-nu)
    attains log 2, so the infimum equals 1/log 2 exactly whenever the first
    term allows it (theta <= 1/3).  A float theta returns one result; a
    sequence returns a list, its golden-section refinements run in lockstep.
    """
    _check_eta(eta)
    single, thetas = _thetas(theta)
    grid = np.linspace(1e-3, 5.0, 256)
    nu_stars, bests = _grid_golden_min(_gt_noiseless_objective, grid, thetas)
    # nu = log 2 minimizes the second term exactly; prefer it when optimal
    at_log2s = _gt_noiseless_objective(np.array(thetas, dtype=float), np.full(len(thetas), LOG2))
    out = []
    for nu_star, best, at_log2 in zip(nu_stars, bests, at_log2s.tolist()):
        if at_log2 <= best + 1e-15:
            nu_star, best = LOG2, at_log2
        out.append(GtNoiselessResult(
            coef_ach=best * (1.0 + eta),
            coef_conv=(1.0 / LOG2) * (1.0 - eta),
            nu_star=nu_star,
        ))
    return out[0] if single else out


def _gt_noiseless_objective(theta, nu):
    """max{theta/(e^-nu nu (1-theta)), 1/H2(e^-nu)} at each element of an
    array of nus, theta a float or an array broadcast against it: e^-nu by
    math.exp (np.exp differs from it in the last bit on some numpy builds),
    so each element has the bits of the scalar formula."""
    e = np.array([math.exp(-v) for v in nu.tolist()])
    return np.maximum(theta / (e * nu * (1.0 - theta)), 1.0 / binary_entropy(e))


def gt_noisy_zeta(rho: float, delta2, theta):
    """Concentration-side coefficient for noisy group testing at nu = log 2:

        zeta = (2/log 2) max{ 2 (1 + delta2 (1-2 rho)/3) theta/(1-theta)
                                  / (delta2^2 (1-2 rho)^2),
                              ((1+4 theta)/(1-theta))
                                  / ((1-2 rho) log((1-rho)/rho) (1-delta2)) }.

    Arrays of delta2 and theta are broadcast against each other and give an
    array, each element equal to the scalar call.
    """
    gap = 1.0 - 2.0 * rho
    t1 = 2.0 * (1.0 + delta2 * gap / 3.0) * (theta / (1.0 - theta)) / (delta2**2 * gap**2)
    t2 = ((1.0 + 4.0 * theta) / (1.0 - theta)) / (gap * math.log((1.0 - rho) / rho) * (1.0 - delta2))
    return (2.0 / LOG2) * np.maximum(t1, t2)


@dataclass(frozen=True)
class GtNoisyResult:
    coef_ach: float
    coef_conv: float
    delta2_star: float


def cor_gt_noisy(theta, rho: float, eta: float = 0.0) -> GtNoisyResult | list[GtNoisyResult]:
    """Noisy group-testing coefficients (nu = log 2):

        coef_ach  = inf_{delta2 in (0,1)} max{ zeta(rho, delta2, theta),
                                               1/(log 2 - H2(rho)) }
        coef_conv = 1 / (log 2 - H2(rho)).

    A float theta returns one result; a sequence returns a list, its
    golden-section refinements run in lockstep.
    """
    _check_eta(eta)
    if not 0.0 < rho < 0.5:
        raise ValueError(f"rho must lie in (0, 0.5), got {float(rho)!r}")
    single, thetas = _thetas(theta)
    floor = 1.0 / _gt_capacity(rho)
    grid = np.linspace(1e-4, 1.0 - 1e-4, 256)
    zeta = lambda t, d2: gt_noisy_zeta(rho, d2, t)
    out = []
    for d2_star, zeta_min in zip(*_grid_golden_min(zeta, grid, thetas)):
        # the converse-matching floor is exact whenever some delta2 drives the
        # concentration side below it
        out.append(GtNoisyResult(
            coef_ach=max(zeta_min, floor) * (1.0 + eta),
            coef_conv=floor * (1.0 - eta),
            delta2_star=d2_star,
        ))
    return out[0] if single else out


def cor_gt_partial(rho: float, alpha_star: float, eta: float = 0.0) -> tuple[float, float]:
    """Partial-recovery group-testing coefficients (possibly noiseless):

        coef_ach  = 1 / (log 2 - H2(rho))
        coef_conv = (1 - alpha*) / (log 2 - H2(rho)).
    """
    _check_eta(eta)
    if not 0.0 <= rho < 0.5:
        raise ValueError(f"rho must lie in [0, 0.5), got {float(rho)!r}")
    base = 1.0 / _gt_capacity(rho)
    return base * (1.0 + eta), (1.0 - alpha_star) * base * (1.0 - eta)


def _gt_capacity(rho: float) -> float:
    """log 2 - H2(rho), which the group-testing coefficients divide by; it
    rounds to 0 or below within about 1e-8 of 0.5, and then raises ValueError."""
    cap = LOG2 - binary_entropy(rho)
    if not cap > 0.0:
        raise ValueError(f"rho={float(rho)!r} is too close to 0.5: log 2 - H2(rho) rounds to {cap:g}")
    return cap


def gt_logit_entropy_margin(rho: float) -> float:
    """(1 - 2 rho) log((1-rho)/rho) - 4 (log 2 - H2(rho)); >= 0 on (0, 0.5)."""
    return (1.0 - 2.0 * rho) * math.log((1.0 - rho) / rho) - 4.0 * (
        LOG2 - binary_entropy(rho)
    )


# ---------------------------------------------------------------------------
# General finite-alphabet converse
# ---------------------------------------------------------------------------


def cor_general_discrete_converse(
    model: ModelSpec,
    b,
    dims: ProblemDims,
    alphabet_size: int,
    delta1: float = 0.01,
    eps: float = 0.01,
    max_iter: int = 500,
    tol: float = 1e-9,
) -> float:
    """Largest n violating

        n >= max_ell [log C(p-k+l, l) - log delta1] / [I_l + sqrt(|Y|/(n eps))]

    solved by fixed-point iteration on n (the additive denominator term
    decays as n^{-1/2}).
    """
    if dims.p == dims.k:
        return 0.0
    _, mi_map = _per_ell_mi(model, b, dims)
    ells = range(1, dims.k + 1)
    nums = dict(zip(ells, _converse_numerators(dims.p, dims.k, ells, delta1, False)[1]))

    def rhs(n: float) -> float:
        extra = math.sqrt(alphabet_size / (n * eps))
        return max(nums[ell] / (finite_mi(ell, mi_map[ell]) + extra) for ell in nums)

    n = max(rhs(1.0), 1.0)
    for _ in range(max_iter):
        n_next = rhs(n)
        if abs(n_next - n) <= tol * max(1.0, n):
            return n_next
        n = n_next
    raise NonConvergenceError(
        "fixed-point iteration for the finite-alphabet converse did not converge"
    )


# ---------------------------------------------------------------------------
# Figure tables
# ---------------------------------------------------------------------------

FIG_PARTIAL = "partial-recovery"
FIG_GT_NOISELESS = "gt-noiseless"
FIG_GT_NOISY = "gt-noisy"


def figure_table(figure: str, grid: dict) -> tuple[list[tuple[float, str, float]], list[str]]:
    """(rows, notes): the (x, curve-name, y) rows behind the three numeric
    figures, the curve name stating the unit, and lines naming the optimizer
    behind them, both from one optimizer pass per curve family.

    partial-recovery: y = n/(k log(p/k)) coefficients in nats vs SNR in dB,
    four curves (linear/1-bit x ach/conv), alpha* and sigma from the grid;
    every SNR's c_beta is checked (`c_beta_from_snr`), then both channels
    share one `_maximize_partial` pass; a note per SNR gives the four
    maximizing alphas.
    gt-noiseless / gt-noisy: y = base-2 rate k log2(p/k)/n vs theta,
    achievability and converse curves (per rho for the noisy figure); a note
    per noiseless row gives nu*, one per (theta, rho), theta-major, delta2*.
    """
    rows: list[tuple[float, str, float]] = []
    notes: list[str] = []
    if figure == FIG_PARTIAL:
        alpha_star = grid.get("alpha_star", 0.1)
        sigma = grid.get("sigma", 1.0)
        gp = grid.get("grid_points", 2001)
        c_betas = [c_beta_from_snr(snr, sigma) for snr in grid["snr_db"]]
        denoms = (functools.partial(linear_partial_denominator, sigma=sigma),
                  functools.partial(psi_function_1bit, sigma=sigma))
        lin, ob = _maximize_partial(denoms, c_betas, alpha_star, gp, 0.0)
        for snr, lc, oc in zip(grid["snr_db"], lin, ob):
            rows += [
                (snr, "linear-ach-coef-nats", lc.coef_ach),
                (snr, "linear-conv-coef-nats", lc.coef_conv),
                (snr, "1bit-ach-coef-nats", oc.coef_ach),
                (snr, "1bit-conv-coef-nats", oc.coef_conv),
            ]
            notes.append(
                f"snr={snr:g} linear alpha*={lc.alpha_ach:.4f}/{lc.alpha_conv:.4f} "
                f"1bit alpha*={oc.alpha_ach:.4f}/{oc.alpha_conv:.4f}"
            )
        return rows, notes
    if figure == FIG_GT_NOISELESS:
        for theta, res in zip(grid["theta"], cor_gt_noiseless(grid["theta"])):
            for curve, coef in (("ach-rate-log2", res.coef_ach), ("conv-rate-log2", res.coef_conv)):
                rate = 1.0 / (coef * LOG2)
                rows.append((theta, curve, rate))
                notes.append(f"theta={theta:.4g} {curve} rate={rate:.6f} nu*={res.nu_star:.6f}")
        return rows, notes
    if figure == FIG_GT_NOISY:
        thetas, rhos = grid["theta"], grid.get("rho", (0.11,))
        per_rho = [cor_gt_noisy(thetas, rho) for rho in rhos]
        for rho, results in zip(rhos, per_rho):
            for theta, res in zip(thetas, results):
                rows += [
                    (theta, f"ach-rate-log2 rho={float(rho)!r}", 1.0 / (res.coef_ach * LOG2)),
                    (theta, f"conv-rate-log2 rho={float(rho)!r}", 1.0 / (res.coef_conv * LOG2)),
                ]
        return rows, [
            f"theta={theta:.4g} rho={float(rho)!r} delta2*={results[i].delta2_star:.6f}"
            for i, theta in enumerate(thetas)
            for rho, results in zip(rhos, per_rho)
        ]
    raise ValueError(f"unknown figure {figure!r}")


def figure_curves(figure: str, grid: dict) -> list[tuple[float, str, float]]:
    """The (x, curve-name, y) rows of `figure_table(figure, grid)`, without
    its notes."""
    return figure_table(figure, grid)[0]
