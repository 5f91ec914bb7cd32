"""
Tail bounds psi_ell(n, delta2) for the n-fold information-density sum, and a
solver for the measurement count that drives the weighted remainder
sum_ell C(k, ell) psi_ell(n, delta2) below a target.

Four families bound P[|i^n - n I| >= n delta2 I] (the lower tail only for
group testing) given beta = b, all as min(1, scale exp(-q n / den)), which
`tail` evaluates.  Each is written once, as the `*_terms` function of its
n-free (scale, q, den):

    bernstein-discrete  2, d^2, 2 (8|Y| + 2 d)        d = delta2 I
    bernstein-linear    2, d^2, 2 (4 a^2 + d a)       a = 2 s (sigma + s) / (sigma^2 + s^2)
    chernoff-gt         1, (l/k) e^-nu nu ((1-d2) log(1-d2) + d2)(1-eps), 1
    bennett-gt-noisy    1, (l/k) e^-nu nu d2^2 (1-2 rho)^2 / (2 (1 + d2 (1-2 rho)/3)) (1-eps), 1

with s^2 = sum_dif b_i^2 and I = (1/2) log(1 + s^2 / sigma^2) for the linear
family.  The group-testing families hold for l = o(k), with the explicit eps
slack for "sufficiently large p".  Which family a channel uses, over which
ell and with which delta2, is stated by the channel's `tail_specs` in
`channels`.  Chebyshev, min(1, V / (n (delta2 I)^2)), is a scalar bound
only: no TailBoundSpec uses it.

remainder_n_required finds the smallest n whose sum is at most the target.
remainder_sum, a plain loop over ell with math.exp, is the exact sum and is
nonincreasing in n, so that n is unique.  Newton steps on the log of the
uncapped sum, over arrays of the per-ell terms, propose n, and the exact sum
confirms it at n and n - 1.

This module imports only `numerics`, so that `channels` can build its
families from it.
"""
from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .numerics import log_binomial

E_SQ_CAP = (4.0 / math.e) ** 2

UNBOUNDED = float("inf")

Terms = tuple[float, float, float]


def psi_chebyshev(I: float, V: float, n: int, delta2: float) -> float:
    """Chebyshev two-sided tail: min(1, V / (n (delta2 I)^2)); trivial at n = 0."""
    if I <= 0 or n < 0:
        raise ValueError("psi_chebyshev needs I > 0 and n >= 0")
    if V == 0.0:
        return 0.0
    if n == 0:
        return 1.0
    return min(1.0, V / (n * (delta2 * I) ** 2))


def variance_cap_discrete(alphabet_size: int) -> float:
    """Uniform variance cap |Y| (4/e)^2 for finite observation alphabets."""
    if alphabet_size < 2:
        raise ValueError("alphabet_size must be >= 2")
    return alphabet_size * E_SQ_CAP


def tail(scale: float, q: float, den: float, n: int) -> float:
    """A family's tail at n from its n-free terms: min(1, scale exp(-q n / den))."""
    return min(1.0, scale * math.exp(-q * n / den))


def bernstein_discrete_terms(I: float, alphabet_size: int, delta2: float) -> Terms:
    """Bernstein two-sided tail for finite alphabets."""
    if I <= 0:
        raise ValueError("bernstein_discrete_terms needs I > 0")
    d = delta2 * I
    return 2.0, d * d, 2.0 * (8.0 * alphabet_size + 2.0 * d)


def bernstein_linear_terms(s_sq: float, sigma: float, delta2: float) -> Terms:
    """Bernstein two-sided tail for the linear channel, from the energy
    s^2 = sum_dif b^2 of the differing entries."""
    if s_sq == 0.0:  # the density is constant: the tail is 0
        return 0.0, 0.0, 1.0
    s = math.sqrt(s_sq)
    a = 2.0 * s * (sigma + s) / (sigma**2 + s * s)
    I = 0.5 * math.log1p(s_sq / sigma**2)
    d = delta2 * I
    return 2.0, d * d, 2.0 * (4.0 * a * a + d * a)


def chernoff_gt_terms(nu: float, k: int, ell: int, delta2: float, eps: float) -> Terms:
    """Binomial-Chernoff lower-tail bound for noiseless group testing."""
    if not 0.0 < delta2 < 1.0:
        raise ValueError("delta2 must lie in (0, 1)")
    h = (1.0 - delta2) * math.log(1.0 - delta2) + delta2
    return 1.0, (ell / k) * math.exp(-nu) * nu * h * (1.0 - eps), 1.0


def bennett_gt_noisy_terms(
    nu: float, rho: float, k: int, ell: int, delta2: float, eps: float
) -> Terms:
    """Bennett-form lower-tail bound for noisy group testing (rho in (0, 0.5))."""
    if not 0.0 < delta2 < 1.0:
        raise ValueError("delta2 must lie in (0, 1)")
    gap = 1.0 - 2.0 * rho
    rate = (
        (ell / k)
        * math.exp(-nu)
        * nu
        * (delta2 * delta2 * gap * gap)
        / (2.0 * (1.0 + delta2 * gap / 3.0))
        * (1.0 - eps)
    )
    return 1.0, rate, 1.0


class TailBoundSpec:
    """One family over ell_lo <= ell <= ell_hi (ell_hi None: no upper end).

    terms(ell) gives the family's n-free (scale, q, den) for that ell, with
    delta2 and the model parameters bound in; it is evaluated once per ell.
    """

    def __init__(self, terms: Callable[[int], Terms], ell_lo: int = 1, ell_hi: int | None = None):
        self.terms = functools.cache(terms)
        self.ell_lo = ell_lo
        self.ell_hi = ell_hi

    def covers(self, ell: int) -> bool:
        return ell >= self.ell_lo and (self.ell_hi is None or ell <= self.ell_hi)

    def psi(self, ell: int, n: int) -> float:
        return tail(*self.terms(ell), n)


@functools.lru_cache(maxsize=4096)
def _binomial_weight(k: int, ell: int) -> float:
    """C(k, ell) as a float; ValueError where it exceeds the float range."""
    try:
        return math.exp(log_binomial(k, ell))
    except OverflowError:
        raise ValueError(f"k = {k} is too large for the remainder sum: C({k}, {ell}) "
                         f"exceeds the float range") from None


def remainder_sum(
    specs: Sequence[TailBoundSpec],
    dims,
    ell_range: Sequence[int],
    n: int,
) -> float:
    """sum over ell of C(k, ell) psi_ell(n, delta2), k = dims.k; each ell
    takes the first spec that covers it."""
    total = 0.0
    for ell in ell_range:
        for spec in specs:
            if spec.covers(ell):
                total += _binomial_weight(dims.k, ell) * spec.psi(ell, n)
                break
    return total


def remainder_n_required(
    specs: Sequence[TailBoundSpec],
    dims,
    ell_range: Sequence[int],
    target: float,
    n_cap: int = 2**30,
) -> int | float:
    """Smallest n with the remainder probability bound <= target.

    The weighted sum caps at 1 (it bounds a union probability), so a target
    of 1 is vacuous and yields n = 0.  Returns the UNBOUNDED sentinel (inf)
    if no n <= n_cap suffices (n_cap below 1 counts as 1).

    The exact bound, min(1, remainder_sum), is nonincreasing in n: each
    term min(1, scale exp(-q n / den)) is built from operations monotone in
    n, and the weighted terms are added in a fixed order.  So the smallest
    passing n is unique, and any search that brackets it finds the same n.
    Each ell's c = C(k, ell) scale and r = q / den are read once per solve
    into arrays, and `_newton_guess` finds where sum_ell c exp(-r n) falls
    to the target.  Below a target of 1 the min(1, .) caps do not move that
    point: where the capped sum is at most the target, every term is at
    most target / C(k, ell) < 1, so none is capped.  The guess is taken
    with np.exp, which differs from math.exp in the last bit for a few
    percent of arguments, so it only proposes n: `_first_passing` confirms
    it on the exact sum, at a cost of two remainder_sum calls when it is
    right (one when it is 0 or UNBOUNDED); otherwise it gallops and bisects
    from the guess on exact sums.
    """
    if not 0.0 < target <= 1.0:
        raise ValueError("target must lie in (0, 1]")
    ells = list(ell_range)
    rows = []
    for ell in ells:  # each ell's (c, r), read once, from the spec remainder_sum uses
        for spec in specs:
            if spec.covers(ell):
                scale, q, den = spec.terms(ell)
                rows.append((_binomial_weight(dims.k, ell) * scale, q / den))
                break
    c, r = np.array(rows, dtype=float).reshape(-1, 2).T
    exact = lambda n: min(1.0, remainder_sum(specs, dims, ells, n))
    cap = max(n_cap, 1)
    return _first_passing(exact, target, cap, _newton_guess(c, r, target, cap))


# a safety cap: convergence is quadratic, and the thresholds benchmark's
# solves stop after 1 or 2 steps
_NEWTON_STEPS = 50
_NEWTON_TOL = 1e-6


def _newton_guess(c: np.ndarray, r: np.ndarray, target: float, cap: int) -> int:
    """ceil of the root of f(n) = log sum_ell c_ell exp(-r_ell n) - log target,
    clamped to [0, cap]: the uncapped remainder sum's crossing point.

    f is convex and decreasing, and the largest one-term root is at or below
    its root, so Newton steps from there rise to the root without passing
    it; they stop once a step is below _NEWTON_TOL of n.  Terms with c = 0
    drop out; one with c > 0 that never falls (r <= 0) sends the guess to
    cap.  Sums are taken as exp(e - max e) of the log terms e, so nothing
    overflows.
    """
    live = c > 0.0
    c, r = c[live], r[live]
    if target >= 1.0 or c.size == 0:
        return 0
    if np.any(r <= 0.0):
        return cap
    log_c, log_t = np.log(c), math.log(target)
    n = max(float(np.max((log_c - log_t) / r)), 0.0)
    for _ in range(_NEWTON_STEPS):
        if n >= cap:
            return cap
        e = log_c - r * n
        top = float(e.max())
        z = np.exp(e - top)
        s = float(z.sum())
        step = (top + math.log(s) - log_t) * s / float(z @ r)  # f(n) / -f'(n)
        n += step
        if step <= _NEWTON_TOL * max(n, 1.0):
            break
    return max(0, min(math.ceil(n), cap))


def _first_passing(
    bound: Callable[[int], float], target: float, cap: int, guess: int | float
) -> int | float:
    """Smallest n in [0, cap] with bound(n) <= target, UNBOUNDED if none,
    for a bound nonincreasing in n.  Probes the guess (cap if above it),
    gallops away from it in steps 1, 2, 4, ... until the answer is
    bracketed, then bisects."""
    lo, hi = -1, cap + 1  # bound(lo) > target >= bound(hi); neither end is probed
    n, step = min(guess, cap), 1
    if bound(n) <= target:
        hi = n
        while lo + 1 < hi:
            n = max(hi - step, lo + 1)
            if bound(n) > target:
                lo = n
                break
            hi, step = n, 2 * step
    else:
        lo = n
        while lo + 1 < hi:
            n = min(lo + step, hi - 1)
            if bound(n) <= target:
                hi = n
                break
            lo, step = n, 2 * step
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if bound(mid) <= target:
            hi = mid
        else:
            lo = mid
    return UNBOUNDED if hi > cap else hi
