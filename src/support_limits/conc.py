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
slack for "sufficiently large p".  Which family bounds each ell, and with
which delta2, is stated once per channel by its `tail_spec` in `channels`:
one TailBoundSpec whose terms(ell) picks the family for that ell.
Chebyshev, min(1, V / (n (delta2 I)^2)), is a scalar bound only: no
TailBoundSpec uses it.

remainder_n_required finds the smallest n whose sum is at most the target.
It reads each ell's (C(k, ell), scale, q, den) once into a row
(`remainder_rows`) and refuses a row with a non-finite term.  remainder_sum,
a plain loop over those rows in ell order with math.exp, is the exact sum
and is nonincreasing in n, so that n is unique.  Newton steps on the log
of the uncapped sum, over arrays of the rows, propose n, and the exact sum
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
    """A channel's tail family for every ell of the remainder.

    terms(ell) gives the n-free (scale, q, den) of the family that bounds
    that ell, with delta2 and the model parameters bound in; a solve reads
    it once per ell into `remainder_rows`.  psi(ell, n) is that ell's tail
    at n on its own.
    """

    def __init__(self, terms: Callable[[int], Terms]):
        self.terms = terms

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


Row = tuple[float, float, float, float]


def remainder_rows(spec: TailBoundSpec, dims, ells: Sequence[int]) -> list[Row]:
    """(C(k, ell), scale, q, den) per ell of ells, k = dims.k, in that order."""
    k = dims.k
    return [(_binomial_weight(k, ell), *spec.terms(ell)) for ell in ells]


def remainder_sum(rows: Sequence[Row], n: int) -> float:
    """sum over ell of C(k, ell) psi_ell(n, delta2) from `remainder_rows`,
    added in their order: w min(1, scale exp(-q n / den)) per row, the
    min written as a comparison (the same float, NaN included)."""
    total = 0.0
    for w, scale, q, den in rows:
        t = scale * math.exp(-q * n / den)
        total += w * (t if t < 1.0 else 1.0)
    return total


def remainder_n_required(
    spec: TailBoundSpec,
    dims,
    ells: Sequence[int],
    target: float,
    n_cap: int = 2**30,
) -> int | float:
    """Smallest n with the remainder probability bound <= target.

    The weighted sum caps at 1 (it bounds a union probability), so a target
    of 1 is vacuous and yields n = 0.  Returns the UNBOUNDED sentinel (inf)
    if no n <= n_cap suffices (n_cap below 1 counts as 1).  A row with a
    non-finite term, such as a linear family whose entries overflow,
    raises ValueError naming its ell.

    The exact bound, min(1, remainder_sum), is nonincreasing in n: each
    term min(1, scale exp(-q n / den)) is built from operations monotone in
    n, and the weighted terms are added in a fixed order.  So the smallest
    passing n is unique, and any search that brackets it finds the same n.
    Each ell's row is read once per solve (`remainder_rows`); the exact
    sums add up the rows, and `_newton_guess` finds where
    sum_ell c exp(-r n), c = C(k, ell) scale and r = q / den, falls to the
    target.  Below a target of 1 the min(1, .) caps do not move that
    point: where the capped sum is at most the target, every term is at
    most target / C(k, ell) < 1, so none is capped.  The guess is taken
    with np.exp, which differs from math.exp in the last bit for a few
    percent of arguments, so it only proposes n: `_first_passing` confirms
    it on the exact sum, at a cost of two remainder_sum calls when it is
    right (one when it is 0 or UNBOUNDED); otherwise it bisects on exact
    sums inside the bracket those probes leave.
    """
    if not 0.0 < target <= 1.0:
        raise ValueError("target must lie in (0, 1]")
    rows = remainder_rows(spec, dims, ells)
    table = np.array(rows, dtype=float).reshape(-1, 4)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise ValueError(f"the tail terms at ell = {ells[int(np.argmin(finite))]} are not finite")
    w, scale, q, den = table.T
    c, r = w * scale, q / den
    exact = lambda n: min(1.0, remainder_sum(rows, n))
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
    for a bound nonincreasing in n.  Probes the guess (cap if above it) and,
    if it passes, n - 1; a passing guess whose n - 1 fails is the answer.
    Otherwise bisects inside the bracket the probes left."""
    lo, hi = -1, cap + 1  # bound(lo) > target >= bound(hi); neither end is probed
    n = min(guess, cap)
    if bound(n) > target:
        lo = n
    elif n == 0 or bound(n - 1) > target:
        return n
    else:
        hi = n - 1
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if bound(mid) <= target:
            hi = mid
        else:
            lo = mid
    return UNBOUNDED if hi > cap else hi
