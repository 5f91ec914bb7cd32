"""
Tail bounds psi_ell(n, delta2) for the n-fold information-density sum, and a
solver for the measurement count that drives the weighted remainder
sum_ell C(k, ell) psi_ell(n, delta2) below a target.

Five families, each bounding P[|i^n - n I| >= n delta2 I] (or the lower tail
only, for the two group-testing families) conditioned on beta = b:

    chebyshev            V / (n (delta2 I)^2)
    bernstein-discrete   2 exp(-d^2 n / (2 (8|Y| + 2 d))),        d = delta2 I
    bernstein-linear     2 exp(-d^2 n / (2 (4 a^2 + d a))),       a = alpha_dif
    chernoff-gt          exp(-n (l/k) e^-nu nu ((1-d2) log(1-d2) + d2)(1-eps))
    bennett-gt-noisy     exp(-n (l/k) e^-nu nu d2^2 (1-2 rho)^2
                              / (2 (1 + d2 (1-2 rho)/3)) (1-eps))

with alpha_dif = 2 s (sigma + s) / (sigma^2 + s^2), s^2 = sum_dif b_i^2.
The two group-testing families hold for large problems (l = o(k)); the
asymptotic caveat is surfaced as the explicit eps slack (default 0.05).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .channels import gt_mi_closed_form
from .model import Partition, ProblemDims, min_info_partition
from .numerics import log_binomial

E_SQ_CAP = (4.0 / math.e) ** 2

UNBOUNDED = float("inf")


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


def psi_bernstein_discrete(I: float, alphabet_size: int, n: int, delta2: float) -> float:
    """Bernstein two-sided tail for finite alphabets, clipped to [0, 1]."""
    if I <= 0:
        raise ValueError("psi_bernstein_discrete needs I > 0")
    d = delta2 * I
    return min(1.0, 2.0 * math.exp(-(d * d) * n / (2.0 * (8.0 * alphabet_size + 2.0 * d))))


def alpha_dif_linear(b, sigma: float, partition: Partition) -> float:
    """Bernstein scale 2 s (sigma + s) / (sigma^2 + s^2), s^2 = sum_dif b^2."""
    b = np.asarray(b, dtype=float)
    s = math.sqrt(float(np.sum(b[partition.dif_index()] ** 2)))
    if s == 0.0:
        return 0.0
    return 2.0 * s * (sigma + s) / (sigma**2 + s * s)


def psi_bernstein_linear(b, sigma: float, partition: Partition, n: int, delta2: float) -> float:
    """Bernstein two-sided tail for the linear channel.

    The density is constant when sum_dif b^2 = 0, so the tail is 0 there.
    """
    b = np.asarray(b, dtype=float)
    s_sq = float(np.sum(b[partition.dif_index()] ** 2))
    if s_sq == 0.0:
        return 0.0
    a = alpha_dif_linear(b, sigma, partition)
    I = 0.5 * math.log1p(s_sq / sigma**2)
    d = delta2 * I
    return min(1.0, 2.0 * math.exp(-(d * d) * n / (2.0 * (4.0 * a * a + d * a))))


def psi_chernoff_gt(
    nu: float, k: int, ell: int, n: int, delta2: float, eps: float = 0.05
) -> float:
    """Binomial-Chernoff lower-tail bound for noiseless group testing.

    Intended for the l = o(k) regime (caller's responsibility); eps is the
    explicit "sufficiently large p" slack.
    """
    if not 0.0 < delta2 < 1.0:
        raise ValueError("delta2 must lie in (0, 1)")
    h = (1.0 - delta2) * math.log(1.0 - delta2) + delta2
    rate = (ell / k) * math.exp(-nu) * nu * h * (1.0 - eps)
    return min(1.0, math.exp(-n * rate))


def psi_bennett_gt_noisy(
    nu: float, rho: float, k: int, ell: int, n: int, delta2: float, eps: float = 0.05
) -> float:
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
    return min(1.0, math.exp(-n * rate))


@dataclass(frozen=True)
class TailBoundSpec:
    """One psi family with its delta2 and model parameters.

    params by kind:
        chebyshev          mi: callable ell -> I, var: callable ell -> V
        bernstein-discrete mi: callable ell -> I, alphabet_size: int
        bernstein-linear   b: vector, sigma: float   (min-info split per ell)
        chernoff-gt        nu: float, eps: float
        bennett-gt-noisy   nu: float, rho: float, eps: float
    ell_lo/ell_hi restrict the family to a sub-range of ell (inclusive).
    """

    kind: str
    delta2: float
    params: dict = field(default_factory=dict)
    ell_lo: int = 1
    ell_hi: int | None = None

    def covers(self, ell: int) -> bool:
        return ell >= self.ell_lo and (self.ell_hi is None or ell <= self.ell_hi)

    def psi(self, ell: int, n: int, dims: ProblemDims) -> float:
        d2 = self.delta2
        p = self.params
        if self.kind == "chebyshev":
            return psi_chebyshev(p["mi"](ell), p["var"](ell), n, d2)
        if self.kind == "bernstein-discrete":
            return psi_bernstein_discrete(p["mi"](ell), p["alphabet_size"], n, d2)
        if self.kind == "bernstein-linear":
            part = min_info_partition(p["b"], ell)
            return psi_bernstein_linear(p["b"], p["sigma"], part, n, d2)
        if self.kind == "chernoff-gt":
            return psi_chernoff_gt(p["nu"], dims.k, ell, n, d2, p.get("eps", 0.05))
        if self.kind == "bennett-gt-noisy":
            return psi_bennett_gt_noisy(
                p["nu"], p["rho"], dims.k, ell, n, d2, p.get("eps", 0.05)
            )
        raise ValueError(f"unknown tail-bound kind {self.kind!r}")


def gt_tail_specs(
    nu: float,
    k: int,
    rho: float = 0.0,
    d2_small: float = 0.9,
    d2_large: float = 0.1,
    eps: float = 0.05,
    mi: Callable[[int], float] | None = None,
) -> list[TailBoundSpec]:
    """The group-testing pair: Chernoff/Bennett below floor(k/log k) with
    delta2 near one, discrete Bernstein above with delta2 near zero."""
    cut = int(k / math.log(k)) if k >= 3 else 1
    mi_fn = mi if mi is not None else (lambda ell: gt_mi_closed_form(nu, k, ell, rho))
    small_kind = "chernoff-gt" if rho == 0.0 else "bennett-gt-noisy"
    small_params = {"nu": nu, "eps": eps} if rho == 0.0 else {"nu": nu, "rho": rho, "eps": eps}
    return [
        TailBoundSpec(kind=small_kind, delta2=d2_small, params=small_params, ell_hi=cut),
        TailBoundSpec(
            kind="bernstein-discrete",
            delta2=d2_large,
            params={"mi": mi_fn, "alphabet_size": 2},
            ell_lo=cut + 1,
        ),
    ]


def remainder_sum(
    specs: TailBoundSpec | Sequence[TailBoundSpec],
    dims: ProblemDims,
    ell_range: Sequence[int],
    n: int,
) -> float:
    """sum over ell of C(k, ell) psi_ell(n, delta2)."""
    if isinstance(specs, TailBoundSpec):
        specs = [specs]
    total = 0.0
    for ell in ell_range:
        for spec in specs:
            if spec.covers(ell):
                total += math.exp(log_binomial(dims.k, ell)) * spec.psi(ell, n, dims)
                break
    return total


def remainder_n_required(
    psi_family: TailBoundSpec | Sequence[TailBoundSpec],
    dims: ProblemDims,
    ell_range: Sequence[int],
    target: float,
    n_cap: int = 2**30,
) -> int | float:
    """Smallest n with the remainder probability bound <= target.

    The weighted sum caps at 1 (it bounds a union probability), so a target
    of 1 is vacuous and yields n = 0.  Doubling bracket plus integer
    bisection; returns the UNBOUNDED sentinel (inf) if no n <= n_cap
    suffices.
    """
    if not 0.0 < target <= 1.0:
        raise ValueError("target must lie in (0, 1]")
    ells = list(ell_range)
    bound = lambda n: min(1.0, remainder_sum(psi_family, dims, ells, n))
    if bound(0) <= target:
        return 0
    hi = 1
    while bound(hi) > target:
        hi *= 2
        if hi > n_cap:
            return UNBOUNDED
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if bound(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi
