"""
Special functions and the one Gaussian quadrature rule.

Everything downstream (mutual informations, tail bounds, threshold formulas)
is built from a small set of functions:

    H2(rho)        binary entropy in nats, with the 0 log 0 = 0 convention
    Q(x)           standard normal upper tail P[W >= x]
    log Q(x)       finite for |x| <= 40 (naive log(Q(x)) underflows near 38)
    F_chi2(u)      CDF of W^2 for W ~ N(0,1); equals 1 - 2 Q(sqrt(u))
    g(alpha)       int_0^inf [alpha - F_chi2(u)]^+ du

and two expectation drivers over W ~ N(0,1), both on the one
HERMITE_NODES-node Gauss-Hermite rule:

    gaussian_expectation(f)          E[f(W)]
    mean_entropy_q_scaled(a)         E[H2(Q(a W))], robust for all a >= 0

The last one needs care: the integrand H2(Q(a w)) is a spike of width ~1/a
around w = 0, so plain Gauss-Hermite in w under-resolves it once a exceeds a
few units.  For large a we substitute r = a w, giving

    E[H2(Q(aW))] = (1/a) E_R[ exp(r^2/2 (1 - 1/a^2)) H2(Q(R)) ],  R ~ N(0,1),

whose integrand grows only polynomially and is evaluated in the log domain.
Its a-independent factor log H2(Q(|r|)) is computed once and cached beside
the Hermite nodes.

H2, g(alpha) and mean_entropy_q_scaled take a scalar (and return a Python
float) or an array of arguments (and return an array of the same shape);
every element equals the scalar call bit for bit.  Each has one path, the
array one: a scalar is a 0-d array, and the callers that matter pass all
their points at once (the figure corollaries' golden-section steps pass
their lanes, gt_mi_closed_form every ell and rho).  mean_entropy_q_scaled
sums an array as (grid x nodes) Gauss-Hermite matrices of at most
_GRID_BLOCK rows.
log_binomial(n, r) has one path too: n and r broadcast as int64 arrays (two
ints are 0-d ones and give a float), so a threshold's numerators for every
ell come from one call per binomial, and a value int64 cannot hold is
refused by name.

All entropies and information measures are in nats (base-e logs); base-2
conversion happens only at the CLI reporting layer.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import types
from contextlib import contextmanager
from typing import Callable

import numpy as np
import scipy
from numpy.polynomial.hermite import hermgauss


def _load_special_ufuncs():
    """scipy.special's compiled ufuncs, loaded without scipy/special/__init__.py.

    That __init__ imports scipy's array-API layer (scipy._lib._array_api, which
    imports numpy.f2py and numpy.testing), most of this package's import time,
    for a layer it never uses: only gammaln, log_ndtr, ndtr and ndtri are
    needed (README, "Install and test").  A bare placeholder package with the
    real __path__ stands in for scipy.special while the extension loads and is
    removed afterwards, so a later `import scipy.special` runs the real
    __init__, which takes the loaded extension from sys.modules: its ufuncs
    are the very objects returned here.
    """
    if "scipy.special" in sys.modules:
        return sys.modules["scipy.special"]
    placeholder = types.ModuleType("scipy.special")
    placeholder.__path__ = [os.path.join(scipy.__path__[0], "special")]
    sys.modules["scipy.special"] = placeholder
    try:
        return importlib.import_module("scipy.special._ufuncs")
    finally:
        del sys.modules["scipy.special"]


_ufuncs = _load_special_ufuncs()
gammaln, log_ndtr, ndtr, ndtri = _ufuncs.gammaln, _ufuncs.log_ndtr, _ufuncs.ndtr, _ufuncs.ndtri

LOG2 = float(np.log(2.0))
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# Relative fault-injection knob for the verification suite's sensitivity
# canary (CLI --perturb): entropies are scaled by (1 + eps).  Always 0.0 in
# normal operation.  Additive offsets would cancel in entropy differences.
_ENTROPY_PERTURBATION = 0.0

# The Gauss-Hermite rule behind every Gaussian expectation.
HERMITE_NODES = 96


class NonConvergenceError(RuntimeError):
    """A numerical routine gave a non-finite value or did not converge."""


def set_entropy_perturbation(eps: float) -> None:
    """Inject a relative fault into the entropy routines (verify canary).
    Raises ValueError on NaN or an infinity, which would not perturb the
    entropies but void them."""
    global _ENTROPY_PERTURBATION
    if not np.isfinite(eps):
        raise ValueError(f"entropy perturbation must be finite, got {eps!r}")
    _ENTROPY_PERTURBATION = float(eps)


@contextmanager
def entropy_perturbation(eps: float):
    """Scale every entropy by (1 + eps) inside the block; the previous
    perturbation is restored on exit, also when the block raises."""
    previous = _ENTROPY_PERTURBATION
    set_entropy_perturbation(eps)
    try:
        yield
    finally:
        set_entropy_perturbation(previous)


# Rows per block of an array mean_entropy_q_scaled call; bounds each
# (rows x nodes) temporary to ~100 kB at 96 nodes.  Summing a 2001-point alpha
# grid unblocked raised the partial-recovery figure's peak RSS by ~7 MB;
# 32-, 64- and 128-row blocks gave the same peak RSS and time.
_GRID_BLOCK = 128


@functools.cache
def gauss_hermite_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Nodes z and weights w with E[f(W)] ~ sum(w * f(z)), sum(w) = 1."""
    x, w = hermgauss(HERMITE_NODES)
    return np.sqrt(2.0) * x, w / np.sqrt(np.pi)


def binary_entropy(rho):
    """Binary entropy -rho log rho - (1-rho) log(1-rho) in nats.

    Returns a float for a 0-d argument (a Python or numpy scalar) and an
    array of the argument's shape otherwise, each element computed alike,
    signed zeros included (H2(0) = 0.0, H2(1) = -0.0).  Raises ValueError
    on values outside [0, 1] and on NaN.
    """
    scale = 1.0 + _ENTROPY_PERTURBATION
    r = np.asarray(rho, dtype=float)
    bad = ~((r >= 0.0) & (r <= 1.0))  # NaN included
    if bad.any():
        raise ValueError(f"binary_entropy argument outside [0, 1]: {float(r[bad][0])!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -np.where(r > 0.0, r * np.log(r), 0.0)
        h -= np.where(r < 1.0, (1.0 - r) * np.log1p(-r), 0.0)
    h = h * scale
    return float(h) if np.ndim(rho) == 0 else h


def q_function(x):
    """Standard normal upper tail Q(x) = P[W >= x]."""
    return ndtr(-np.asarray(x, dtype=float)) if np.ndim(x) else float(ndtr(-x))


def log_q_function(x):
    """log Q(x); stays finite for |x| <= 40 where Q itself underflows."""
    return log_ndtr(-np.asarray(x, dtype=float)) if np.ndim(x) else float(log_ndtr(-x))


def chi2_cdf_1dof(u):
    """CDF of W^2, W ~ N(0,1): P[W^2 <= u] = 1 - 2 Q(sqrt(u))."""
    uu = np.asarray(u, dtype=float)
    if np.any(uu < 0.0):
        raise ValueError(f"chi2_cdf_1dof argument must be >= 0, got {u!r}")
    out = 1.0 - 2.0 * ndtr(-np.sqrt(uu))
    return float(out) if np.ndim(u) == 0 else out


def g_alpha(alpha):
    """Truncated chi-square mean g(alpha) = int_0^inf [alpha - F_chi2(u)]^+ du.

    The integrand vanishes past u_a with F_chi2(u_a) = alpha, where
    u_a = (Phi^{-1}((1+alpha)/2))^2.  Integrating by parts collapses the
    integral to the exact closed form

        g(alpha) = alpha - 2 t phi(t),   t = Phi^{-1}((1+alpha)/2),

    i.e. the mean of W^2 restricted to W^2 <= u_a.

    Accepts a scalar (returns a float) or an array (returns an array of the
    same shape); raises if any argument lies outside [0, 1].  Where
    (1 + alpha)/2 rounds to 1, t is infinite and g is the alpha = 1 limit, 1;
    at alpha = 0, t = 0 and the formula gives alpha itself.  Every element
    takes the same few array operations, so it equals the scalar call.
    """
    al = np.asarray(alpha, dtype=float)
    inside = (al >= 0.0) & (al <= 1.0)
    if not inside.all():
        raise ValueError(f"g_alpha argument outside [0, 1]: {float(al[~inside][0])!r}")
    h = (1.0 + al) / 2.0
    t = ndtri(h)
    with np.errstate(invalid="ignore"):  # inf * 0 where h = 1, not selected
        g = np.where(h == 1.0, 1.0, al - 2.0 * t * np.exp(-0.5 * t * t) / _SQRT_2PI)
    return float(g) if g.ndim == 0 else g


def gaussian_expectation(f: Callable) -> float:
    """E[f(W)] for W ~ N(0,1) by Gauss-Hermite; f must accept numpy arrays."""
    z, w = gauss_hermite_nodes()
    return float(np.sum(w * np.asarray(f(z), dtype=float)))


def log_binomial(n, r):
    """log C(n, r) in nats via log-gamma; requires 0 <= r <= n.

    n and r broadcast as int64 arrays; the result is an array of their
    shape, or a Python float when both are 0-d (ints included).  A
    non-integer argument, an element out of range (the first one named) and
    an n that int64 cannot hold with room for n + 1 (n >= 2**63 - 1; the
    largest named) each raise one ValueError.
    """
    nn, rr = np.asarray(n), np.asarray(r)
    if {nn.dtype.kind, rr.dtype.kind} - set("iuO"):  # O: Python ints beyond 64 bits
        raise ValueError(f"log_binomial needs integers, got n of dtype {nn.dtype}, r of {rr.dtype}")
    bad = ~((rr >= 0) & (rr <= nn))
    if bad.any():
        nn, rr = np.broadcast_arrays(nn, rr)
        i = np.argwhere(bad)[0]
        at = "".join(f"[{j}]" for j in i)
        raise ValueError(
            f"log_binomial requires 0 <= r <= n, got n{at}={nn[tuple(i)]}, r{at}={rr[tuple(i)]}"
        )
    if nn.max(initial=0) >= 2**63 - 1:
        raise ValueError(f"log_binomial needs n < 2**63 - 1, got n={nn.max()}")
    nn, rr = nn.astype(np.int64, copy=False), rr.astype(np.int64, copy=False)
    out = gammaln(nn + 1) - gammaln(rr + 1) - gammaln(nn - rr + 1)
    return float(out) if out.ndim == 0 else out


def log_sum_exp(a: np.ndarray):
    """log(sum(exp(a))) over the last axis of a float array whose last axis
    is not empty; a 1-d a gives a numpy float.

    These are the steps scipy.special.logsumexp(a, axis=-1) (scipy 1.17.1)
    takes for real input without weights, so every result equals scipy's,
    NaN and signed zero included, without its per-call array-API dispatch.
    Older scipy releases take other steps and round differently, which is
    why pyproject.toml asks for scipy >= 1.17.1.
    With a_max the maximum and m the count of entries tied at it,

        log_sum_exp(a) = log1p(s) + log(m) + a_max,
        s = sum over the other entries of exp(a - a_max), divided by m,

    and a row where that is not finite (an infinite or NaN entry, or all
    -inf) takes log(sum(exp(a))) instead.
    """
    a_max = np.max(a, axis=-1, keepdims=True)
    tied = a == a_max
    m = np.sum(tied, axis=-1, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sum(np.exp(np.where(tied, -np.inf, a) - a_max), axis=-1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
    bad = ~np.isfinite(out)
    if bad.any():
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            direct = np.log(np.sum(np.exp(a), axis=-1, keepdims=True))
        out = np.where(bad, direct, out)
    return out[..., 0][()]


def _log_h2_of_q(z: np.ndarray) -> np.ndarray:
    """log H2(Q(z)) for z >= 0, stable far into the tail.

    For tiny Q, H2(Q) = Q (1 - log Q) + O(Q^2 log Q), so the log is computed
    from log Q directly rather than from an underflowing Q.
    """
    lq = log_ndtr(-z)
    q = np.exp(lq)
    out = np.empty_like(z)
    small = q < 1e-8
    out[small] = lq[small] + np.log1p(-lq[small])
    qs = np.clip(q[~small], 1e-300, 1.0 - 1e-16)
    out[~small] = np.log(-qs * np.log(qs) - (1.0 - qs) * np.log1p(-qs))
    return out


@functools.cache
def _substitution_rows() -> tuple[np.ndarray, np.ndarray]:
    """(z^2/2, log H2(Q(|z|))) on the Hermite nodes: the a-independent rows
    of the substituted branch, computed once (read-only)."""
    za = np.abs(gauss_hermite_nodes()[0])
    rows = (0.5 * za * za, _log_h2_of_q(za))
    for r in rows:
        r.setflags(write=False)
    return rows


def _direct_sums(a: np.ndarray) -> np.ndarray:
    """sum_j w_j H2(Q(a_i z_j)) for a 1-D array of 0 < a_i <= 1."""
    z, w = gauss_hermite_nodes()
    q = np.clip(ndtr(-a[:, None] * z), 1e-300, 1.0 - 1e-16)
    h = -q * np.log(q) - (1.0 - q) * np.log1p(-q)
    return np.sum(w * h, axis=1)


def _substituted_sums(a: np.ndarray) -> np.ndarray:
    """The r = a w form of E[H2(Q(a_i W))] for a 1-D array of a_i > 1."""
    w = gauss_hermite_nodes()[1]
    half_sq, log_h2 = _substitution_rows()
    t = half_sq * (1.0 - 1.0 / (a * a))[:, None]
    return np.sum(w * np.exp(t + log_h2), axis=1) / a


def mean_entropy_q_scaled(a):
    """E[H2(Q(a W))] for W ~ N(0,1), accurate uniformly in a >= 0.

    Direct Gauss-Hermite in w for a <= 1 (the integrand is then wider than
    the node spacing); the r = a w substitution described in the module
    docstring otherwise.  Both branches agree to ~1e-15 at the crossover.

    A scalar a returns a float; an array returns an array of the same shape,
    each element equal to the scalar call.  The arguments are split by
    branch and summed in blocks of _GRID_BLOCK rows, which bounds the
    (rows x nodes) temporaries.  The substituted branch's a-independent row
    log H2(Q(|z|)) is cached.
    """
    scale = 1.0 + _ENTROPY_PERTURBATION
    aa = np.abs(np.asarray(a, dtype=float))
    flat = aa.ravel()
    out = np.full(flat.shape, LOG2)
    small = flat <= 1.0
    for sums, idx in (
        (_direct_sums, np.flatnonzero(small & (flat > 0.0))),
        (_substituted_sums, np.flatnonzero(~small)),  # NaN lands here
    ):
        for lo in range(0, idx.size, _GRID_BLOCK):
            sel = idx[lo : lo + _GRID_BLOCK]
            out[sel] = sums(flat[sel])
    out = (out * scale).reshape(aa.shape)
    return float(out) if out.ndim == 0 else out
