"""
The three observation channels, each written once.

A channel is fully specified by a few facts: its measurement design and
sampler, the signal priors it pairs with, its per-row likelihood
P(y | x_s, b), its per-row marginal over the differing part P(y | x_eq, b),
its mutual information, the variance of the information density (apart: the
thresholds read only the former), the tail-bound families for the density
sums, and, for the linear channel only, the evidence P(y | x_s) under the
iid-Gaussian prior.  The objects in CHANNELS state these facts once per
channel; the rest of the package reaches them through
CHANNELS[model.channel] and never branches on the channel name.  They hold
no state: every method takes the ModelSpec `spec` first, which carries
sigma, rho and nu.

Group testing has a finite outcome table (GtTable).  Given beta = ones, one
measurement row falls in one of five cases: x_eq has a one (density 0), or
x_eq = 0 crossed with (x_dif = 0 / != 0) x (y = 0 / 1).  Its density rows,
its moments, the verification suite's density sums and the exhaustive-ML
score are all read from it.

This module imports only `numerics` and `conc`, so that `model` and `info`
can both use it.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import conc
from .numerics import (
    NonConvergenceError,
    binary_entropy,
    gauss_hermite_nodes,
    log_ndtr,
    mean_entropy_q_scaled,
)

LINEAR = "linear"
ONE_BIT = "one-bit"
GROUP_TESTING = "group-testing"

NEG_INF = float("-inf")

_LOG_2PI = float(np.log(2.0 * np.pi))


class UnsupportedCombinationError(ValueError):
    """The (prior, channel) pair has no implemented marginal likelihood."""


def one_bit_sign(v) -> np.ndarray:
    """Sign with the non-negative convention: sign(0) = +1."""
    return np.where(np.asarray(v) >= 0.0, 1.0, -1.0)


def _energy(b: np.ndarray, index: np.ndarray) -> float:
    return float(np.sum(b[index] ** 2))


def _row_sum(total):
    """A 0-d sum over the rows as a Python float; a per-candidate array as is."""
    return float(total) if np.ndim(total) == 0 else total


class Channel:
    """One observation channel.  Each subclass defines

        validate(spec)                  reject a parameter that does not fit
        check_prior(spec, prior, k)     reject a signal prior it does not pair with
        only_prior                      the one prior variant it pairs with, or
                                        None when it takes several
        draw(spec, rng, raw, noise)     fill one trial's raw design draws (n x p)
                                        and then its noise draws (n), in place
        design(spec, raw, k)            measurement matrices from raw design
                                        draws; may overwrite raw
        outputs(spec, x_s, b, noise)    y | x_s, b from the noise draws, one
                                        output per row
        loglik_rows_and_sum(spec, x_s, b, y)
                                        (log P(y | x_s, b) per row, their
                                        sum), the one likelihood method
        loglik_row_max(spec)            the largest value one likelihood
                                        row can take: 0.0 where the outputs
                                        have probabilities (the base class)
        log_marginal_rows(spec, partition, x_s, b, y)
                                        log P(y | x_eq, b) per row, x_dif
                                        marginalized over the design
        mi(spec, parts, b)              I_{dif,eq}(b) in nats for each
                                        partition of the sequence parts, as
                                        a list
        variance(spec, partition, b)    variance of the information density
        tail_spec(spec, b, parts, mi_map)
                                        the conc.TailBoundSpec of the
                                        achievability remainder: which
                                        family bounds each ell, with which
                                        delta2, over an ell array; parts
                                        is model.min_info_partitions(b),
                                        whose parts[ell - 1] is made when
                                        read, and mi_map[ell] its I

    The sampler is split so that only `draw` runs once per trial: `design`
    and `outputs` take any leading trial axes, x_s (... x n x k), b (... x k)
    and noise (... x n), and map a whole block of trials at once.

    x_s holds n measurement rows restricted to the support (n x k), b the
    non-zero entries aligned with its columns (a float array) and y the n
    outputs.  The likelihood and marginal methods also take a stack of C
    candidate supports, x_s of shape (C x n x k) against the same y: the row
    methods then return (C x n) arrays and one sum per candidate.

    gaussian_evidence(spec, sigma_beta_sq, x_s, y), log P(y | x_s) under the
    iid-Gaussian prior, is defined by the linear channel alone; the base
    class refuses it with UnsupportedCombinationError.

    density_from_rows(lik_rows, marginal_rows), defined by the base class
    (group testing adds its -inf sentinel), turns likelihood and marginal
    rows already computed into density rows; `info.density_rows` composes
    the three, so that the threshold decoder evaluates each atom's
    likelihood once per candidate block.  Each channel computes its pair's
    rows and sum from the same residuals, arguments or matches.
    """

    only_prior: str | None = None

    def gaussian_evidence(self, spec, sigma_beta_sq, x_s, y):
        raise UnsupportedCombinationError(
            "iid-gaussian marginal likelihood is only available for the linear channel"
        )

    def loglik_row_max(self, spec) -> float:
        """An upper bound on every likelihood row: a log-probability is at
        most 0."""
        return 0.0

    def density_from_rows(self, lik_rows, marginal_rows) -> np.ndarray:
        """The density rows from likelihood and marginal rows already computed."""
        return lik_rows - marginal_rows


class _GaussianDesign(Channel):
    """Unit Gaussian design with real-valued entries b and noise std sigma."""

    def validate(self, spec) -> None:
        if not spec.sigma > 0:
            raise ValueError("noise std sigma must be > 0")
        if not spec.sigma * spec.sigma < math.inf:
            raise ValueError(f"noise std sigma = {spec.sigma:g} has a square beyond the float range")

    def check_prior(self, spec, prior, k: int) -> None:
        if prior.variant == GroupTesting.only_prior:
            raise ValueError("the all-ones prior pairs only with group testing")

    def draw(self, spec, rng, raw, noise):
        rng.standard_normal(out=raw)
        rng.standard_normal(out=noise)

    def design(self, spec, raw, k):
        return raw

    def _response(self, spec, x_s, b, noise):
        """<x, b> + sigma z per row: one matrix-vector product per trial."""
        return np.matmul(x_s, b[..., None])[..., 0] + spec.sigma * noise


class Linear(_GaussianDesign):
    """y = <x, b> + z, z ~ N(0, sigma^2);  I = (1/2) log(1 + sum_dif b^2 / sigma^2)."""

    def validate(self, spec) -> None:
        super().validate(spec)
        if spec.sigma * spec.sigma == 0.0:  # the likelihood divides by sigma^2
            raise ValueError(f"noise std sigma = {spec.sigma:g} has a square that underflows to 0")

    def outputs(self, spec, x_s, b, noise):
        return self._response(spec, x_s, b, noise)

    # A residual whose square overflows scores -inf, which orders it right:
    # the overflow warnings are silenced, no value changes.

    @staticmethod
    def _log_density_rows(z, v):
        """log N(z; 0, v) per row."""
        with np.errstate(over="ignore"):
            return -0.5 * (z**2) / v - 0.5 * np.log(2.0 * np.pi * v)

    def _log_density_sum(self, spec, z):
        """log N(z; 0, sigma^2) summed over the rows."""
        with np.errstate(over="ignore"):
            return _row_sum(
                -0.5 * np.sum(z**2, axis=-1) / spec.sigma**2
                - 0.5 * z.shape[-1] * (_LOG_2PI + 2.0 * math.log(spec.sigma))
            )

    def loglik_row_max(self, spec) -> float:
        """The peak of the N(0, sigma^2) density, -(1/2) log(2 pi sigma^2),
        as the row at residual 0 (rounding is monotone, so no row exceeds
        it); positive for sigma below 1/sqrt(2 pi)."""
        return float(self._log_density_rows(0.0, spec.sigma**2))

    def loglik_rows_and_sum(self, spec, x_s, b, y):
        z = y - x_s @ b
        return self._log_density_rows(z, spec.sigma**2), self._log_density_sum(spec, z)

    def log_marginal_rows(self, spec, partition, x_s, b, y):
        sig_l_sq = _energy(b, partition.dif_index())
        if sig_l_sq == 0.0:
            # y does not depend on x_dif: the marginal is the likelihood
            return self.loglik_rows_and_sum(spec, x_s, b, y)[0]
        eq = partition.eq_index()
        return self._log_density_rows(y - x_s[..., eq] @ b[eq], spec.sigma**2 + sig_l_sq)

    def gaussian_evidence(self, spec, sigma_beta_sq, x_s, y):
        """log N(y; 0, Sigma), Sigma = sigma^2 I + sigma_beta^2 X_S X_S^T, from
        k x k quantities only: the evidence of Bayesian linear regression (Bishop,
        PRML, section 3.5).  With r = sigma_beta^2 / sigma^2, G = X_S^T X_S,
        u = X_S^T y, M = I + r G, w = M^-1 u and the posterior mean m = r w,

            log det Sigma  = n log sigma^2 + log det M
            y^T Sigma^-1 y = (||y - X_S m||^2 + r ||w||^2) / sigma^2.

        The quadratic form is a sum of non-negative terms; the Woodbury
        difference (y^T y - r u^T w) / sigma^2 cancels and can go negative when
        r is large.

        M is positive definite only while its identity survives rounding against
        r G: LinAlgError("covariance not positive definite") is raised when r
        is not finite, or when r * max diag G >= 1 / eps for any candidate
        (`validate` refuses a sigma^2 that underflows to 0).  At n = 4 this refuses from
        sigma_beta^2 / sigma^2 of about 1e15 on.  Below the cut-off a singular G
        (n < k) still carries a rounding error of about eps * max diag G, which
        r scales: the relative error of the score grows like eps * r * max diag G
        (2e-11 at sigma_beta^2 = 1e6, 2e-5 at 1e12, n = 1, k = 2).
        """
        sigma_sq = spec.sigma**2
        r = sigma_beta_sq / sigma_sq
        xt = np.swapaxes(x_s, -1, -2)
        g = xt @ x_s
        # a Python product: an overflow is inf, and inf * 0 is nan, both refused
        if not r * float(np.max(np.diagonal(g, axis1=-2, axis2=-1))) < 1.0 / np.finfo(float).eps:
            raise np.linalg.LinAlgError("covariance not positive definite")
        m_mat = np.eye(x_s.shape[-1]) + r * g
        _, logdet = np.linalg.slogdet(m_mat)
        w = np.linalg.solve(m_mat, (xt @ y)[..., None])
        resid = y - (x_s @ (r * w))[..., 0]
        quad = (np.sum(resid**2, axis=-1) + r * np.sum(w[..., 0] ** 2, axis=-1)) / sigma_sq
        return _row_sum(-0.5 * (quad + logdet + y.size * (math.log(sigma_sq) + _LOG_2PI)))

    def mi(self, spec, parts, b):
        """An energy beyond the float range gives I = inf, without a warning;
        the converse-side bounds refuse it by ell."""
        b = np.asarray(b, dtype=float)
        with np.errstate(over="ignore"):
            return [0.5 * math.log1p(_energy(b, part.dif_index()) / spec.sigma**2) for part in parts]

    def variance(self, spec, partition, b):
        sig_l_sq = _energy(np.asarray(b, dtype=float), partition.dif_index())
        return sig_l_sq / (spec.sigma**2 + sig_l_sq)

    def tail_spec(self, spec, b, parts, mi_map):
        """Every partition's energy computed once; one beyond the float range
        is inf, without a warning, and its tail terms are refused by ell."""
        b = np.asarray(b, dtype=float)
        with np.errstate(over="ignore"):
            energies = [_energy(b, part.dif_index()) for part in parts]
        return conc.TailBoundSpec(lambda ells: np.array(
            [conc.bernstein_linear_terms(energies[e - 1], spec.sigma, 0.5) for e in ells.tolist()]
        ).reshape(-1, 3))


class OneBit(_GaussianDesign):
    """y = sign(<x, b> + z) in {-1, +1};

    I = E[H2(Q(W a_eq))] - E[H2(Q(W a_s))],
    a_eq = sqrt(sum_eq b^2 / (sigma^2 + sum_dif b^2)), a_s = sqrt(sum_s b^2) / sigma.
    """

    def outputs(self, spec, x_s, b, noise):
        return one_bit_sign(self._response(spec, x_s, b, noise))

    def loglik_rows_and_sum(self, spec, x_s, b, y):
        rows = log_ndtr(y * (x_s @ b) / spec.sigma)
        return rows, _row_sum(np.sum(rows, axis=-1))

    def log_marginal_rows(self, spec, partition, x_s, b, y):
        eq = partition.eq_index()
        sig_l_sq = _energy(b, partition.dif_index())
        return log_ndtr(y * (x_s[..., eq] @ b[eq]) / np.sqrt(spec.sigma**2 + sig_l_sq))

    def mi(self, spec, parts, b):
        """Both scaled entropies of every partition from one array call of
        mean_entropy_q_scaled, whose elements equal its scalar calls; a
        partition with sum_dif b^2 = 0 has I = 0 and takes none."""
        b = np.asarray(b, dtype=float)
        args, live = [], []
        for part in parts:
            sig_l_sq = _energy(b, part.dif_index())
            live.append(sig_l_sq != 0.0)
            if live[-1]:
                sig_eq_sq = _energy(b, part.eq_index())
                a_eq = math.sqrt(sig_eq_sq / (spec.sigma**2 + sig_l_sq))
                a_s = math.sqrt(sig_l_sq + sig_eq_sq) / spec.sigma
                args += [a_eq, a_s]
        ent = iter(mean_entropy_q_scaled(np.array(args)).tolist())
        out = []
        for on in live:
            mi = next(ent) - next(ent) if on else 0.0
            if not math.isfinite(mi):
                raise NonConvergenceError(f"1-bit quadrature gave mi={mi}")
            out.append(max(0.0, mi))
        return out

    def variance(self, spec, partition, b):
        """Var of the density by tensor quadrature over (W_dif, W_eq)."""
        b = np.asarray(b, dtype=float)
        sig_l_sq = _energy(b, partition.dif_index())
        if sig_l_sq == 0.0:
            return 0.0
        s_dif = math.sqrt(sig_l_sq)
        s_eq = math.sqrt(_energy(b, partition.eq_index()))
        z, w = gauss_hermite_nodes()
        wd = s_dif * z[:, None]
        we = s_eq * z[None, :]
        denom_scale = math.sqrt(spec.sigma**2 + s_dif**2)
        mean = 0.0
        second = 0.0
        for y in (1.0, -1.0):
            log_p_y = log_ndtr(y * (wd + we) / spec.sigma)
            dens = log_p_y - log_ndtr(y * we / denom_scale)
            p_y = np.exp(log_p_y)
            mean += float(w @ (p_y * dens) @ w)
            second += float(w @ (p_y * dens**2) @ w)
        var = second - mean**2
        if not math.isfinite(var):
            raise NonConvergenceError(f"1-bit quadrature gave var={var}")
        return max(0.0, var)

    def tail_spec(self, spec, b, parts, mi_map):
        return conc.TailBoundSpec(lambda ells: conc.term_rows(
            conc.bernstein_discrete_terms(np.array([mi_map[e] for e in ells.tolist()]), 2, 0.5)))


# ---------------------------------------------------------------------------
# Group testing and its outcome table
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _flip_logs(rho: float) -> tuple[float, float]:
    """(log P[y = noiseless output], log P[y flipped]) = (log(1 - rho), log rho)."""
    return float(np.log(1.0 - rho)), float(np.log(rho)) if rho > 0 else NEG_INF


@dataclass(frozen=True)
class GtTable:
    """The five outcome cases of one group-testing row for a split with
    |s_dif| = ell, given beta = ones.

    probs and vals list, per case, the probability and the density value:
    x_eq has a one; then x_eq = 0 with (x_dif, y) = (0, 0), (0, 1), (!= 0, 0),
    (!= 0, 1).  log_match/log_miss are log(1 - rho) and log rho;
    log_y1/log_y0 are log P[y = 1 | x_eq = 0] and log P[y = 0 | x_eq = 0]
    (-inf when impossible).
    """

    log_match: float
    log_miss: float
    log_y1: float
    log_y0: float
    probs: np.ndarray
    vals: np.ndarray


@lru_cache(maxsize=4096)
def _gt_table(p1: float, k: int, ell: int, rho: float) -> GtTable:
    """Outcome table for design probability p1 = nu/k and crossover rho."""
    xi = (1.0 - p1) ** ell  # P[x_dif = 0]
    q0 = (1.0 - p1) ** (k - ell)  # P[x_eq = 0]
    m1 = rho * xi + (1.0 - rho) * (1.0 - xi)  # P[y=1 | x_eq = 0]
    m0 = 1.0 - m1
    log_match, log_miss = _flip_logs(rho)
    with np.errstate(divide="ignore"):
        log_y1 = float(np.log(m1))
    log_y0 = float(np.log(m0)) if m0 > 0 else NEG_INF
    cases = np.array([xi * (1.0 - rho), xi * rho, (1.0 - xi) * rho, (1.0 - xi) * (1.0 - rho)])
    probs = np.concatenate([[1.0 - q0], q0 * cases])
    # a zero-probability case may hold nan or +inf here; no reader uses it
    vals = np.array(
        [0.0, log_match - log_y0, log_miss - log_y1, log_miss - log_y0, log_match - log_y1]
    )
    probs.flags.writeable = vals.flags.writeable = False  # shared through the cache
    return GtTable(log_match, log_miss, log_y1, log_y0, probs, vals)


def gt_mi_closed_form(nu: float, k: int, ell, rho: float = 0.0):
    """(1 - nu/k)^(k-ell) (H2(xi * rho) - H2(rho)), xi = (1 - nu/k)^ell.

    An int ell gives a float; a sequence of ells (a tuple or a range) gives
    a list, each element equal to the int call bit for bit.  The powers are
    Python's, one per ell; H2 takes every ell's argument, and rho last, in
    one array call.
    """
    nu_over_k = nu / k
    if nu_over_k > 1.0:
        raise ValueError("nu/k exceeds 1")
    single = isinstance(ell, numbers.Integral)
    ells = (ell,) if single else ell
    xi = np.array([(1.0 - nu_over_k) ** e for e in ells])
    q0 = np.array([(1.0 - nu_over_k) ** (k - e) for e in ells])
    star = xi * rho + (1.0 - xi) * (1.0 - rho)
    h = binary_entropy(np.append(star, rho))
    mi = (q0 * (h[:-1] - h[-1])).tolist()
    return mi[0] if single else mi


def _any_nonzero(x, cols=None) -> np.ndarray:
    """Whether some column of x, or of its columns cols, is non-zero, per
    row: x.astype(bool).any(axis=-1) (NaN counts, -0.0 does not, no column
    gives False) as an OR over the k columns, where numpy would reduce the
    short last axis one row at a time and fancy-indexing cols would copy."""
    hit = np.zeros(x.shape[:-1], dtype=bool)
    for j in range(x.shape[-1]) if cols is None else cols:
        hit |= x[..., j] != 0
    return hit


class GroupTesting(Channel):
    """y = 1{any tested item defective} xor Bernoulli(rho), x ~ Bernoulli(nu/k);

    I = (1 - nu/k)^(k-ell) (H2(xi * rho) - H2(rho)),  xi = (1 - nu/k)^ell.
    b is ignored (beta = ones).  A zero-probability observation (noiseless
    testing only) has density -inf, never NaN.
    """

    only_prior = "all-ones"

    def validate(self, spec) -> None:
        if not 0.0 <= spec.rho < 0.5:
            raise ValueError(f"crossover rho must lie in [0, 0.5), got {spec.rho}")
        if not spec.nu > 0:
            raise ValueError("Bernoulli design intensity nu must be > 0")

    def check_prior(self, spec, prior, k: int) -> None:
        if prior.variant != self.only_prior:
            raise ValueError("group testing pairs only with the all-ones prior")
        spec.bernoulli_p(k)

    def draw(self, spec, rng, raw, noise):
        rng.random(out=raw)
        if spec.rho > 0.0:  # noiseless testing takes no noise draw
            rng.random(out=noise)

    def design(self, spec, raw, k):
        return np.less(raw, spec.bernoulli_p(k), out=raw)  # 0/1 floats

    def outputs(self, spec, x_s, b, noise):
        hit = _any_nonzero(x_s)
        if spec.rho > 0.0:
            hit ^= noise < spec.rho
        return hit.astype(float)

    def table(self, spec, partition) -> GtTable:
        return _gt_table(spec.bernoulli_p(partition.k), partition.k, partition.ell, spec.rho)

    def score(self, spec, n, n_miss):
        """log P(y | x_s) of n rows, n_miss of which differ from the noiseless
        output; n_miss may be an array (one entry per candidate support)."""
        if spec.rho == 0.0:
            return np.where(n_miss == 0, 0.0, NEG_INF)
        log_match, log_miss = _flip_logs(spec.rho)
        return (n - n_miss) * log_match + n_miss * log_miss

    def loglik_rows_and_sum(self, spec, x_s, b, y):
        """Both from one comparison of y with the noiseless outputs of x_s:
        log(1 - rho) or log rho per row, and the `score` of the misses."""
        match = (y > 0.5) == _any_nonzero(x_s)
        log_match, log_miss = _flip_logs(spec.rho)
        n_miss = np.sum(~match, axis=-1)
        return np.where(match, log_match, log_miss), _row_sum(self.score(spec, y.shape[-1], n_miss))

    def log_marginal_rows(self, spec, partition, x_s, b, y):
        t = self.table(spec, partition)
        eq_hit = _any_nonzero(x_s, partition.eq_index())
        y1 = y > 0.5
        # x_eq has a one: the noiseless output is 1 whatever x_dif is
        return np.where(
            eq_hit, np.where(y1, t.log_match, t.log_miss), np.where(y1, t.log_y1, t.log_y0)
        )

    def density_from_rows(self, lik_rows, marginal_rows):
        with np.errstate(invalid="ignore"):
            out = lik_rows - marginal_rows
        # zero-probability observation: explicit -inf sentinel, never NaN
        return np.where(np.isneginf(lik_rows), NEG_INF, out)

    def mi(self, spec, parts, b):
        """One gt_mi_closed_form call over the partitions' sizes; they
        must share k.  From a model.MinInfoPartitions, its own k and ells
        (a range): none of its partitions is made."""
        if hasattr(parts, "ells"):
            return gt_mi_closed_form(spec.nu, parts.k, parts.ells, spec.rho)
        ks = {part.k for part in parts}
        if len(ks) > 1:
            raise ValueError(f"group-testing partitions of one k only, got k in {sorted(ks)}")
        ells = tuple(part.ell for part in parts)
        return gt_mi_closed_form(spec.nu, ks.pop(), ells, spec.rho) if ells else []

    def variance(self, spec, partition, b):
        t = self.table(spec, partition)
        mean = 0.0
        second = 0.0
        for pr, v in zip(t.probs, t.vals):
            if pr > 0.0:
                mean += pr * v
                second += pr * v * v
        return max(0.0, second - mean**2)

    def tail_spec(self, spec, b, parts, mi_map):
        """Chernoff (noiseless) or Bennett (noisy) with delta2 = 0.9 up to
        floor(k / log k), where ell = o(k); discrete Bernstein with delta2 =
        0.1 above.  eps = 0.05 is the slack for "sufficiently large p".
        Only len(parts) is read, so no partition is made."""
        k, nu, rho = len(parts), spec.nu, spec.rho
        cut = int(k / math.log(k)) if k >= 3 else 1
        if rho == 0.0:
            small = lambda ells: conc.chernoff_gt_terms(nu, k, ells, 0.9, 0.05)
        else:
            small = lambda ells: conc.bennett_gt_noisy_terms(nu, rho, k, ells, 0.9, 0.05)
        large = lambda ells: conc.bernstein_discrete_terms(
            np.array([mi_map[e] for e in ells.tolist()]), 2, 0.1)
        return conc.TailBoundSpec(lambda ells: np.where(
            (ells <= cut)[:, None], conc.term_rows(small(ells)), conc.term_rows(large(ells))))


CHANNELS: dict[str, Channel] = {
    LINEAR: Linear(),
    ONE_BIT: OneBit(),
    GROUP_TESTING: GroupTesting(),
}
