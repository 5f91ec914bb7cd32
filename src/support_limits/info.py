"""
Likelihoods, information densities, and conditional mutual informations.

For a support split (s_dif, s_eq) and non-zero entries b, the single-letter
information density is the log-likelihood ratio

    i(x_dif; y | x_eq, b) = log P(y | x_dif, x_eq, b) / P(y | x_eq, b),

where the denominator marginalizes x_dif over the measurement design (never
an empirical plug-in).  Its conditional mean is the mutual information
I_{dif,eq}(b) = I(X_dif; Y | X_eq, beta = b), a float from `mutual_information`
(closed form or quadrature); `density_variance` gives its variance.  The
per-channel formulas live in `channels`; this module turns them into
densities, mutual informations and marginal likelihoods.

Zero-probability observations (noiseless group testing only) yield an
explicit -inf density, never a silent NaN; decoders treat -inf as
"candidate eliminated".
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import CHANNELS, NEG_INF, _row_sum, gt_mi_closed_form  # noqa: F401 (re-exported)
from .model import (
    ALL_ONES,
    FIXED_VECTOR,
    IID_GAUSSIAN,
    LINEAR,
    ONE_BIT,
    PERMUTED_VECTOR,
    ModelSpec,
    Partition,
    ProblemDims,
    SignalPrior,
    rng_stream,
)
from .numerics import (
    DEFAULT_QUAD,
    QuadratureSpec,
    gaussian_expectation,
    log_q_function,
    log_sum_exp,
    mean_entropy_q_scaled,
)

_LOG_2PI = float(np.log(2.0 * np.pi))


class SupportMismatchError(ValueError):
    """A sampled observation had zero likelihood under the stated model."""


class UnsupportedCombinationError(ValueError):
    """The (prior, channel) pair has no implemented marginal likelihood."""


@dataclass(frozen=True)
class InfoStats:
    """Monte Carlo density mean (nats) and variance, from variance_mc."""

    mi: float
    var: float
    trials: int = 0
    std_err: float = 0.0


# ---------------------------------------------------------------------------
# Per-row information densities (vectorized over measurement rows)
# ---------------------------------------------------------------------------


def density_rows(model: ModelSpec, partition: Partition, b, x_s, y, lik_rows=None) -> np.ndarray:
    """Information density of each row of x_s (n x k) and y (n): the
    channel's log-likelihood rows minus its log-marginal rows.  Returns -inf
    (sentinel) for observations with zero likelihood under the channel.  A
    (C x n x k) stack of candidate supports gives a (C x n) array.
    lik_rows, the likelihood rows of x_s and b already computed (as the
    threshold decoder has them), are used instead of evaluating them again."""
    x_s = np.asarray(x_s, dtype=float)
    y = np.asarray(y, dtype=float)
    b = np.asarray(b, dtype=float)
    return CHANNELS[model.channel].density_rows(model, partition, b, x_s, y, lik_rows)


# ---------------------------------------------------------------------------
# Mutual information and variance
# ---------------------------------------------------------------------------


def mutual_information(
    model: ModelSpec,
    partition: Partition,
    b=None,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """I_{dif,eq}(b) in nats.

    Linear and group testing are closed form; the 1-bit channel evaluates two
    scaled-entropy Gaussian expectations.  b is ignored for group testing.
    """
    return CHANNELS[model.channel].mi(model, partition, b, quad)


def density_variance(
    model: ModelSpec,
    partition: Partition,
    b=None,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Variance of the information density i(x_dif; y | x_eq, b).

    Linear and group testing are closed form; the 1-bit channel evaluates a
    2-D tensor quadrature over (W_dif, W_eq).  b is ignored for group testing.
    """
    return CHANNELS[model.channel].variance(model, partition, b, quad)


def mi_asymptotic_1bit_lowsnr(b, sigma: float, partition: Partition) -> float:
    """Low-SNR 1-bit approximation (1 / (pi sigma^2)) sum_dif b_i^2."""
    b = np.asarray(b, dtype=float)
    return float(np.sum(b[partition.dif_index()] ** 2)) / (math.pi * sigma**2)


def gaussian_logit_slope_constant(quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """E[W log((1 - Q(W)) / Q(W))] for W ~ N(0,1), about 1.8064."""
    return gaussian_expectation(
        lambda w: w * (log_q_function(-np.asarray(w)) - log_q_function(np.asarray(w))),
        quad,
    )


@dataclass(frozen=True)
class SingleSwapMI:
    """ell = 1 mutual information for equal entries b0: leading-order
    approximation, exact quadrature value, and the Gaussian constant used."""

    approx: float
    exact: float
    constant: float


def mi_1bit_single_swap(
    k: int, b0: float, sigma: float, quad: QuadratureSpec = DEFAULT_QUAD
) -> SingleSwapMI:
    """Common value of the ell = 1 mutual informations when all entries are b0.

    approx = (1/2) (b0^2/sigma^2) / sqrt(2 pi k b0^2/sigma^2) E[W log((1-Q)/Q)].
    exact evaluates E[H2(Q(W sqrt((k-1) b0^2 / (sigma^2 + b0^2))))]
    - E[H2(Q(W sqrt(k b0^2) / sigma))] for cross-checking the approximation.
    """
    if k < 2 or b0 <= 0:
        raise ValueError("need k >= 2 and b0 > 0")
    snr = b0**2 / sigma**2
    const = gaussian_logit_slope_constant(quad)
    approx = 0.5 * snr / math.sqrt(2.0 * math.pi * k * snr) * const
    a_eq = math.sqrt((k - 1) * b0**2 / (sigma**2 + b0**2))
    a_s = math.sqrt(k * b0**2) / sigma
    exact = mean_entropy_q_scaled(a_eq, quad) - mean_entropy_q_scaled(a_s, quad)
    return SingleSwapMI(approx=approx, exact=exact, constant=const)


def variance_bound_1bit(b, sigma: float, partition: Partition, c0: float = 1.0) -> float:
    """Structural upper-bound shape for the 1-bit density variance:

        c0 [ t + t^2 + min(1, t^2) e ],  t = sum_dif b^2/sigma^2,
                                         e = sum_eq b^2/sigma^2.

    The universal constant is configurable (default 1); a working empirical
    value is calibrated in the tests, not hard-coded here.
    """
    b = np.asarray(b, dtype=float)
    t = float(np.sum(b[partition.dif_index()] ** 2)) / sigma**2
    e = float(np.sum(b[partition.eq_index()] ** 2)) / sigma**2
    return c0 * (t + t * t + min(1.0, t * t) * e)


def variance_mc(
    model: ModelSpec, partition: Partition, b, trials: int, seed: int
) -> InfoStats:
    """Unbiased Monte Carlo mean/variance of the single-letter density.

    Aborts with SupportMismatchError if any sampled density is -inf, which
    signals a (model, b) pair inconsistent with the sampled observations.
    """
    if trials < 1000:
        raise ValueError("variance_mc requires trials >= 1000")
    rng = rng_stream(seed)
    channel = CHANNELS[model.channel]
    b = np.ones(partition.k) if b is None else np.asarray(b, dtype=float)
    raw, noise = np.empty((trials, partition.k)), np.empty(trials)
    channel.draw(model, rng, raw, noise)
    x = channel.design(model, raw, partition.k)
    y = channel.outputs(model, x, b, noise)
    dens = density_rows(model, partition, b, x, y)
    if not np.all(np.isfinite(dens)):
        raise SupportMismatchError("sampled a zero-likelihood observation")
    mean = float(np.mean(dens))
    var = float(np.var(dens, ddof=1))
    se_mean = math.sqrt(var / trials)
    return InfoStats(mi=mean, var=var, trials=trials, std_err=se_mean)


# ---------------------------------------------------------------------------
# Prior-divergence bounds (gamma selectors) and marginal likelihoods
# ---------------------------------------------------------------------------


def prior_divergence_stats(
    model: ModelSpec, prior: SignalPrior, dims: ProblemDims
) -> tuple[float, float, float]:
    """Closed-form bounds (I0, V0, I0+) for the Gaussian prior.

    I0 <= (k/2) log(1 + n sigma_beta^2 / sigma^2) and V0 <= 2n for the linear
    channel; the 1-bit channel inherits the I0 bound by data processing, and
    I0+ <= I0_bound + sqrt(k log(1 + n sigma_beta^2 / sigma^2)).
    """
    if prior.variant != IID_GAUSSIAN:
        raise ValueError("prior_divergence_stats requires the iid-gaussian prior")
    if model.channel not in (LINEAR, ONE_BIT):
        raise ValueError("prior_divergence_stats applies to linear/1-bit channels")
    load = math.log1p(dims.n * prior.sigma_beta_sq / model.sigma**2)
    i0 = 0.5 * dims.k * load
    v0 = 2.0 * dims.n
    i0_plus = i0 + math.sqrt(dims.k * load)
    return i0, v0, i0_plus


def _distinct_permutations(values: tuple[float, ...]):
    """All distinct arrangements of a multiset, lexicographic order."""
    pool = sorted(values)
    k = len(pool)

    def rec(remaining: list[float], prefix: list[float]):
        if len(prefix) == k:
            yield tuple(prefix)
            return
        seen = set()
        for i, v in enumerate(remaining):
            if v in seen:
                continue
            seen.add(v)
            yield from rec(remaining[:i] + remaining[i + 1 :], prefix + [v])

    yield from rec(pool, [])


def count_distinct_permutations(values: tuple[float, ...]) -> int:
    total = math.factorial(len(values))
    for _, group in itertools.groupby(sorted(values)):
        total //= math.factorial(len(list(group)))
    return total


@functools.lru_cache(maxsize=16)
def prior_atoms(prior: SignalPrior, k: int, max_atoms: int = 10**6):
    """(log_weight, b_vector) atoms for discrete priors, b read-only.

    Built once per (prior, k) and shared through the cache: the threshold
    decoder and exhaustive ML read the same atoms on every call, and a
    permuted prior is not re-enumerated per trial."""
    if prior.variant == FIXED_VECTOR:
        atoms = [(0.0, np.asarray(prior.b, dtype=float))]
    elif prior.variant == ALL_ONES:
        atoms = [(0.0, np.ones(k))]
    elif prior.variant == PERMUTED_VECTOR:
        n_distinct = count_distinct_permutations(prior.b)
        if n_distinct > max_atoms:
            raise ValueError(
                f"permutation mixture has {n_distinct} atoms > {max_atoms}"
            )
        lw = -math.log(n_distinct)
        atoms = [(lw, np.asarray(perm, dtype=float)) for perm in _distinct_permutations(prior.b)]
    else:
        raise UnsupportedCombinationError(f"no atoms for prior {prior.variant!r}")
    for _, b in atoms:
        b.flags.writeable = False
    return tuple(atoms)


def log_conditional_likelihood(model: ModelSpec, x_s, b, y):
    """log P(y | x_s, b): product over rows of the channel likelihood.  A
    float for one (n x k) x_s; one value per candidate for a (C x n x k)
    stack."""
    x_s = np.asarray(x_s, dtype=float)
    y = np.asarray(y, dtype=float)
    b = np.asarray(b, dtype=float)
    return CHANNELS[model.channel].loglik(model, x_s, b, y)


def log_marginal_likelihood(model: ModelSpec, prior: SignalPrior, x_s, y):
    """log P(y | x_s), marginalizing beta_S over the prior.  A float for one
    (n x k) x_s; one score per candidate for a (C x n x k) stack.

    Exact finite mixture over distinct permutations for permuted-vector
    priors (all channels); the exact Gaussian evidence for the iid-gaussian
    prior on the linear channel (`_gaussian_evidence`); deterministic for
    fixed-vector/all-ones.
    """
    x_s = np.asarray(x_s, dtype=float)
    y = np.asarray(y, dtype=float)
    if prior.variant == IID_GAUSSIAN:
        if model.channel != LINEAR:
            raise UnsupportedCombinationError(
                "iid-gaussian marginal likelihood is only available for the linear channel"
            )
        return _row_sum(_gaussian_evidence(model.sigma, prior.sigma_beta_sq, x_s, y))
    terms = [
        lw + log_conditional_likelihood(model, x_s, b, y)
        for lw, b in prior_atoms(prior, x_s.shape[-1])
    ]
    return _row_sum(_log_mixture(terms))


def _log_mixture(terms):
    """Log-sum-exp of the prior atoms' log-weighted terms, per candidate."""
    if len(terms) == 1:  # a single atom is its own log-sum-exp
        return terms[0]
    return log_sum_exp(np.stack(terms, axis=-1))


def _gaussian_evidence(sigma: float, sigma_beta_sq: float, x_s, y):
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
    (`Linear.validate` refuses a sigma^2 that underflows to 0).  At n = 4 this refuses from
    sigma_beta^2 / sigma^2 of about 1e15 on.  Below the cut-off a singular G
    (n < k) still carries a rounding error of about eps * max diag G, which
    r scales: the relative error of the score grows like eps * r * max diag G
    (2e-11 at sigma_beta^2 = 1e6, 2e-5 at 1e12, n = 1, k = 2).
    """
    sigma_sq = sigma**2
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
    return -0.5 * (quad + logdet + y.size * (math.log(sigma_sq) + _LOG_2PI))
