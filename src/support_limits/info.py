"""
Likelihoods, information densities, and conditional mutual informations.

For a support split (s_dif, s_eq) and non-zero entries b, the single-letter
information density is the log-likelihood ratio

    i(x_dif; y | x_eq, b) = log P(y | x_dif, x_eq, b) / P(y | x_eq, b),

where the denominator marginalizes x_dif over the measurement design (never
an empirical plug-in).  Its conditional mean is the mutual information
I_{dif,eq}(b) = I(X_dif; Y | X_eq, beta = b), a float from `mutual_information`
(closed form or quadrature; a list, from one call, for a sequence of
partitions); `density_variance` gives its variance.  The per-channel
formulas live in `channels`, the linear channel's Gaussian evidence among
them; this module turns them into densities, mutual informations and
marginal likelihoods, and reaches every one through CHANNELS[model.channel],
never by the channel's name.

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

from .channels import (  # noqa: F401 (NEG_INF, the error and gt_mi_closed_form re-exported)
    CHANNELS, NEG_INF, UnsupportedCombinationError, _row_sum, gt_mi_closed_form,
)
from .model import (
    ALL_ONES,
    FIXED_VECTOR,
    IID_GAUSSIAN,
    PERMUTED_VECTOR,
    ModelSpec,
    Partition,
    ProblemDims,
    SignalPrior,
    rng_stream,
    validate_pairing,
)
from .numerics import gaussian_expectation, log_q_function, log_sum_exp


class SupportMismatchError(ValueError):
    """A sampled observation had zero likelihood under the stated model."""


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


def mutual_information(model: ModelSpec, partition, b=None):
    """I_{dif,eq}(b) in nats: a float for one Partition, a list for a
    sequence of them, each element equal to the call on its partition bit
    for bit (a Partition is the sequence of one the channel evaluates).

    Linear and group testing are closed form; the 1-bit channel evaluates two
    scaled-entropy Gaussian expectations per partition.  b is ignored for
    group testing, whose sequence must share one k.
    """
    if isinstance(partition, Partition):
        return CHANNELS[model.channel].mi(model, (partition,), b)[0]
    return CHANNELS[model.channel].mi(model, partition, b)


def density_variance(model: ModelSpec, partition: Partition, b=None) -> float:
    """Variance of the information density i(x_dif; y | x_eq, b).

    Linear and group testing are closed form; the 1-bit channel evaluates a
    2-D tensor quadrature over (W_dif, W_eq).  b is ignored for group testing.
    """
    return CHANNELS[model.channel].variance(model, partition, b)


def gaussian_logit_slope_constant() -> float:
    """E[W log((1 - Q(W)) / Q(W))] for W ~ N(0,1), about 1.8064."""
    return gaussian_expectation(
        lambda w: w * (log_q_function(-np.asarray(w)) - log_q_function(np.asarray(w)))
    )


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
    I0+ <= I0_bound + sqrt(k log(1 + n sigma_beta^2 / sigma^2)).  A
    channel the prior does not pair with (group testing) is refused by
    `validate_pairing`.
    """
    if prior.variant != IID_GAUSSIAN:
        raise ValueError("prior_divergence_stats requires the iid-gaussian prior")
    validate_pairing(model, prior, dims.k)
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
    (n x k) x_s; one score per candidate for a (C x n x k) stack, against
    the (n,) outputs all candidates share or, under a discrete prior, a
    (C x n) y, one row of outputs per candidate, which scores each
    candidate as its own call would.

    Exact finite mixture over distinct permutations for permuted-vector
    priors (all channels); the channel's `gaussian_evidence` for the
    iid-gaussian prior, which only the linear channel defines (the others
    raise UnsupportedCombinationError); deterministic for
    fixed-vector/all-ones.
    """
    x_s = np.asarray(x_s, dtype=float)
    y = np.asarray(y, dtype=float)
    if prior.variant == IID_GAUSSIAN:
        return CHANNELS[model.channel].gaussian_evidence(model, prior.sigma_beta_sq, x_s, y)
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
