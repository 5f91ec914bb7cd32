"""
Seeded Monte Carlo estimation of the exact and partial error probabilities
for explicit decoders at desk scale.

Decoders:

- threshold: searches for the unique candidate support whose beta-averaged
  information density exceeds the paper's per-size threshold
  gamma_l + gamma'_l + gamma on every partition of the candidate with
  l <= p - k (no wrong support lies at a larger distance).  The threshold
  is the achievability bound's numerator, `bounds.achievability_numerators`.
  "none" and "multiple" outcomes both count as errors.
- exhaustive-ml: argmax of the beta-averaged likelihood over all C(p, k)
  candidate supports, lexicographic tie-break.
- comp-gt: rules out any item appearing in a negative test, then keeps the k
  items occurring most often in positive tests (group testing only).

Every exhaustive decoder works on all candidate supports at once.
Candidates are drawn in lexicographic blocks of at most _CANDIDATE_BLOCK; a
block's design columns are stacked, from rows of the transposed design, into
one (candidates x rows x k) array, which the channel likelihood and density
methods take whole.  The threshold decoder evaluates each prior atom's
likelihood rows and sum once per block (the numerator log P(y|x_s) does
not depend on the partition), and the zero-likelihood candidates, whose
statistic is -inf on every partition, drop out of every array before the
first partition.  Each partition then adds only the atoms' density rows
(`density_rows`, given the likelihood rows, evaluates just the marginal
rows), their sums and one denominator mixture, and the candidates that fail
drop out before the next partition.  Exhaustive ML scores a block
for a group of trials at once.  Under a fixed or permuted prior it stacks
the block's (trial, candidate) pairs and bounds each pair's score by its
`log_marginal_likelihood` on the first _ML_HEAD_SHARE of the rows plus the
channel's `loglik_row_max` for each other row; only the pairs whose bound
can still reach the best full score of their trial are scored in full, by
the same call on all the rows, so the estimates and ties are those of
scoring every candidate.  The iid-Gaussian prior scores each trial's block
with the linear channel's `gaussian_evidence`, the k x k evidence of
Bayesian linear regression in its non-negative residual form, which
refuses a covariance it cannot tell from singular; that evidence is not a
sum over rows, so it has no such bound.  Group-testing ML with the
all-ones prior instead scores a block with one product of the design and a
0/1 (items x candidates) incidence matrix.  The decoders choose these paths
by the prior, never by the channel's name: `validate_pairing` ties the
all-ones prior to group testing.

`run_cell` draws and decodes trial blocks of at most _TRIAL_BLOCK_ENTRIES
design entries (n x p per trial) and at least one trial, each drawn by one
`sample_realization` call as a RealizationBlock: COMP scores a block in one
pass on its stacked designs and outputs, exhaustive ML enumerates the
candidates (and GT incidence matrices) once per block, and the threshold
decoder takes one trial's design and outputs per call.  Exhaustive ML
scores each candidate block for groups of trials, each group's trials x n x
candidates at most _TRIAL_BLOCK_ENTRIES (and at least one trial), so its
stacks stay bounded as the trial block does.  ML and COMP return a
(trials x k) array like the block's `support`, on which `run_cell` counts
the errors; the threshold decoder returns one DecodeOutcome per trial, a
sorted 1-based tuple or None and a status, which `_decode` stacks into such
an array.

Exhaustive decoding is guarded at C(p, k) <= 10^6 and k <= 12; the guards
are hard errors, not warnings.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .bounds import _check_delta1, achievability_numerators, gamma_select
from .channels import CHANNELS
from .info import NEG_INF, _log_mixture, density_rows, log_marginal_likelihood, prior_atoms
from .model import (
    ALL_ONES,
    IID_GAUSSIAN,
    GuardError,
    ModelSpec,
    ProblemDims,
    RealizationBlock,
    SignalPrior,
    enumerate_partitions,
    sample_realization,
    validate_pairing,
)
from .numerics import log_binomial

CANDIDATE_CAP = 10**6
K_CAP = 12
# n x p design entries of one trial: run_cell refuses a larger design before
# it samples, where numpy would fail to allocate it
DESIGN_ENTRY_CAP = 10**7

# Candidates decoded together.  A threshold-decoder block holds
# _CANDIDATE_BLOCK x n x k design entries, a group-testing ML block
# _CANDIDATE_BLOCK x (p + n), so memory stays bounded whatever C(p, k) is.
_CANDIDATE_BLOCK = 512
# Design entries (n x p per trial) of the trials run_cell decodes together.
_TRIAL_BLOCK_ENTRIES = 2**16
# Share of the n rows on which discrete-prior ML bounds a candidate's score
# before it scores the candidates that can still win in full.  decode_ml
# times (ms, best of 8 x 2 in-process, 2-vCPU VM) at shares 0.2 / 0.3 / 0.4
# / 0.5: 1-bit p = 12, k = 3, n = 100, 30 trials 20.4 / 15.3 / 15.0 / 16.4;
# the same at n = 20, 100 trials 25.3 / 19.2 / 16.4 / 14.9, and at n = 60,
# 40 trials 19.8 / 13.7 / 13.1 / 14.1; linear permuted p = 10, k = 3,
# n = 40, 30 trials 4.2 / 3.1 / 3.0 / 3.3.
_ML_HEAD_SHARE = 0.4


@dataclass(frozen=True)
class DecoderSpec:
    """kind: threshold | exhaustive-ml | comp-gt."""

    kind: str
    delta1: float = 0.1

    def __post_init__(self):
        if self.kind not in ("threshold", "exhaustive-ml", "comp-gt"):
            raise ValueError(f"unknown decoder kind {self.kind!r}")
        _check_delta1(self.delta1)


@dataclass(frozen=True)
class DecodeOutcome:
    """One trial's threshold decode: the unique passing candidate as a
    sorted, 1-based tuple, or None."""

    estimate: tuple[int, ...] | None
    status: str  # "unique" | "none" | "multiple"


@dataclass(frozen=True)
class SimReport:
    """Error counts for one (n, trials) cell with a Wilson 95% interval."""

    n: int
    trials: int
    errors_exact: int
    errors_partial: int
    pe_hat: float
    ci_lo: float
    ci_hi: float
    seed: int

    def as_csv_row(self) -> list:
        return [
            self.n,
            self.trials,
            self.errors_exact,
            self.errors_partial,
            f"{self.pe_hat:.6f}",
            f"{self.ci_lo:.6f}",
            f"{self.ci_hi:.6f}",
            self.seed,
        ]


CSV_HEADER = ["n", "trials", "errors_exact", "errors_partial", "pe_hat", "ci_lo", "ci_hi", "seed"]


def wilson_interval(errors: int, trials: int, z: float = 1.959963984540054):
    """Wilson score 95% interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    p = errors / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials**2)) / denom
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials else min(1.0, center + half)
    return lo, hi


def _guard_candidates(dims: ProblemDims) -> None:
    if dims.k > K_CAP:
        raise GuardError(f"exhaustive decoding limited to k <= {K_CAP}, got {dims.k}")
    if math.comb(dims.p, dims.k) > CANDIDATE_CAP:
        raise GuardError(
            f"C({dims.p}, {dims.k}) exceeds the {CANDIDATE_CAP} candidate cap"
        )


def candidate_supports(dims: ProblemDims):
    _guard_candidates(dims)
    return itertools.combinations(range(1, dims.p + 1), dims.k)


def _candidate_blocks(dims: ProblemDims):
    """candidate_supports(dims) in lexicographic blocks, each a (B x k) array
    of 1-based indices with B <= _CANDIDATE_BLOCK, read off the chained
    tuples by one np.fromiter per block."""
    entries = itertools.chain.from_iterable(candidate_supports(dims))
    total = math.comb(dims.p, dims.k)
    for start in range(0, total, _CANDIDATE_BLOCK):
        size = min(_CANDIDATE_BLOCK, total - start)
        yield np.fromiter(entries, dtype=int, count=size * dims.k).reshape(size, dims.k)


def _design_stack(x, block):
    """The C-ordered (B x n x k) design columns of the candidates in block, a
    (B x k) array of 1-based column indices, filled one support position at
    a time from rows of the transposed design: contiguous row gathers, where
    x[:, block - 1] takes numpy's slow strided path.

    x is one (n x p) design, or T designs as a (T x n x p) stack, read as the
    one n x Tp design whose columns t p + 1 .. t p + p are trial t's: the
    row block[i] = t p + c gathers candidate c of trial t, so one call
    stacks any (trial, candidate) pairs.  The rows come from the (T x p x n)
    transposed designs, which are copied only when x is not already a
    transposed view of a C-ordered array."""
    n, p = x.shape[-2:]
    rows = np.ascontiguousarray(np.swapaxes(x, -1, -2)).reshape(math.prod(x.shape[:-2]) * p, n)
    stack = np.empty((len(block), n, block.shape[1]), dtype=x.dtype)
    for j in range(block.shape[1]):
        stack[:, :, j] = rows[block[:, j] - 1]
    return stack


def _trial_blocks(dims: ProblemDims, trials: int):
    """range(trials) in consecutive ranges of at most _TRIAL_BLOCK_ENTRIES
    design entries (n x p per trial) and at least one trial."""
    size = max(1, _TRIAL_BLOCK_ENTRIES // max(1, dims.n * dims.p))
    return (range(t, min(t + size, trials)) for t in range(0, trials, size))


# ---------------------------------------------------------------------------
# Threshold decoder
# ---------------------------------------------------------------------------


def _atom_likelihoods(model, atoms, x_cands, y):
    """Per prior atom (lw, b): its log-likelihood rows log P(y_i | x_i, b)
    and its log-weighted sum lw + log P(y | x_s, b).  A (C x n x k) stack
    x_cands gives (C x n) rows and C sums, one (n x k) candidate n rows and
    a float."""
    channel = CHANNELS[model.channel]
    rows, nums = [], []
    for lw, b in atoms:
        lik_rows, lik = channel.loglik_rows_and_sum(model, x_cands, b, y)
        rows.append(lik_rows)
        nums.append(lw + lik)
    return rows, nums


def _partition_statistic(model, atoms, partition, x_cands, y, rows, nums, num_total):
    """Beta-averaged statistic num_total - log P(y|x_eq) on one partition,
    from the atoms' `_atom_likelihoods` and their mixture num_total =
    log P(y|x_s).  Each atom's denominator is its numerator minus the summed
    densities, which `density_rows` takes from the likelihood rows at hand;
    where that is undefined (a zero-likelihood row) it is summed directly
    from the channel's marginal rows.  A zero-likelihood candidate is
    eliminated with -inf."""
    den_terms = []
    for (lw, b), lik_rows, num in zip(atoms, rows, nums):
        dens = density_rows(model, partition, b, x_cands, y, lik_rows)
        with np.errstate(invalid="ignore"):
            den = num - np.sum(dens, axis=-1)
        direct = np.isneginf(num) | ~np.isfinite(dens).all(axis=-1)
        if direct.any():
            marginal = CHANNELS[model.channel].log_marginal_rows(model, partition, x_cands, b, y)
            den = np.where(direct, lw + np.sum(marginal, axis=-1), den)
        den_terms.append(den)
    with np.errstate(invalid="ignore"):
        return np.where(np.isneginf(num_total), NEG_INF, num_total - _log_mixture(den_terms))


def _averaged_partition_density(model, prior, x_cand, y, partition):
    """Beta-averaged statistic log P(y|x_s) - log P(y|x_eq) for one partition:
    `_partition_statistic` on the atoms' `_atom_likelihoods`, which
    `_passing` evaluates once for all the partitions.

    x_cand is one candidate's (n x k) design columns, which gives a float, or
    a (C x n x k) stack of candidates, which gives one statistic each."""
    x_cand, y = np.asarray(x_cand, dtype=float), np.asarray(y, dtype=float)
    atoms = prior_atoms(prior, x_cand.shape[-1])
    rows, nums = _atom_likelihoods(model, atoms, x_cand, y)
    stat = _partition_statistic(model, atoms, partition, x_cand, y, rows, nums, _log_mixture(nums))
    return float(stat) if stat.ndim == 0 else stat


@functools.lru_cache(maxsize=64)
def _threshold_test(model, prior, dims: ProblemDims, delta1: float):
    """(thresholds, partitions) of the threshold test: the achievability
    numerators, gamma by the discrete rule, for l = 1..min(k, p - k) (no
    wrong support lies at a larger distance), and every partition they cover.
    Built once per (model, prior, dims, delta1), that is once per simulated
    cell, and shared read-only by its decodes, as are the prior's atoms
    (`prior_atoms` is cached too).  Entries whose squares sum beyond the
    float range raise ValueError: the marginal variance sigma^2 + sum b^2
    would be inf, and every statistic NaN."""
    if not math.isfinite(sum(v * v for v in prior.b)):
        raise ValueError(f"the threshold decoder needs entries whose squares sum below "
                         f"the float range, got b = {prior.b}")
    gamma = gamma_select("discrete", model, prior, dims)
    ells = range(1, min(dims.k, dims.p - dims.k) + 1)
    thresholds = dict(zip(ells, achievability_numerators(dims, ells, delta1, gamma)))
    return MappingProxyType(thresholds), tuple(enumerate_partitions(dims.k, thresholds))


def _passing(model, prior, x_cands, y, thresholds, partitions) -> np.ndarray:
    """Indices of the candidates of the (C x n x k) stack x_cands whose
    statistic exceeds its threshold on every one of the partitions.  y is
    the (n,) outputs all candidates share, or a (C x n) row per candidate.

    The atoms' likelihoods and their mixture are evaluated once.  A
    zero-likelihood candidate (num_total = -inf), whose statistic is -inf on
    every partition, leaves before the first; after each partition only the
    candidates that pass stay in them, in x_cands and in y."""
    live = np.arange(len(x_cands))
    if not partitions:
        return live
    atoms = prior_atoms(prior, x_cands.shape[-1])
    rows, nums = _atom_likelihoods(model, atoms, x_cands, y)
    num_total = _log_mixture(nums)
    passed = ~np.isneginf(num_total)
    for part in partitions:
        if not passed.all():
            live, x_cands, num_total = live[passed], x_cands[passed], num_total[passed]
            rows, nums = [r[passed] for r in rows], [v[passed] for v in nums]
            if y.ndim > 1:
                y = y[passed]
            if not live.size:
                return live
        stat = _partition_statistic(model, atoms, part, x_cands, y, rows, nums, num_total)
        passed = stat > thresholds[part.ell]
    return live[passed]


def decode_threshold(
    x: np.ndarray,
    y: np.ndarray,
    model: ModelSpec,
    prior: SignalPrior,
    dims: ProblemDims,
    delta1: float = 0.1,
) -> DecodeOutcome:
    """Unique candidate passing the threshold test on every partition, for
    one trial's (n x p) design x and (n,) outputs y; "none" or "multiple"
    otherwise (both are errors).  gamma follows the discrete rule, the one
    defined for the discrete priors this decoder accepts.

    It decodes one trial per call, with one outcome each, because the
    benchmark's tracer counts the status of each call."""
    thresholds, partitions = _threshold_test(model, prior, dims, delta1)
    winners = []
    for block in _candidate_blocks(dims):
        live = _passing(model, prior, _design_stack(x, block), y, thresholds, partitions)
        winners += [tuple(block[i].tolist()) for i in live]
        if len(winners) > 1:
            break
    if len(winners) == 1:
        return DecodeOutcome(estimate=winners[0], status="unique")
    return DecodeOutcome(estimate=None, status="none" if not winners else "multiple")


def threshold_union_bound(
    model: ModelSpec,
    prior: SignalPrior,
    dims: ProblemDims,
    delta1: float = 0.1,
    trials: int = 2000,
    seed: int = 0,
) -> tuple[float, float, float]:
    """Numeric evaluation of the two-term union bound on the threshold
    decoder's error: (true-support failure probability estimated by Monte
    Carlo, its standard error, exact wrong-support mass
    sum_l C(p-k,l) C(k,l) e^{-t_l}), with gamma by the discrete rule.
    trials < 1 raises ValueError."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    thresholds, partitions = _threshold_test(model, prior, dims, delta1)
    fails = 0
    for block in _trial_blocks(dims, trials):
        reals = sample_realization(dims, model, prior, seed, stream=(7,), trials=block)
        # one stack: each trial's true support against that trial's outputs
        live = _passing(model, prior, reals.x_support(), reals.y, thresholds, partitions)
        fails += len(block) - live.size
    p1 = fails / trials
    se = math.sqrt(max(p1 * (1 - p1), 1.0 / trials) / trials)
    ells = np.array(list(thresholds), dtype=int)
    logs = (log_binomial(dims.p - dims.k, ells) + log_binomial(dims.k, ells)).tolist()
    term2 = sum(math.exp(lb - t) for lb, t in zip(logs, thresholds.values()))
    return p1, se, term2


# ---------------------------------------------------------------------------
# Exhaustive ML decoder
# ---------------------------------------------------------------------------


def _incidence(p: int, cands):
    """0/1 (p x C) incidence matrix of cands, a (C x k) array of 1-based indices."""
    incidence = np.zeros((p, len(cands)))
    incidence[cands - 1, np.arange(len(cands))[:, None]] = 1.0
    return incidence


def _ml_fast_gt(model, x, y, incidence):
    """All-ones GT likelihood of each candidate of an `_incidence` matrix; a
    test hits the candidates where its product with the design is non-zero.

    x is one (n x p) design or a (trials x n x p) stack with y of shape
    (n,) or (trials x n); the scores are (C,) or (trials x C)."""
    hits = ((x != 0) @ incidence) > 0.5
    n_miss = (hits != (y > 0.5)[..., None]).sum(axis=-2)
    return CHANNELS[model.channel].score(model, y.shape[-1], n_miss)


def _ml_scores(model, prior, x_s, y):
    """`log_marginal_likelihood` of the (C x n x k) stack x_s, a NaN as
    -inf: a nan score never wins, as under a strict > comparison."""
    scores = log_marginal_likelihood(model, prior, x_s, y)
    return np.where(np.isnan(scores), -math.inf, scores)


def _ml_bounded_scores(model, prior, x, x_head, y, trials, block, floor):
    """(G x C) ML scores of the candidates of block (C x k) for the G trials
    of the range trials, under a discrete prior: the exact score of every
    (trial, candidate) pair that can still win or tie, -inf for the others.
    floor holds each trial's best score from earlier candidate blocks.

    Every likelihood row is at most the channel's c = loglik_row_max, so
    the score H of the first m rows (x_head, y[:, :m]) plus (n - m) c bounds
    the full score S, also for a mixture of prior atoms, whose sum over the
    last n - m rows is at most (n - m) c for each atom.  Per trial the pair
    with the largest bound is scored in full; with the floor raised to that
    score, a pair is scored in full only while its bound is at least
    floor - slack, and every other pair has S < floor, so it neither wins
    nor ties and its -inf changes no decision.

    The slack covers rounding.  Each row is rounded to a few eps and numpy
    sums a contiguous row pairwise (in blocks of 128), so a computed sum of
    rows r_i, the head or the full one, lies within about 1e-13 sum |r_i| of
    its exact value for any n, as do the (n - m) c term and the mixture's
    log-sum-exp.  Since every r_i <= c, sum |r_i| <= |S| + 2 n |c|, and a
    pair with S >= floor has |S| <= |floor| + n |c| (as S <= n c).  Its
    computed bound is then above floor - 1e-12 (|floor| + 3 n |c|), more
    than floor - slack for slack = 1e-9 (|floor| + 2 n |c|): a pair whose
    bound lies below floor - slack has S < floor.  A non-finite floor (no
    finite score yet) keeps every pair, and so does an empty head (m = 0),
    where every bound is n c."""
    n, m = y.shape[1], x_head.shape[1]
    count, size = len(trials), len(block)
    trial = np.repeat(np.arange(trials.start, trials.stop), size)
    pairs = np.tile(block, (count, 1)) + (trial * x.shape[2])[:, None]
    row_max = CHANNELS[model.channel].loglik_row_max(model)
    head = log_marginal_likelihood(model, prior, _design_stack(x_head, pairs), y[trial, :m])
    bound = head.reshape(count, size) + (n - m) * row_max
    bound = np.where(np.isnan(bound), -math.inf, bound)
    lead = np.arange(count) * size + np.argmax(bound, axis=1)
    lead_score = _ml_scores(model, prior, _design_stack(x, pairs[lead]), y[trial[lead]])
    floor = np.maximum(floor, lead_score)
    slack = 1e-9 * (np.abs(floor) + 2 * n * abs(row_max))
    keep = ((bound >= (floor - slack)[:, None]) | ~np.isfinite(floor)[:, None]).reshape(-1)
    keep[lead] = False  # scored already
    scores = np.full(count * size, -math.inf)
    scores[lead] = lead_score
    scores[keep] = _ml_scores(model, prior, _design_stack(x, pairs[keep]), y[trial[keep]])
    return scores.reshape(count, size)


def decode_ml(
    reals: RealizationBlock, model: ModelSpec, prior: SignalPrior, dims: ProblemDims
) -> np.ndarray:
    """Exhaustive maximum-likelihood support estimates of the T trials of
    reals, lexicographic ties: a (T x k) int array whose row t is trial t's
    sorted, 1-based estimate, as reals.support holds its truth.

    A (model, prior) pair that `sample_realization` refuses is refused here
    too.  The candidate blocks are enumerated once for all the trials, and
    each block is scored for groups of trials, a group's trials x n x
    candidates at most _TRIAL_BLOCK_ENTRIES (and at least one trial).  The
    all-ones prior, which pairs only with group testing, scores a group
    through `_ml_fast_gt`; the iid-Gaussian prior scores it one trial at a
    time through `log_marginal_likelihood`, whose evidence is not a sum over
    rows; every other prior through `_ml_bounded_scores`, which scores in
    full only the candidates whose bound on the first _ML_HEAD_SHARE of the
    rows can still reach the best score, with the same estimates."""
    validate_pairing(model, prior, dims.k)
    if not len(reals):  # np.concatenate and np.stack refuse an empty list
        return np.empty((0, dims.k), dtype=int)
    x, y = reals.x, reals.y  # trials x n x p, trials x n
    if prior.variant != ALL_ONES:
        # views of the C-ordered transposed designs, made once, from which
        # _design_stack gathers without a copy
        x, x_head = (
            np.swapaxes(np.ascontiguousarray(np.swapaxes(a, 1, 2)), 1, 2)
            for a in (x, x[:, : int(dims.n * _ML_HEAD_SHARE)])
        )
    rows = np.arange(len(reals))
    # the first candidate until one scores strictly higher
    best_score = np.full(len(reals), -math.inf)
    best = np.tile(np.arange(1, dims.k + 1), (len(reals), 1))
    for block in _candidate_blocks(dims):
        if prior.variant == ALL_ONES:  # validate_pairing ties it to group testing
            incidence = _incidence(dims.p, block)
        size = max(1, _TRIAL_BLOCK_ENTRIES // max(1, dims.n * len(block)))
        groups = []
        for g in range(0, len(reals), size):
            group = slice(g, g + size)
            if prior.variant == ALL_ONES:
                scores = _ml_fast_gt(model, x[group], y[group], incidence)
            elif prior.variant == IID_GAUSSIAN:
                scores = np.stack([
                    _ml_scores(model, prior, _design_stack(x_t, block), y_t)
                    for x_t, y_t in zip(x[group], y[group])
                ])
            else:
                trials = range(len(reals))[group]
                scores = _ml_bounded_scores(
                    model, prior, x, x_head, y, trials, block, best_score[group]
                )
            groups.append(scores)
        scores = np.concatenate(groups)
        i = np.argmax(scores, axis=1)  # argmax takes the first (lexicographic) max
        top = scores[rows, i]
        won = top > best_score
        best_score = np.where(won, top, best_score)
        best = np.where(won[:, None], block[i], best)
    return best


def decode_comp(reals: RealizationBlock, dims: ProblemDims) -> np.ndarray:
    """COMP baseline: items in any negative test are non-defective; the k
    highest positive-test membership counts win, lexicographic ties.  For
    the T trials of reals a (T x k) int array whose row t is trial t's
    sorted, 1-based estimate, as reals.support holds its truth.  x is the
    0/1 float design, so both counts are exact matmuls over the tests."""
    pos = (reals.y > 0.5).astype(float)[:, None, :]  # trials x 1 x n
    scores = (pos @ reals.x)[:, 0]
    scores[((1.0 - pos) @ reals.x)[:, 0] > 0.0] = -1.0
    # a stable sort on -score gives highest scores, ties to low index
    order = np.argsort(-scores, axis=1, kind="stable")[:, : dims.k]
    return np.sort(order, axis=1) + 1


# ---------------------------------------------------------------------------
# Phase sweeps
# ---------------------------------------------------------------------------


def _decode(decoder: DecoderSpec, reals, model, prior, dims) -> tuple[np.ndarray, np.ndarray]:
    """(estimates, unique) for the RealizationBlock reals of T trials: a
    (T x k) array of sorted, 1-based support estimates, as reals.support,
    and a (T,) bool mask of the unique ones.  The threshold decoder makes
    one call per trial, whose status the benchmark's tracer counts; a
    non-unique row is zero."""
    if decoder.kind == "threshold":
        outs = [
            decode_threshold(x, y, model, prior, dims, decoder.delta1)
            for x, y in zip(reals.x, reals.y)
        ]
        estimates = np.array([out.estimate or (0,) * dims.k for out in outs])
        return estimates, np.array([out.status == "unique" for out in outs])
    if decoder.kind == "exhaustive-ml":
        estimates = decode_ml(reals, model, prior, dims)
    else:
        estimates = decode_comp(reals, dims)
    return estimates, np.ones(len(estimates), dtype=bool)


def run_cell(
    model: ModelSpec,
    prior: SignalPrior,
    dims: ProblemDims,
    decoder: DecoderSpec,
    trials: int,
    seed: int,
    n_index: int = 0,
) -> SimReport:
    """One (n, trials) simulation cell with per-(n, trial) derived streams,
    decoded in trial blocks of at most _TRIAL_BLOCK_ENTRIES design entries.
    trials < 1, COMP without the all-ones prior and the threshold decoder
    without a discrete prior or with entries whose squares overflow raise
    ValueError, and a design of more than
    DESIGN_ENTRY_CAP entries GuardError, all before any sampling.  Errors
    are counted on `_decode`'s arrays: a unique estimate holds k distinct
    items, so with hits of them true it misses k - hits true items and adds
    as many."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if dims.n * dims.p > DESIGN_ENTRY_CAP:
        raise GuardError(
            f"an n x p design of {dims.n} x {dims.p} exceeds the {DESIGN_ENTRY_CAP} entry cap"
        )
    if decoder.kind == "comp-gt" and prior.variant != ALL_ONES:  # the group-testing prior
        raise ValueError("comp-gt requires the group-testing model")
    if decoder.kind == "threshold":
        if prior.variant == IID_GAUSSIAN:  # gamma by the discrete rule
            raise ValueError(
                "the threshold decoder needs a discrete prior, fixed or permuted "
                "entries b; the ml decoder takes the gaussian prior"
            )
        _threshold_test(model, prior, dims, decoder.delta1)  # the cell's cached test
    errors_exact = errors_partial = 0
    for block in _trial_blocks(dims, trials):
        reals = sample_realization(dims, model, prior, seed, stream=(n_index,), trials=block)
        est, unique = _decode(decoder, reals, model, prior, dims)
        hits = (est[:, :, None] == reals.support[:, None, :]).sum(axis=(1, 2))
        errors_exact += int(np.sum(~unique | (hits < dims.k)))
        errors_partial += int(np.sum(~unique | (dims.k - hits > dims.d_max)))
    pe = errors_exact / trials
    lo, hi = wilson_interval(errors_exact, trials)
    return SimReport(
        n=dims.n,
        trials=trials,
        errors_exact=errors_exact,
        errors_partial=errors_partial,
        pe_hat=pe,
        ci_lo=lo,
        ci_hi=hi,
        seed=seed,
    )


def phase_sweep(
    model: ModelSpec,
    prior: SignalPrior,
    dims: ProblemDims,
    n_grid: Sequence[int],
    decoder: DecoderSpec,
    trials: int,
    seed: int,
) -> list[SimReport]:
    """One SimReport per n in n_grid; streams derived from (seed, n_index,
    trial) so reports are independent and reproducible."""
    reports = []
    for i, n in enumerate(n_grid):
        cell_dims = ProblemDims(p=dims.p, k=dims.k, n=int(n), d_max=dims.d_max)
        reports.append(run_cell(model, prior, cell_dims, decoder, trials, seed, n_index=i))
    return reports
