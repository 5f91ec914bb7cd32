import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from support_limits import bounds, info, sim, verify
from support_limits import model as md
from support_limits import numerics as nm
from support_limits.channels import CHANNELS

LN2 = math.log(2.0)
SEED = 314159


def draw_one(dims, model, prior, seed, stream):
    """x, y and the support tuple of the trial stream (*prefix, t) names:
    trial t of the block sample_realization draws on stream prefix."""
    *prefix, t = stream
    block = md.sample_realization(dims, model, prior, seed, tuple(prefix), trials=range(t, t + 1))
    return block.x[0], block.y[0], tuple(block.support[0].tolist())


def gt_consistent_supports(x, y, dims):
    """Brute-force oracle: all k-sets explaining every noiseless test."""
    x = x.astype(bool)
    y = y > 0.5
    out = []
    for cand in sim.candidate_supports(dims):
        hits = x[:, np.asarray(cand) - 1].any(axis=1)
        if np.array_equal(hits, y):
            out.append(cand)
    return out


def threshold_map(dims, delta1, gamma=0.0):
    """The threshold decoder's {l: threshold} for l = 1..min(k, p - k): the
    achievability numerators."""
    ells = range(1, min(dims.k, dims.p - dims.k) + 1)
    return dict(zip(ells, bounds.achievability_numerators(dims, ells, delta1, gamma)))


def loop_statistic(model, prior, x_cand, y, partition):
    """Reference: the threshold statistic of one candidate, computed atom by
    atom as it was before candidates were stacked."""
    num_terms = []
    den_terms = []
    for lw, b in info.prior_atoms(prior, x_cand.shape[1]):
        num = info.log_conditional_likelihood(model, x_cand, b, y)
        num_terms.append(lw + num)
        if not np.isneginf(num):
            dens = info.density_rows(model, partition, b, x_cand, y)
            if np.all(np.isfinite(dens)):
                den_terms.append(lw + num - float(np.sum(dens)))
                continue
        marginal = CHANNELS[model.channel].log_marginal_rows(model, partition, x_cand, b, y)
        den_terms.append(lw + float(np.sum(marginal)))
    num_total = float(logsumexp(num_terms))
    if np.isneginf(num_total):
        return float("-inf")
    return num_total - float(logsumexp(den_terms))


def loop_threshold_decode(x, y, model, prior, dims, delta1):
    """Reference: the threshold decoder as a loop over candidates."""
    gamma = bounds.gamma_select("discrete", model, prior, dims)
    thresholds = threshold_map(dims, delta1, gamma)
    winners = [
        cand
        for cand in sim.candidate_supports(dims)
        if all(
            loop_statistic(model, prior, x[:, np.asarray(cand) - 1], y, part)
            > thresholds[part.ell]
            for part in md.enumerate_partitions(dims.k, thresholds)
        )
    ]
    if len(winners) == 1:
        return sim.DecodeOutcome(estimate=winners[0], status="unique")
    return sim.DecodeOutcome(estimate=None, status="none" if not winners else "multiple")


def loop_gt_scores(model, x, y, cands):
    """Reference: group-testing ML scores from one hit vector per candidate."""
    xb = x.astype(bool)
    hits = np.stack([xb[:, np.asarray(c) - 1].any(axis=1) for c in cands])
    n_miss = (hits != (y > 0.5)[None, :]).sum(axis=1)
    return CHANNELS[model.channel].score(model, y.size, n_miss)


STAT_CASES = {
    "gt-noiseless": (md.ModelSpec.group_testing(rho=0.0), md.SignalPrior.all_ones()),
    "gt-noisy": (md.ModelSpec.group_testing(rho=0.11), md.SignalPrior.all_ones()),
    "linear-fixed": (md.ModelSpec.linear(0.7), md.SignalPrior.fixed([1.0, -0.5, 2.0])),
    "linear-permuted": (md.ModelSpec.linear(0.7), md.SignalPrior.permuted([1.0, 1.0, 2.0])),
    "one-bit-fixed": (md.ModelSpec.one_bit(0.5), md.SignalPrior.fixed([1.0, -0.5, 2.0])),
    "one-bit-permuted": (md.ModelSpec.one_bit(0.5), md.SignalPrior.permuted([1.0, -0.5, 2.0])),
}


class TestBatchedCandidates:
    @pytest.mark.parametrize("n", [0, 1, 25])
    @pytest.mark.parametrize("name", sorted(STAT_CASES))
    def test_statistic_equals_candidate_loop(self, name, n):
        m, pr = STAT_CASES[name]
        dims = md.ProblemDims(p=7, k=3, n=n)
        x, y, _ = draw_one(dims, m, pr, SEED, (8, n))
        cands = np.array(list(sim.candidate_supports(dims)))
        x_cands = np.ascontiguousarray(np.moveaxis(x[:, cands - 1], 1, 0))
        for part in md.enumerate_partitions(dims.k):
            batched = sim._averaged_partition_density(m, pr, x_cands, y, part)
            expected = [loop_statistic(m, pr, xc, y, part) for xc in x_cands]
            assert batched.tolist() == expected
            one = sim._averaged_partition_density(m, pr, x_cands[0], y, part)
            assert type(one) is float and one == expected[0]

    def test_zero_likelihood_rows_equal_candidate_loop(self):
        # nu = k puts every item in every test, so log P(y = 0 | x_eq = 0) is
        # -inf: a y = 0 row missed by the candidate has a +inf density, a
        # y = 1 row missed has zero likelihood
        gt = md.ModelSpec.group_testing(rho=0.0, nu=2.0)
        rng = md.rng_stream(SEED)
        x = (rng.random((12, 6)) < 0.3).astype(float)
        y = x[:, :2].any(axis=1).astype(float)
        # at sigma = 1e-200 a sign the atom gets wrong has log Q = -inf: a
        # permuted prior then mixes zero-likelihood atoms, whose denominators
        # come from the marginal rows, with finite ones
        one_bit = md.ModelSpec.one_bit(1e-200)
        permuted = md.SignalPrior.permuted([1.0, -0.5, 2.0])
        dims = md.ProblemDims(p=6, k=3, n=12)
        x_1bit, y_1bit, _ = draw_one(dims, one_bit, permuted, SEED, (0,))
        for m, pr, k, x, y, kinds in (
            (gt, md.SignalPrior.all_ones(), 2, x, y, {math.inf, -math.inf}),
            (one_bit, permuted, 3, x_1bit, y_1bit, {"finite", -math.inf}),
        ):
            cands = np.array(list(sim.candidate_supports(md.ProblemDims(p=6, k=k, n=12))))
            x_cands = np.ascontiguousarray(np.moveaxis(x[:, cands - 1], 1, 0))
            seen = set()
            for part in md.enumerate_partitions(k):
                batched = sim._averaged_partition_density(m, pr, x_cands, y, part)
                expected = [loop_statistic(m, pr, xc, y, part) for xc in x_cands]
                assert batched.tolist() == expected
                seen.update(v if math.isinf(v) else "finite" for v in expected)
            assert seen == kinds

    @pytest.mark.parametrize("rho", [0.0, 0.11])
    def test_gt_ml_scores_equal_candidate_loop(self, rho):
        m = md.ModelSpec.group_testing(rho=rho)
        pr = md.SignalPrior.all_ones()
        for n in (0, 9, 30):
            dims = md.ProblemDims(p=9, k=3, n=n)
            cands = list(sim.candidate_supports(dims))
            incidence = sim._incidence(dims.p, np.array(cands))
            reals = md.sample_realization(dims, m, pr, SEED, stream=(n,), trials=range(10))
            expected = [loop_gt_scores(m, x, y, cands) for x, y in zip(reals.x, reals.y)]
            for x, y, scores in zip(reals.x, reals.y, expected):
                assert np.array_equal(sim._ml_fast_gt(m, x, y, incidence), scores)
            # a (trials x n x p) stack gives one row of scores per trial
            scores = sim._ml_fast_gt(m, reals.x, reals.y, incidence)
            assert np.array_equal(scores, np.stack(expected))

    @pytest.mark.parametrize("dtype", [float, int])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 52])
    def test_design_stack_equals_fancy_index(self, n, k, dtype):
        dims = md.ProblemDims(p=7, k=k, n=n)
        x = md.rng_stream(SEED).standard_normal((n, dims.p)) * 4
        x = x.astype(dtype)
        block = np.array(list(sim.candidate_supports(dims)))
        expected = np.ascontiguousarray(np.moveaxis(x[:, block - 1], 1, 0))
        stack = sim._design_stack(x, block)
        assert stack.dtype == expected.dtype and stack.flags.c_contiguous
        assert stack.shape == expected.shape and stack.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [0, 1, 52])
    def test_design_stack_of_trial_candidate_pairs(self, n):
        # T designs read as one n x Tp design: the pair (t, c) is the
        # column c + t p, gathered from a transposed view without a copy
        dims = md.ProblemDims(p=7, k=3, n=n)
        x = md.rng_stream(SEED).standard_normal((4, n, dims.p))
        cands = np.array(list(sim.candidate_supports(dims)))
        trial = md.rng_stream(SEED, 1).integers(0, 4, len(cands))
        expected = np.stack([x[t][:, c - 1] for t, c in zip(trial, cands)])
        xt = np.swapaxes(np.ascontiguousarray(np.swapaxes(x, 1, 2)), 1, 2)
        for designs in (x, xt):
            stack = sim._design_stack(designs, cands + (trial * dims.p)[:, None])
            assert stack.flags.c_contiguous and stack.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("p,k", [(7, 1), (7, 3), (12, 2)])
    def test_candidate_blocks_equal_candidate_lists(self, p, k, monkeypatch):
        monkeypatch.setattr(sim, "_CANDIDATE_BLOCK", 7)
        dims = md.ProblemDims(p=p, k=k)
        cands = sim.candidate_supports(dims)
        expected = []
        while block := list(itertools.islice(cands, 7)):
            expected.append(np.array(block))
        blocks = list(sim._candidate_blocks(dims))
        assert len(blocks) == len(expected) == math.ceil(math.comb(p, k) / 7)
        for got, want in zip(blocks, expected):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_decoders_across_block_boundaries(self, monkeypatch):
        # delta1 = 1, the largest the bound allows: its lowest thresholds
        # give every status within 30 trials
        cases = [
            (md.ModelSpec.group_testing(rho=rho), md.SignalPrior.all_ones(), 8, 2, n, 1.0)
            for rho in (0.0, 0.11)
            for n in (6, 14, 20)
        ]
        cases.append((*STAT_CASES["linear-permuted"], 7, 3, 15, 1.0))
        monkeypatch.setattr(sim, "_CANDIDATE_BLOCK", 7)
        statuses = set()
        for m, pr, p, k, n, d1 in cases:
            dims = md.ProblemDims(p=p, k=k, n=n)
            cands = list(sim.candidate_supports(dims))
            reals = md.sample_realization(dims, m, pr, SEED, stream=(9,), trials=range(30))
            for x, y in zip(reals.x, reals.y):
                out = sim.decode_threshold(x, y, m, pr, dims, delta1=d1)
                assert out == loop_threshold_decode(x, y, m, pr, dims, d1)
                statuses.add(out.status)
            if m.channel == md.GROUP_TESTING:
                expected = [
                    cands[int(np.argmax(loop_gt_scores(m, x, y, cands)))]
                    for x, y in zip(reals.x, reals.y)
                ]
                assert block_rows(sim.decode_ml(reals, m, pr, dims), k) == expected
        assert statuses == {"unique", "none", "multiple"}


def loop_ml_score(model, prior, x_cand, y):
    """Reference: the exhaustive-ML score of one candidate, atom by atom, as
    it was before candidates were stacked."""
    terms = [
        lw + info.log_conditional_likelihood(model, x_cand, b, y)
        for lw, b in info.prior_atoms(prior, x_cand.shape[1])
    ]
    return float(logsumexp(terms))


def loop_gaussian_score(model, prior, x_cand, y):
    """Reference: the iid-Gaussian evidence from the n x n covariance, as it
    was computed before the k x k form."""
    cov = model.sigma**2 * np.eye(y.size) + prior.sigma_beta_sq * (x_cand @ x_cand.T)
    _, logdet = np.linalg.slogdet(cov)
    sol = np.linalg.solve(cov, y)
    return float(-0.5 * (y @ sol) - 0.5 * logdet - 0.5 * y.size * math.log(2.0 * math.pi))


def loop_ml_decode(x, y, model, prior, dims, score=loop_ml_score):
    """Reference: exhaustive ML as a loop over candidates, first strict max."""
    cands = list(sim.candidate_supports(dims))
    best_score, best_cand = -math.inf, cands[0]
    for cand in cands:
        s = score(model, prior, x[:, np.asarray(cand) - 1], y)
        if s > best_score:
            best_score, best_cand = s, cand
    return best_cand


def mp_gaussian_evidence(model, prior, x_cand, y, dps=60):
    """Oracle: log N(y; 0, sigma^2 I + sigma_beta^2 X X^T) from the n x n
    covariance in dps-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        n = y.size
        if n == 0:
            return 0.0
        x = mpmath.matrix(x_cand.tolist())
        yv = mpmath.matrix(y.tolist())
        cov = mpmath.mpf(model.sigma) ** 2 * mpmath.eye(n) + mpmath.mpf(prior.sigma_beta_sq) * (
            x * x.T
        )
        quad = (yv.T * mpmath.lu_solve(cov, yv))[0]
        return float(-(quad + mpmath.log(mpmath.det(cov)) + n * mpmath.log(2 * mpmath.pi)) / 2)


ML_CASES = [name for name in sorted(STAT_CASES) if not name.startswith("gt")]


class TestBlockMl:
    @pytest.mark.parametrize("n", [0, 1, 25])
    @pytest.mark.parametrize("name", ML_CASES)
    def test_discrete_scores_and_decisions_equal_candidate_loop(self, name, n, monkeypatch):
        m, pr = STAT_CASES[name]
        dims = md.ProblemDims(p=7, k=3, n=n)
        monkeypatch.setattr(sim, "_CANDIDATE_BLOCK", 7)
        reals = md.sample_realization(dims, m, pr, SEED, stream=(10, n), trials=range(6))
        for x, y in zip(reals.x, reals.y):
            cands = np.array(list(sim.candidate_supports(dims)))
            x_cands = sim._design_stack(x, cands)
            scores = info.log_marginal_likelihood(m, pr, x_cands, y)
            assert scores.tolist() == [loop_ml_score(m, pr, xc, y) for xc in x_cands]
            one = info.log_marginal_likelihood(m, pr, x_cands[0], y)
            assert type(one) is float and one == scores[0]
        expected = [loop_ml_decode(x, y, m, pr, dims) for x, y in zip(reals.x, reals.y)]
        assert block_rows(sim.decode_ml(reals, m, pr, dims), dims.k) == expected

    @pytest.mark.parametrize("prior", [md.SignalPrior.fixed([1.0, -0.5, 2.0]),
                                       md.SignalPrior.permuted([1.0, -0.5, 2.0])])
    def test_zero_likelihood_atoms_equal_candidate_loop(self, prior, monkeypatch):
        # at sigma = 1e-200 every sign an atom gets wrong has log Q = -inf
        m = md.ModelSpec.one_bit(1e-200)
        dims = md.ProblemDims(p=6, k=3, n=12)
        monkeypatch.setattr(sim, "_CANDIDATE_BLOCK", 7)
        seen = set()
        reals = md.sample_realization(dims, m, prior, SEED, stream=(11,), trials=range(6))
        for x, y in zip(reals.x, reals.y):
            x_cands = sim._design_stack(x, np.array(list(sim.candidate_supports(dims))))
            scores = info.log_marginal_likelihood(m, prior, x_cands, y).tolist()
            assert scores == [loop_ml_score(m, prior, xc, y) for xc in x_cands]
            seen.update("finite" if math.isfinite(v) else v for v in scores)
        expected = [loop_ml_decode(x, y, m, prior, dims) for x, y in zip(reals.x, reals.y)]
        assert block_rows(sim.decode_ml(reals, m, prior, dims), dims.k) == expected
        assert seen == {"finite", -math.inf}

    def test_nan_scores_never_win(self):
        # entries at the float limit overflow x_s @ b to inf - inf = nan for
        # some candidates; the loop's strict > passes over them
        m = md.ModelSpec.linear(1.0)
        pr = md.SignalPrior.fixed([1e308, -1e308])
        dims = md.ProblemDims(p=6, k=2, n=4)
        cands = np.array(list(sim.candidate_supports(dims)))
        mixed = 0
        with np.errstate(all="ignore"):
            reals = md.sample_realization(dims, m, pr, SEED, stream=(14,), trials=range(20))
            for x, y in zip(reals.x, reals.y):
                x_cands = sim._design_stack(x, cands)
                nan = np.isnan(info.log_marginal_likelihood(m, pr, x_cands, y))
                mixed += nan.any() and not nan.all()
            expected = [loop_ml_decode(x, y, m, pr, dims) for x, y in zip(reals.x, reals.y)]
            assert block_rows(sim.decode_ml(reals, m, pr, dims), dims.k) == expected
        assert mixed > 0

    @pytest.mark.parametrize("sigma_beta_sq", [0.25, 1.0, 1e6])
    def test_gaussian_scores_match_high_precision_evidence(self, sigma_beta_sq):
        # new tolerance: the k x k evidence against a 60-digit n x n one
        m = md.ModelSpec.linear(0.7)
        pr = md.SignalPrior.iid_gaussian(sigma_beta_sq)
        for n in (0, 1, 12):
            dims = md.ProblemDims(p=6, k=2, n=n)
            x, y, _ = draw_one(dims, m, pr, SEED, (12, n))
            x_cands = sim._design_stack(x, np.array(list(sim.candidate_supports(dims))))
            scores = info.log_marginal_likelihood(m, pr, x_cands, y)
            for got, xc in zip(scores, x_cands):
                exact = mp_gaussian_evidence(m, pr, xc, y)
                assert abs(got - exact) <= 1e-9 * abs(exact)
            one = info.log_marginal_likelihood(m, pr, x_cands[0], y)
            assert type(one) is float and one == scores[0]

    @pytest.mark.parametrize("sigma_beta_sq", [0.25, 1.0])
    def test_gaussian_decisions_equal_covariance_loop(self, sigma_beta_sq, monkeypatch):
        m = md.ModelSpec.linear(0.7)
        pr = md.SignalPrior.iid_gaussian(sigma_beta_sq)
        monkeypatch.setattr(sim, "_CANDIDATE_BLOCK", 7)
        for n in (2, 8, 30):
            dims = md.ProblemDims(p=8, k=2, n=n)
            reals = md.sample_realization(dims, m, pr, SEED, stream=(13, n), trials=range(15))
            expected = [
                loop_ml_decode(x, y, m, pr, dims, score=loop_gaussian_score)
                for x, y in zip(reals.x, reals.y)
            ]
            assert block_rows(sim.decode_ml(reals, m, pr, dims), dims.k) == expected

    def test_gaussian_guard(self):
        x = md.rng_stream(SEED).standard_normal((2, 4, 2))
        y = np.ones(4)
        for sigma, sigma_beta_sq in ((1e-160, 1.0), (1.0, 1e20)):
            with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
                info.log_marginal_likelihood(
                    md.ModelSpec.linear(sigma), md.SignalPrior.iid_gaussian(sigma_beta_sq), x, y
                )
        # a sigma whose square underflows to 0 is refused before any evidence
        with pytest.raises(ValueError, match="sigma = 1e-300"):
            md.ModelSpec.linear(1e-300)


def ml_block(x, y, support):
    """A RealizationBlock of one trial with the given design and outputs
    (beta is not read by the decoders)."""
    return md.RealizationBlock(
        support=np.array([support]), beta=np.zeros((1, x.shape[1])), x=x[None], y=y[None]
    )


PREFIX_CHANNELS = {"linear": md.ModelSpec.linear, "one-bit": md.ModelSpec.one_bit}


class TestPrefixBoundMl:
    """Discrete-prior ML scores in full only the (trial, candidate) pairs
    whose bound from the first rows can still win, with the estimates of
    the full candidate loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        channel=st.sampled_from(sorted(PREFIX_CHANNELS)),
        permuted=st.booleans(),
        sigma=st.sampled_from([0.05, 0.3, 1.0, 3.0]),
        n=st.sampled_from([0, 1, 2, 3, 7, 25, 60]),
        k=st.integers(1, 3),
        extra=st.integers(0, 4),
        trials=st.integers(1, 6),
        candidate_block=st.sampled_from([1, 3, 7]),
        entries=st.sampled_from([1, 200, 2**16]),
        seed=st.integers(0, 2**32),
    )
    def test_equals_candidate_loop(
        self, channel, permuted, sigma, n, k, extra, trials, candidate_block, entries, seed
    ):
        # sigma below 1/sqrt(2 pi) gives the linear channel a positive row
        # maximum; small candidate blocks carry each trial's floor across
        # blocks, and a small entry bound splits the trials into groups
        m = PREFIX_CHANNELS[channel](sigma)
        b = [1.0, -0.5, 2.0][:k]
        pr = md.SignalPrior.permuted(b) if permuted else md.SignalPrior.fixed(b)
        dims = md.ProblemDims(p=k + extra, k=k, n=n)
        reals = md.sample_realization(dims, m, pr, seed, stream=(15,), trials=range(trials))
        expected = [loop_ml_decode(x, y, m, pr, dims) for x, y in zip(reals.x, reals.y)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_CANDIDATE_BLOCK", candidate_block)
            mp.setattr(sim, "_TRIAL_BLOCK_ENTRIES", entries)
            assert block_rows(sim.decode_ml(reals, m, pr, dims), k) == expected

    @pytest.mark.parametrize("candidate_block", [3, 512])
    def test_exact_tie_goes_to_the_first_candidate(self, candidate_block, monkeypatch):
        # columns 2 and 5 are equal, so (1, 2) and (1, 5) score the same; the
        # outputs come from (1, 5), and the first in lexicographic order wins,
        # within one candidate block and across two
        monkeypatch.setattr(sim, "_CANDIDATE_BLOCK", candidate_block)
        m, pr = md.ModelSpec.linear(0.3), md.SignalPrior.fixed([1.0, 2.0])
        dims = md.ProblemDims(p=6, k=2, n=40)
        rng = md.rng_stream(SEED, 16)
        x = rng.standard_normal((dims.n, dims.p))
        x[:, 4] = x[:, 1]
        y = x[:, [0, 4]] @ np.array(pr.b) + 0.3 * rng.standard_normal(dims.n)
        assert loop_ml_decode(x, y, m, pr, dims) == (1, 2)
        cands = np.array(list(sim.candidate_supports(dims)))
        scores = info.log_marginal_likelihood(m, pr, sim._design_stack(x, cands), y)
        assert scores[0] == scores[3] == scores.max()
        assert block_rows(sim.decode_ml(ml_block(x, y, [1, 5]), m, pr, dims), 2) == [(1, 2)]

    @pytest.mark.parametrize("name", ["linear", "one-bit"])
    def test_candidates_equal_on_the_head_rows(self, name):
        # columns 2 and 3 agree on the first rows, where the bound is read,
        # and differ after; the outputs come from (1, 3), whose bound ties
        # with that of (1, 2), the candidate scored first
        m, pr = PREFIX_CHANNELS[name](0.3), md.SignalPrior.fixed([1.0, 2.0])
        dims = md.ProblemDims(p=5, k=2, n=40)
        head = int(dims.n * sim._ML_HEAD_SHARE)
        rng = md.rng_stream(SEED, 17)
        x = rng.standard_normal((dims.n, dims.p))
        x[:head, 2] = x[:head, 1]
        noise = rng.standard_normal(dims.n)
        y = CHANNELS[m.channel].outputs(m, x[:, [0, 2]], np.array(pr.b), noise)
        cands = np.array(list(sim.candidate_supports(dims)))
        heads = info.log_marginal_likelihood(
            m, pr, sim._design_stack(x[:head], cands), y[:head]
        )
        assert heads[0] == heads[1] == heads.max()
        assert loop_ml_decode(x, y, m, pr, dims) == (1, 3)
        assert block_rows(sim.decode_ml(ml_block(x, y, [1, 3]), m, pr, dims), 2) == [(1, 3)]

    @pytest.mark.parametrize("name", ML_CASES)
    def test_full_scores_equal_per_trial_scores_bit_for_bit(self, name, monkeypatch):
        # every score the bounded pass computes is the per-trial score of the
        # whole candidate block; the others are -inf and below the winner
        m, pr = STAT_CASES[name]
        dims = md.ProblemDims(p=8, k=3, n=40)
        monkeypatch.setattr(sim, "_CANDIDATE_BLOCK", 20)
        reals = md.sample_realization(dims, m, pr, SEED, stream=(18,), trials=range(12))
        calls = []
        bounded = sim._ml_bounded_scores

        def recorded(model, prior, x, x_head, y, trials, block, floor):
            scores = bounded(model, prior, x, x_head, y, trials, block, floor)
            calls.append((trials, block, scores))
            return scores

        monkeypatch.setattr(sim, "_ml_bounded_scores", recorded)
        est = sim.decode_ml(reals, m, pr, dims)
        scored = pruned = 0
        for trials, block, scores in calls:
            for t, got in zip(trials, scores):
                want = info.log_marginal_likelihood(
                    m, pr, sim._design_stack(reals.x[t], block), reals.y[t]
                )
                want = np.where(np.isnan(want), -math.inf, want)
                full = got > -math.inf
                assert got[full].tolist() == want[full].tolist()
                best = info.log_marginal_likelihood(
                    m, pr, sim._design_stack(reals.x[t], est[t : t + 1]), reals.y[t]
                )
                assert (want[~full] < best).all()
                scored += int(full.sum())
                pruned += int((~full).sum())
        assert scored and pruned

    def test_bounded_pass_scores_at_most_half_the_pairs(self, monkeypatch):
        # the benchmark's 1-bit ML cell (p = 12, k = 3, n = 100, 30 trials):
        # a change that turns the pruning off fails here, with no timing
        m, pr = md.ModelSpec.one_bit(1.0), md.SignalPrior.fixed([1.0, 0.5, 2.0])
        dims = md.ProblemDims(p=12, k=3, n=100)
        reals = md.sample_realization(dims, m, pr, 1, stream=(0,), trials=range(30))
        full_pairs = []
        score = sim.log_marginal_likelihood

        def counted(model, prior, x_s, y):
            if x_s.shape[-2] == dims.n:
                full_pairs.append(len(x_s))
            return score(model, prior, x_s, y)

        monkeypatch.setattr(sim, "log_marginal_likelihood", counted)
        est = sim.decode_ml(reals, m, pr, dims)
        pairs = len(reals) * math.comb(dims.p, dims.k)
        assert 0 < sum(full_pairs) <= pairs // 2
        expected = [loop_ml_decode(x, y, m, pr, dims) for x, y in zip(reals.x, reals.y)]
        assert block_rows(est, dims.k) == expected


def block_rows(estimates, k):
    """A decoder's block return as a list of tuples, after checking that it
    is a (T x k) int array of sorted, 1-based rows."""
    assert estimates.dtype == int and estimates.shape == (len(estimates), k)
    assert (estimates[:, 0] >= 1).all() and (np.diff(estimates, axis=1) > 0).all()
    return list(map(tuple, estimates.tolist()))


def one_trial_blocks(reals):
    """Each trial of the RealizationBlock reals as a block of one."""
    arrays = (reals.support, reals.beta, reals.x, reals.y)
    return [md.RealizationBlock(*(a[t : t + 1] for a in arrays)) for t in range(len(reals))]


def loop_run_cell(model, prior, dims, decoder, trials, seed, n_index=0):
    """Reference: run_cell as one decode per trial, as it was before trial
    blocks: trial t is the one-trial block that draws stream (n_index, t)."""
    errors_exact = errors_partial = 0
    for t in range(trials):
        block = md.sample_realization(
            dims, model, prior, seed, stream=(n_index,), trials=range(t, t + 1)
        )
        if decoder.kind == "threshold":
            out = sim.decode_threshold(block.x[0], block.y[0], model, prior, dims, decoder.delta1)
        else:
            if decoder.kind == "exhaustive-ml":
                est = sim.decode_ml(block, model, prior, dims)
            else:
                est = sim.decode_comp(block, dims)
            out = sim.DecodeOutcome(estimate=block_rows(est, dims.k)[0], status="unique")
        true = tuple(block.support[0].tolist())
        if out.status != "unique" or out.estimate != true:
            errors_exact += 1
        if out.status != "unique":
            errors_partial += 1
        elif (len(set(true) - set(out.estimate)) > dims.d_max
              or len(set(out.estimate) - set(true)) > dims.d_max):
            errors_partial += 1
    lo, hi = sim.wilson_interval(errors_exact, trials)
    return sim.SimReport(dims.n, trials, errors_exact, errors_partial, errors_exact / trials,
                         lo, hi, seed)


GT = md.SignalPrior.all_ones()
BLOCK_CASES = {
    "comp-gt-noiseless": (md.ModelSpec.group_testing(rho=0.0), GT, "comp-gt"),
    "comp-gt-noisy": (md.ModelSpec.group_testing(rho=0.11), GT, "comp-gt"),
    "ml-gt-noiseless": (md.ModelSpec.group_testing(rho=0.0), GT, "exhaustive-ml"),
    "ml-gt-noisy": (md.ModelSpec.group_testing(rho=0.11), GT, "exhaustive-ml"),
    "ml-linear-fixed": (*STAT_CASES["linear-fixed"], "exhaustive-ml"),
    "ml-linear-permuted": (*STAT_CASES["linear-permuted"], "exhaustive-ml"),
    "ml-linear-gaussian": (md.ModelSpec.linear(0.7), md.SignalPrior.iid_gaussian(1.0),
                           "exhaustive-ml"),
    "ml-one-bit-fixed": (*STAT_CASES["one-bit-fixed"], "exhaustive-ml"),
}


class TestTrialBlocks:
    @pytest.mark.parametrize("n", [0, 1, 12])
    @pytest.mark.parametrize("name", sorted(BLOCK_CASES))
    def test_block_estimates_equal_single_decodes(self, name, n, monkeypatch):
        m, pr, kind = BLOCK_CASES[name]
        k = len(pr.b) or 2
        dims = md.ProblemDims(p=7, k=k, n=n, d_max=k - 1)
        # three trials to a block: 7 trials span blocks of 3, 3 and 1
        monkeypatch.setattr(sim, "_TRIAL_BLOCK_ENTRIES", 3 * max(1, n * dims.p))
        monkeypatch.setattr(sim, "_CANDIDATE_BLOCK", 7)
        decoder = sim.DecoderSpec(kind=kind)
        expected = loop_run_cell(m, pr, dims, decoder, 7, SEED, n_index=n)
        fn_name = "decode_comp" if kind == "comp-gt" else "decode_ml"
        decode, sizes = getattr(sim, fn_name), []

        def spy(reals, *args):
            estimates = decode(reals, *args)
            singles = [block_rows(decode(one, *args), dims.k)[0] for one in one_trial_blocks(reals)]
            assert block_rows(estimates, dims.k) == singles
            sizes.append(len(reals))
            return estimates

        monkeypatch.setattr(sim, fn_name, spy)
        rep = sim.run_cell(m, pr, dims, decoder, 7, SEED, n_index=n)
        assert sizes == [3, 3, 1]
        assert rep == expected

    @pytest.mark.parametrize("name", sorted(BLOCK_CASES))
    def test_run_cell_equals_trial_loop(self, name):
        m, pr, kind = BLOCK_CASES[name]
        dims = md.ProblemDims(p=8, k=len(pr.b) or 2, n=10, d_max=1)
        for trials in (1, 40):
            rep = sim.run_cell(m, pr, dims, sim.DecoderSpec(kind=kind), trials, SEED, n_index=3)
            assert rep == loop_run_cell(m, pr, dims, sim.DecoderSpec(kind=kind), trials, SEED, 3)

    def test_threshold_run_cell_equals_trial_loop(self, monkeypatch):
        m, pr = STAT_CASES["gt-noisy"]
        dims = md.ProblemDims(p=8, k=2, n=20, d_max=1)
        decoder = sim.DecoderSpec(kind="threshold", delta1=1.0)
        monkeypatch.setattr(sim, "_TRIAL_BLOCK_ENTRIES", 2 * dims.n * dims.p)
        rep = sim.run_cell(m, pr, dims, decoder, 9, SEED)
        assert rep == loop_run_cell(m, pr, dims, decoder, 9, SEED)

    def test_one_draw_per_trial_block(self, monkeypatch):
        draw, calls = sim.sample_realization, []

        def spy(dims, *args, **kwargs):
            calls.append((kwargs["stream"], kwargs["trials"]))
            return draw(dims, *args, **kwargs)

        monkeypatch.setattr(sim, "sample_realization", spy)
        dims = md.ProblemDims(p=7, k=2, n=4)
        monkeypatch.setattr(sim, "_TRIAL_BLOCK_ENTRIES", 3 * dims.n * dims.p)
        m = md.ModelSpec.group_testing(rho=0.11)
        sim.run_cell(m, GT, dims, sim.DecoderSpec(kind="comp-gt"), 7, SEED, n_index=5)
        sim.threshold_union_bound(m, GT, dims, trials=4, seed=SEED)
        assert calls == [((5,), range(0, 3)), ((5,), range(3, 6)), ((5,), range(6, 7)),
                         ((7,), range(0, 3)), ((7,), range(3, 4))]

    @pytest.mark.parametrize("p,n,sizes", [(16, 40, [102, 102, 46]), (300, 250, [1, 1])])
    def test_block_holds_at_most_the_entry_bound(self, p, n, sizes, monkeypatch):
        # 2^16 entries hold 102 trials of 40 x 16; a 250 x 300 trial is alone
        decode, seen = sim.decode_comp, []
        monkeypatch.setattr(
            sim, "decode_comp", lambda reals, dims: seen.append(len(reals)) or decode(reals, dims)
        )
        dims = md.ProblemDims(p=p, k=2, n=n)
        m = md.ModelSpec.group_testing()
        sim.run_cell(m, GT, dims, sim.DecoderSpec(kind="comp-gt"), sum(sizes), SEED)
        assert seen == sizes

    @pytest.mark.parametrize("d_max", [0, 1])
    def test_threshold_cell_equals_trial_loop(self, d_max, monkeypatch):
        # of these 40 trials, some end unique and right, some unique and
        # wrong, some with no candidate passing and some with several
        m, dims = md.ModelSpec.group_testing(rho=0.0), md.ProblemDims(p=6, k=2, n=10, d_max=d_max)
        decoder = sim.DecoderSpec(kind="threshold", delta1=1.0)
        decode, draw, outs, truths = sim.decode_threshold, sim.sample_realization, [], []

        def draw_spy(*args, **kwargs):
            reals = draw(*args, **kwargs)
            truths.extend(map(tuple, reals.support.tolist()))
            return reals

        monkeypatch.setattr(sim, "sample_realization", draw_spy)
        monkeypatch.setattr(
            sim, "decode_threshold", lambda *args: outs.append(decode(*args)) or outs[-1]
        )
        rep = sim.run_cell(m, GT, dims, decoder, 40, SEED)
        kinds = {
            out.status if out.status != "unique" else ("wrong", "right")[out.estimate == true]
            for out, true in zip(outs, truths, strict=True)
        }
        assert kinds == {"right", "wrong", "none", "multiple"}
        assert rep == loop_run_cell(m, GT, dims, decoder, 40, SEED)

    def test_only_the_threshold_decoder_builds_outcomes(self, monkeypatch):
        # ML and COMP cells count errors on arrays; the threshold decoder
        # keeps one call and one DecodeOutcome per trial, whose status the
        # benchmark's tracer reads
        outcome, decode, built, calls = sim.DecodeOutcome, sim.decode_threshold, [], []
        monkeypatch.setattr(
            sim, "DecodeOutcome", lambda *a, **kw: built.append(1) or outcome(*a, **kw)
        )
        monkeypatch.setattr(
            sim, "decode_threshold", lambda *args: calls.append(1) or decode(*args)
        )
        m, dims = md.ModelSpec.group_testing(rho=0.11), md.ProblemDims(p=8, k=2, n=10)
        monkeypatch.setattr(sim, "_TRIAL_BLOCK_ENTRIES", 4 * dims.n * dims.p)
        for kind in ("exhaustive-ml", "comp-gt"):
            sim.run_cell(m, GT, dims, sim.DecoderSpec(kind=kind), 9, SEED)
        assert built == calls == []
        sim.run_cell(m, GT, dims, sim.DecoderSpec(kind="threshold"), 9, SEED)
        assert len(built) == len(calls) == 9


def loop_gt_ml(model, reals, dims):
    """Reference: group-testing ML one trial at a time, as before trial
    groups: `_ml_fast_gt` on one design over every candidate, then argmax."""
    cands = np.array(list(sim.candidate_supports(dims)))
    incidence = sim._incidence(dims.p, cands)
    return [
        tuple(cands[int(np.argmax(sim._ml_fast_gt(model, x, y, incidence)))].tolist())
        for x, y in zip(reals.x, reals.y)
    ]


class TestGroupedGtMl:
    # p = 9: 36 candidates, groups of 5 trials (13 = 5 + 5 + 3); p = 40:
    # 780 candidates in blocks of 512 and 268, groups of 6 and 12 trials at
    # n = 20; n = 0 puts every trial in one group
    @pytest.mark.parametrize("rho", [0.0, 0.11])
    @pytest.mark.parametrize(
        "p,n,sizes",
        [(9, 0, [13]), (9, 12, [5, 5, 3]), (40, 20, [6, 6, 1, 12, 1]), (40, 0, [13, 13])],
    )
    def test_groups_equal_trial_loop(self, rho, p, n, sizes, monkeypatch):
        m = md.ModelSpec.group_testing(rho=rho)
        dims = md.ProblemDims(p=p, k=2, n=n)
        if p == 9:
            monkeypatch.setattr(sim, "_TRIAL_BLOCK_ENTRIES", 5 * max(1, n) * 36)
        reals = md.sample_realization(dims, m, GT, SEED, stream=(5,), trials=range(13))
        expected = loop_gt_ml(m, reals, dims)
        score, seen = sim._ml_fast_gt, []

        def spy(model, x, y, incidence):
            seen.append(len(x))
            entries = x.shape[0] * x.shape[1] * incidence.shape[1]
            assert entries <= sim._TRIAL_BLOCK_ENTRIES or len(x) == 1
            return score(model, x, y, incidence)

        monkeypatch.setattr(sim, "_ml_fast_gt", spy)
        assert block_rows(sim.decode_ml(reals, m, GT, dims), dims.k) == expected
        assert seen == sizes

    @pytest.mark.parametrize("rho", [0.0, 0.11])
    def test_run_cell_equals_trial_loop(self, rho):
        m = md.ModelSpec.group_testing(rho=rho)
        dims = md.ProblemDims(p=40, k=2, n=20, d_max=1)
        decoder = sim.DecoderSpec(kind="exhaustive-ml")
        rep = sim.run_cell(m, GT, dims, decoder, 13, SEED, n_index=2)
        assert rep == loop_run_cell(m, GT, dims, decoder, 13, SEED, 2)

    def test_no_realizations(self):
        m, dims = md.ModelSpec.group_testing(), md.ProblemDims(p=9, k=2, n=4)
        reals = md.sample_realization(dims, m, GT, SEED, stream=(5,), trials=range(0))
        for estimates in (sim.decode_ml(reals, m, GT, dims), sim.decode_comp(reals, dims)):
            assert estimates.shape == (0, 2) and estimates.dtype == int


class TestGuards:
    def test_candidate_cap(self):
        with pytest.raises(md.GuardError):
            list(sim.candidate_supports(md.ProblemDims(p=60, k=12, n=1)))

    def test_k_cap(self):
        with pytest.raises(md.GuardError):
            list(sim.candidate_supports(md.ProblemDims(p=14, k=13, n=1)))

    def test_candidate_cap_is_inclusive(self):
        # C(10^6, 1) is the cap itself, though its float log rounds above
        # log(10^6); nothing is decoded here (a GT block's incidence would
        # take gigabytes at this p)
        assert math.comb(10**6, 1) == sim.CANDIDATE_CAP
        sim.candidate_supports(md.ProblemDims(p=10**6, k=1, n=1))
        with pytest.raises(md.GuardError, match="candidate cap"):
            sim.candidate_supports(md.ProblemDims(p=10**6 + 1, k=1, n=1))

    def test_design_entry_cap_refuses_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a design over the cap")

        monkeypatch.setattr(sim, "sample_realization", no_sampling)
        m, decoder = md.ModelSpec.group_testing(), sim.DecoderSpec(kind="exhaustive-ml")
        for n, p in ((sim.DESIGN_ENTRY_CAP // 10 + 1, 10), (10**12, 10)):
            with pytest.raises(md.GuardError, match="entry cap"):
                sim.run_cell(m, GT, md.ProblemDims(p=p, k=2, n=n), decoder, 1, SEED)


class TestWilson:
    def test_basic_properties(self):
        lo, hi = sim.wilson_interval(5, 100)
        assert 0.0 <= lo < 0.05 < hi <= 1.0
        lo0, hi0 = sim.wilson_interval(0, 100)
        assert lo0 == 0.0 and hi0 < 0.05


class TestThresholdDecoder:
    def test_recovers_at_generous_n(self):
        # n = 10 k log2(p/k) for noiseless GT at p = 12, k = 2
        m = md.ModelSpec.group_testing(rho=0.0)
        pr = md.SignalPrior.all_ones()
        n = int(round(10 * 2 * math.log2(12 / 2)))
        dims = md.ProblemDims(p=12, k=2, n=n)
        hits = 0
        trials = 1000
        reals = md.sample_realization(dims, m, pr, SEED, stream=(0,), trials=range(trials))
        for x, y, support in zip(reals.x, reals.y, reals.support.tolist()):
            out = sim.decode_threshold(x, y, m, pr, dims)
            if out.status == "unique" and out.estimate == tuple(support):
                hits += 1
            # simulation oracle: the true support must always be consistent
            assert tuple(support) in gt_consistent_supports(x, y, dims)
        assert hits / trials >= 0.99

    def test_zero_measurements_returns_none(self):
        m = md.ModelSpec.group_testing(rho=0.0)
        pr = md.SignalPrior.all_ones()
        dims = md.ProblemDims(p=10, k=2, n=0)
        reals = md.sample_realization(dims, m, pr, SEED, trials=range(1))
        out = sim.decode_threshold(reals.x[0], reals.y[0], m, pr, dims)
        assert out.status == "none" and out.estimate is None

    def test_soundness_of_unique_winner(self):
        # whenever a unique set is returned it passes every partition test
        m = md.ModelSpec.group_testing(rho=0.0)
        pr = md.SignalPrior.all_ones()
        dims = md.ProblemDims(p=10, k=2, n=40)
        thresholds = threshold_map(dims, delta1=0.1)
        reals = md.sample_realization(dims, m, pr, SEED, stream=(1,), trials=range(50))
        for x, y in zip(reals.x, reals.y):
            out = sim.decode_threshold(x, y, m, pr, dims)
            if out.status != "unique":
                continue
            x_cand = x[:, np.asarray(out.estimate) - 1]
            for part in md.enumerate_partitions(2):
                stat = sim._averaged_partition_density(m, pr, x_cand, y, part)
                assert stat > thresholds[part.ell]

    def test_union_bound_dominates_empirical_pe(self):
        m = md.ModelSpec.group_testing(rho=0.0)
        pr = md.SignalPrior.all_ones()
        dims = md.ProblemDims(p=12, k=2, n=60)
        p1, se1, term2 = sim.threshold_union_bound(m, pr, dims, trials=300, seed=SEED)
        rep = sim.run_cell(m, pr, dims, sim.DecoderSpec(kind="threshold"), 300, SEED + 1)
        se = math.sqrt(rep.pe_hat * (1 - rep.pe_hat) / rep.trials + se1**2)
        assert rep.pe_hat <= p1 + term2 + 3 * max(se, 1.0 / rep.trials)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_union_bound_refuses_no_trials(self, trials):
        # 0 divided by zero, and -3 returned (-0.0, 0.0, 0.00375)
        m, dims = md.ModelSpec.group_testing(), md.ProblemDims(p=6, k=2, n=10)
        with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
            sim.threshold_union_bound(m, GT, dims, trials=trials, seed=SEED)

    def test_union_bound_linear_low_noise(self):
        # linear channel at small noise, n = p: empirical error rate stays
        # below the numeric two-term union bound
        m = md.ModelSpec.linear(0.3)
        pr = md.SignalPrior.fixed([1.5, -1.0])
        dims = md.ProblemDims(p=8, k=2, n=8)
        p1, se1, term2 = sim.threshold_union_bound(m, pr, dims, trials=250, seed=SEED)
        rep = sim.run_cell(m, pr, dims, sim.DecoderSpec(kind="threshold"), 250, SEED + 3)
        se = math.sqrt(rep.pe_hat * (1 - rep.pe_hat) / rep.trials + se1**2)
        assert rep.pe_hat <= p1 + term2 + 3 * max(se, 1.0 / rep.trials)


def loop_union_bound(model, prior, dims, delta1, trials, seed):
    """Reference: the union bound's true-support loop as it was before it
    shared the decoder's survivor loop, one unstacked candidate per trial."""
    gamma = bounds.gamma_select("discrete", model, prior, dims)
    thresholds = threshold_map(dims, delta1, gamma)
    partitions = list(md.enumerate_partitions(dims.k, thresholds))
    fails = 0
    for t in range(trials):
        real = md.sample_realization(dims, model, prior, seed, stream=(7,), trials=range(t, t + 1))
        x_true, y = real.x_support()[0], real.y[0]
        ok = True
        for part in partitions:
            stat = sim._averaged_partition_density(model, prior, x_true, y, part)
            if not stat > thresholds[part.ell]:
                ok = False
                break
        fails += 0 if ok else 1
    p1 = fails / trials
    se = math.sqrt(max(p1 * (1 - p1), 1.0 / trials) / trials)
    term2 = sum(
        math.exp(nm.log_binomial(dims.p - dims.k, ell) + nm.log_binomial(dims.k, ell) - t)
        for ell, t in thresholds.items()
    )
    return p1, se, term2


UNION_CASES = {
    "gt-noiseless": (md.ModelSpec.group_testing(rho=0.0), GT, md.ProblemDims(p=12, k=2, n=30)),
    "gt-noisy": (md.ModelSpec.group_testing(rho=0.11), GT, md.ProblemDims(p=12, k=2, n=60)),
    "linear-permuted": (md.ModelSpec.linear(0.7), md.SignalPrior.permuted([1.0, 1.0, 2.0]),
                        md.ProblemDims(p=7, k=3, n=30)),
    "one-bit-fixed": (md.ModelSpec.one_bit(0.5), md.SignalPrior.fixed([1.0, -0.5, 2.0]),
                      md.ProblemDims(p=7, k=3, n=150)),
}


@pytest.mark.parametrize("name", sorted(UNION_CASES))
def test_union_bound_equals_true_support_loop(name):
    m, pr, dims = UNION_CASES[name]
    got = sim.threshold_union_bound(m, pr, dims, trials=200, seed=SEED)
    assert got == loop_union_bound(m, pr, dims, 0.1, 200, SEED)
    assert 0.0 < got[0] < 1.0  # some trials fail, some pass


def test_threshold_test_built_once_per_cell():
    m, pr, dims = UNION_CASES["gt-noisy"]
    thresholds, partitions = first = sim._threshold_test(m, pr, dims, 0.1)
    assert sim._threshold_test(m, pr, dims, 0.1) is first
    assert sim._threshold_test(m, pr, dims, 0.2) is not first
    assert dict(thresholds) == threshold_map(dims, 0.1)
    assert partitions == tuple(md.enumerate_partitions(dims.k, thresholds))
    with pytest.raises(TypeError):  # shared by every decode of the cell: read-only
        thresholds[1] = 0.0


# (model, prior of k entries or None): b is the prior's entries, all ones for
# group testing; the permuted b repeats values, so gamma = k log m_beta
THRESHOLD_PRIORS = {
    "gt": lambda k: (md.ModelSpec.group_testing(), None),
    "linear-fixed": lambda k: (
        md.ModelSpec.linear(0.7), md.SignalPrior.fixed([0.5 * (-1) ** i * (i + 1) for i in range(k)])
    ),
    "linear-permuted": lambda k: (
        md.ModelSpec.linear(0.7), md.SignalPrior.permuted([1.0 + i % 3 for i in range(k)])
    ),
}


@pytest.mark.parametrize("name", sorted(THRESHOLD_PRIORS))
@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 12),
    p=st.integers(2, 10**6),
    delta1=st.floats(0.0, 1.0, exclude_min=True),
)
def test_decoder_thresholds_are_the_bound_numerators(name, k, p, delta1):
    # d_max = 0: the decoder tests each partition of size l against the
    # numerator the achievability bound divides by I_l, bit for bit
    assume(k < p)
    dims = md.ProblemDims(p=p, k=k, n=0)
    model, prior = THRESHOLD_PRIORS[name](k)
    if prior is None:
        prior, b = md.SignalPrior.all_ones(), None
    else:
        b = prior.b
    thresholds, _ = sim._threshold_test(model, prior, dims, delta1)
    opts = bounds.BoundOptions(delta1=delta1, gamma_rule="discrete")
    rows = bounds.achievability_threshold_generic(model, b, dims, opts, prior).breakdown
    assert list(thresholds) == [row[0] for row in rows]
    assert list(thresholds.values()) == [row[1] for row in rows]


class TestThresholdBelowTwiceK:
    # k < p < 2k: no wrong support lies at a distance ell > p - k
    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_decoder_equals_candidate_loop(self, p):
        m, pr = md.ModelSpec.group_testing(rho=0.11), GT
        dims = md.ProblemDims(p=p, k=3, n=12)
        assert list(threshold_map(dims, 1.0)) == list(range(1, p - 3 + 1))
        reals = md.sample_realization(dims, m, pr, SEED, stream=(4,), trials=range(8))
        for x, y in zip(reals.x, reals.y):
            out = sim.decode_threshold(x, y, m, pr, dims, delta1=1.0)
            assert out == loop_threshold_decode(x, y, m, pr, dims, 1.0)

    def test_union_bound_is_finite(self):
        m, pr = md.ModelSpec.group_testing(rho=0.0), GT
        p1, se, term2 = sim.threshold_union_bound(m, pr, md.ProblemDims(p=5, k=3, n=10), trials=50)
        assert all(math.isfinite(v) for v in (p1, se, term2)) and term2 > 0.0


class TestMlDecoder:
    def test_noiseless_linear_recovery(self):
        m = md.ModelSpec.linear(1e-9)
        pr = md.SignalPrior.fixed([1.0, -0.7])
        dims = md.ProblemDims(p=8, k=2, n=3)
        reals = md.sample_realization(dims, m, pr, SEED, stream=(2,), trials=range(25))
        assert np.array_equal(sim.decode_ml(reals, m, pr, dims), reals.support)
        # linear-algebra oracle: the true support has ~zero residual
        b_s = np.take_along_axis(reals.beta, reals.support - 1, axis=1)
        resid = reals.y - np.matmul(reals.x_support(), b_s[..., None])[..., 0]
        assert float(np.max(np.abs(resid))) < 1e-6

    def test_gt_matches_consistency_oracle(self):
        m = md.ModelSpec.group_testing(rho=0.0)
        pr = md.SignalPrior.all_ones()
        dims = md.ProblemDims(p=12, k=2, n=14)
        reals = md.sample_realization(dims, m, pr, SEED, stream=(3,), trials=range(200))
        estimates = block_rows(sim.decode_ml(reals, m, pr, dims), dims.k)
        for x, y, support, est in zip(reals.x, reals.y, reals.support.tolist(), estimates):
            consistent = gt_consistent_supports(x, y, dims)
            assert est in consistent
            # ML errs only when some other support also explains every test
            if est != tuple(support):
                assert len(consistent) > 1
            assert est == min(consistent)  # lexicographic tie-break

    def test_single_candidate(self):
        m = md.ModelSpec.group_testing(rho=0.11)
        pr = md.SignalPrior.all_ones()
        dims = md.ProblemDims(p=3, k=3, n=5)
        reals = md.sample_realization(dims, m, pr, SEED, trials=range(1))
        assert block_rows(sim.decode_ml(reals, m, pr, dims), dims.k) == [(1, 2, 3)]

    def test_exact_recovery_event_equivalence(self):
        # |S \ Shat| = |Shat \ S| whenever both have cardinality k
        m = md.ModelSpec.group_testing(rho=0.11)
        pr = md.SignalPrior.all_ones()
        dims = md.ProblemDims(p=10, k=3, n=10)
        reals = md.sample_realization(dims, m, pr, SEED, stream=(4,), trials=range(50))
        estimates = block_rows(sim.decode_ml(reals, m, pr, dims), dims.k)
        for support, row in zip(reals.support.tolist(), estimates):
            est, true = set(row), set(support)
            assert len(est) == dims.k
            assert len(true - est) == len(est - true)


class TestCompDecoder:
    def test_exact_when_others_excluded(self):
        # every non-defective item appears in a negative test
        x = np.array(
            [
                [1, 1, 0, 0, 0],
                [0, 0, 1, 1, 1],
                [1, 0, 0, 0, 0],
            ],
            dtype=float,
        )
        y = np.array([1.0, 0.0, 1.0])  # support {1, 2}: row 2 excludes 3, 4, 5
        reals = md.RealizationBlock(
            support=np.array([[1, 2]]), beta=np.zeros((1, 5)), x=x[None], y=y[None]
        )
        estimates = sim.decode_comp(reals, md.ProblemDims(p=5, k=2, n=3))
        assert block_rows(estimates, 2) == [(1, 2)]

    def test_degenerate_no_tests(self):
        reals = md.RealizationBlock(
            support=np.array([[3, 4]]), beta=np.zeros((1, 6)), x=np.zeros((1, 0, 6)),
            y=np.zeros((1, 0)),
        )
        estimates = sim.decode_comp(reals, md.ProblemDims(p=6, k=2, n=0))
        assert block_rows(estimates, 2) == [(1, 2)]

    @pytest.mark.parametrize("rho", [0.0, 0.11])
    def test_ties_break_to_lowest_index(self, rho):
        # p = 40 is past the length where numpy's default sort is stable
        m = md.ModelSpec.group_testing(rho=rho)
        for n in (0, 5, 30):
            dims = md.ProblemDims(p=40, k=3, n=n)
            reals = md.sample_realization(dims, m, GT, SEED, stream=(6, n), trials=range(20))
            expected = []
            for x, y in zip(reals.x, reals.y):
                x, y = x.astype(bool), y > 0.5
                score = [-1 if x[~y, i].any() else int(x[y, i].sum()) for i in range(dims.p)]
                ranked = sorted(range(dims.p), key=lambda i: (-score[i], i))
                expected.append(tuple(sorted(i + 1 for i in ranked[: dims.k])))
            assert block_rows(sim.decode_comp(reals, dims), dims.k) == expected
            singles = [sim.decode_comp(one, dims) for one in one_trial_blocks(reals)]
            assert [block_rows(est, dims.k)[0] for est in singles] == expected

    def test_ml_no_worse_than_comp(self):
        m = md.ModelSpec.group_testing(rho=0.0)
        pr = md.SignalPrior.all_ones()
        dims = md.ProblemDims(p=12, k=2, n=14)
        trials = 1000
        reals = md.sample_realization(dims, m, pr, SEED, stream=(5,), trials=range(trials))
        err_ml = (sim.decode_ml(reals, m, pr, dims) != reals.support).any(axis=1).sum()
        err_comp = (sim.decode_comp(reals, dims) != reals.support).any(axis=1).sum()
        se = math.sqrt(2 * 0.25 / trials)
        assert err_comp / trials >= err_ml / trials - 3 * se


class TestPhaseSweep:
    def test_partial_le_exact_and_determinism(self):
        m = md.ModelSpec.group_testing(rho=0.11)
        pr = md.SignalPrior.all_ones()
        dims = md.ProblemDims(p=10, k=3, n=0, d_max=1)
        reports = sim.phase_sweep(m, pr, dims, [4, 12], sim.DecoderSpec(kind="exhaustive-ml"), 100, SEED)
        for r in reports:
            assert r.errors_partial <= r.errors_exact
        again = sim.phase_sweep(m, pr, dims, [4, 12], sim.DecoderSpec(kind="exhaustive-ml"), 100, SEED)
        assert reports == again

    def test_chance_level_at_zero_measurements(self):
        m = md.ModelSpec.group_testing(rho=0.0)
        pr = md.SignalPrior.all_ones()
        dims = md.ProblemDims(p=16, k=2, n=0)
        rep = sim.run_cell(m, pr, dims, sim.DecoderSpec(kind="exhaustive-ml"), 300, SEED)
        assert rep.pe_hat >= 0.97  # chance level is 119/120

    @pytest.mark.parametrize("trials", [0, -2])
    def test_no_trials_refused_before_sampling(self, trials, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a realization")

        monkeypatch.setattr(sim, "sample_realization", no_sampling)
        m, decoder = md.ModelSpec.group_testing(rho=0.0), sim.DecoderSpec(kind="comp-gt")
        dims = md.ProblemDims(p=8, k=2, n=4)
        with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
            sim.run_cell(m, GT, dims, decoder, trials, SEED)
        with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
            sim.phase_sweep(m, GT, dims, [4, 6], decoder, trials, SEED)

    def test_comp_requires_gt(self):
        m = md.ModelSpec.linear(1.0)
        pr = md.SignalPrior.fixed([1.0, 1.0])
        dims = md.ProblemDims(p=6, k=2, n=4)
        with pytest.raises(ValueError, match="comp-gt requires the group-testing model"):
            sim.run_cell(m, pr, dims, sim.DecoderSpec(kind="comp-gt"), 10, SEED)

    @pytest.mark.parametrize("kind,m,pr,message", [
        ("bogus", md.ModelSpec.group_testing(), GT, "unknown decoder kind 'bogus'"),
        ("comp-gt", md.ModelSpec.linear(1.0), md.SignalPrior.fixed([1.0, 2.0]),
         "comp-gt requires the group-testing model"),
        ("threshold", md.ModelSpec.linear(1.0), md.SignalPrior.iid_gaussian(1.0),
         "the threshold decoder needs a discrete prior"),
        ("threshold", md.ModelSpec.linear(1.0), md.SignalPrior.fixed([1e200, 1.0]),
         "the threshold decoder needs entries whose squares sum below the float range"),
    ])
    def test_decoder_refused_before_sampling(self, kind, m, pr, message, monkeypatch):
        calls = []
        monkeypatch.setattr(sim, "sample_realization", lambda *a, **kw: calls.append(a))
        dims = md.ProblemDims(p=5, k=2, n=10)
        with pytest.raises(ValueError, match=message):
            sim.run_cell(m, pr, dims, sim.DecoderSpec(kind=kind), 10, SEED)
        assert calls == []

    def test_ml_refuses_a_pair_the_sampler_refuses(self):
        # the all-ones prior pairs only with group testing
        dims = md.ProblemDims(p=6, k=2, n=4)
        reals = md.sample_realization(dims, md.ModelSpec.group_testing(), GT, SEED, trials=range(1))
        with pytest.raises(ValueError, match="the all-ones prior pairs only with group testing"):
            sim.decode_ml(reals, md.ModelSpec.linear(1.0), GT, dims)


class TestEmpiricalG:
    def test_endpoints(self):
        table = verify.empirical_g_check(10**5, 1, SEED, alphas=(0.0, 1.0))
        (a0, emp0, g0), (a1, emp1, g1) = table
        assert emp0 == 0.0 and g0 == 0.0
        assert emp1 == pytest.approx(1.0, abs=0.02) and g1 == 1.0

    def test_glivenko_cantelli_deviation(self):
        for s in range(3):
            table = verify.empirical_g_check(10**6, 1, SEED + s)
            assert max(abs(emp - g) for _, emp, g in table) <= 0.01


# ---------------------------------------------------------------------------
# The threshold test with each atom's likelihood once per candidate block,
# against the per-partition code it replaced
# ---------------------------------------------------------------------------


def scipy_log_mixture(terms):
    """Reference: the atoms' log-sum-exp by scipy, as `info._log_mixture` was."""
    if len(terms) == 1:
        return terms[0]
    return logsumexp(np.stack(terms, axis=-1), axis=-1)


def per_partition_statistic(model, prior, x_cand, y, partition):
    """Reference: `_averaged_partition_density` as it was when `_passing`
    called it for every partition, likelihoods included."""
    num_terms = []
    den_terms = []
    for lw, b in info.prior_atoms(prior, x_cand.shape[-1]):
        num = lw + info.log_conditional_likelihood(model, x_cand, b, y)
        dens = info.density_rows(model, partition, b, x_cand, y)
        with np.errstate(invalid="ignore"):
            den = num - np.sum(dens, axis=-1)
        direct = np.isneginf(num) | ~np.isfinite(dens).all(axis=-1)
        if direct.any():
            marginal = CHANNELS[model.channel].log_marginal_rows(model, partition, x_cand, b, y)
            den = np.where(direct, lw + np.sum(marginal, axis=-1), den)
        num_terms.append(num)
        den_terms.append(den)
    num_total, den_total = scipy_log_mixture(num_terms), scipy_log_mixture(den_terms)
    # a zero-likelihood candidate is eliminated
    with np.errstate(invalid="ignore"):
        stat = np.where(np.isneginf(num_total), -np.inf, num_total - den_total)
    return float(stat) if stat.ndim == 0 else stat


def per_partition_passing(model, prior, x_cands, y, thresholds, partitions):
    """Reference: `_passing` as it was, on `per_partition_statistic`; also
    the index of the partition that eliminated each candidate (-1: none)."""
    live = np.arange(len(x_cands))
    out_at = np.full(len(x_cands), -1)
    for i, part in enumerate(partitions):
        stat = per_partition_statistic(model, prior, x_cands, y, part)
        passed = stat > thresholds[part.ell]
        out_at[live[~passed]] = i
        live, x_cands = live[passed], x_cands[passed]
        if y.ndim > 1:
            y = y[passed]
        if not live.size:
            break
    return live, out_at


def staged_thresholds(model, prior, x_cands, y, partitions):
    """Per-ell thresholds at a statistic value of the candidates still live:
    the lower 30% quantile of each one's smallest statistic over that ell's
    partitions, so that candidates drop out along the partition sequence,
    one of them exactly at its threshold."""
    thresholds, live = {}, np.ones(len(x_cands), dtype=bool)
    for ell in sorted({part.ell for part in partitions}):
        y_live = y[live] if y.ndim > 1 else y
        low = np.min([
            per_partition_statistic(model, prior, x_cands[live], y_live, part)
            for part in partitions if part.ell == ell
        ], axis=0)
        thresholds[ell] = float(np.quantile(low, 0.3, method="lower"))
        live[np.flatnonzero(live)[low <= thresholds[ell]]] = False
        if not live.any():
            break
    return thresholds


def _elimination_stages(out_at, n_parts):
    """Which of the first, a middle and the last partition eliminated some
    candidate."""
    return {
        "first" if i == 0 else "last" if i == n_parts - 1 else "middle"
        for i in out_at.tolist() if i >= 0
    }


class TestPassingOncePerBlock:
    DIMS = md.ProblemDims(p=7, k=3, n=25)

    def _check(self, m, pr, x_cands, y):
        """`_passing` equals the per-partition reference; returns the
        stages at which the reference eliminated candidates."""
        partitions = tuple(md.enumerate_partitions(3))
        for part in partitions:
            got = sim._averaged_partition_density(m, pr, x_cands, y, part)
            assert got.tolist() == per_partition_statistic(m, pr, x_cands, y, part).tolist()
        thresholds = staged_thresholds(m, pr, x_cands, y, partitions)
        partitions = tuple(md.enumerate_partitions(3, thresholds))
        expected, out_at = per_partition_passing(m, pr, x_cands, y, thresholds, partitions)
        got = sim._passing(m, pr, x_cands, y, thresholds, partitions)
        assert got.tolist() == expected.tolist()
        return _elimination_stages(out_at, len(partitions))

    def test_shared_outputs_equal_per_partition_code(self):
        cands = np.array(list(sim.candidate_supports(self.DIMS)))
        stages = set()
        for m, pr in STAT_CASES.values():
            reals = md.sample_realization(self.DIMS, m, pr, SEED, stream=(11,), trials=range(3))
            for x, y in zip(reals.x, reals.y):
                x_cands = np.ascontiguousarray(np.moveaxis(x[:, cands - 1], 1, 0))
                stages |= self._check(m, pr, x_cands, y)
        assert stages == {"first", "middle", "last"}

    def test_per_candidate_outputs_equal_per_partition_code(self):
        # the shape threshold_union_bound decodes: each trial's true support
        # against that trial's own outputs
        stages = set()
        for m, pr in STAT_CASES.values():
            reals = md.sample_realization(self.DIMS, m, pr, SEED, stream=(12,), trials=range(40))
            assert reals.y.ndim == 2
            stages |= self._check(m, pr, reals.x_support(), reals.y)
        assert stages == {"first", "middle", "last"}

    def test_zero_likelihood_candidates_equal_per_partition_code(self):
        # nu = k: y = 0 rows a candidate misses have a +inf density, y = 1
        # rows it misses zero likelihood, so the direct path runs
        m, pr = md.ModelSpec.group_testing(rho=0.0, nu=3.0), GT
        rng = md.rng_stream(SEED, 13)
        x = (rng.random((12, 7)) < 0.25).astype(float)
        y = x[:, :3].any(axis=1).astype(float)
        cands = np.array(list(sim.candidate_supports(self.DIMS)))
        x_cands = np.ascontiguousarray(np.moveaxis(x[:, cands - 1], 1, 0))
        nums = info.log_conditional_likelihood(m, x_cands, np.ones(3), y)
        part = next(md.enumerate_partitions(3))
        dens = info.density_rows(m, part, np.ones(3), x_cands, y)
        assert np.isneginf(nums).any() and np.isposinf(dens[np.isfinite(nums)]).any()
        self._check(m, pr, x_cands, y)
        # at sigma = 1e-200 the permuted prior mixes zero-likelihood atoms,
        # whose denominators come from the marginal rows, with finite ones
        m, pr = md.ModelSpec.one_bit(1e-200), STAT_CASES["one-bit-permuted"][1]
        x, y, _ = draw_one(self.DIMS, m, pr, SEED, (13,))
        x_cands = np.ascontiguousarray(np.moveaxis(x[:, cands - 1], 1, 0))
        self._check(m, pr, x_cands, y)

    # the decode-gt benchmark's threshold cell: noiseless group testing with
    # p = 12, k = 2, n = 52, where few candidates agree with every test
    GT_DIMS = md.ProblemDims(p=12, k=2, n=52)

    def _spied_passing(self, m, x_cands, y, monkeypatch):
        """(`_passing` on x_cands, the x_s stacks `density_rows` saw), after
        checking the indices against `per_partition_passing`."""
        thresholds, partitions = sim._threshold_test(m, GT, self.GT_DIMS, 0.1)
        expected, _ = per_partition_passing(m, GT, x_cands, y, thresholds, partitions)
        seen, density = [], sim.density_rows
        def spy(model, partition, b, x_s, y, lik_rows=None):
            seen.append(x_s)
            return density(model, partition, b, x_s, y, lik_rows)

        monkeypatch.setattr(sim, "density_rows", spy)
        got = sim._passing(m, GT, x_cands, y, thresholds, partitions)
        assert got.tolist() == expected.tolist()
        return got, seen

    def test_zero_likelihood_candidates_leave_before_the_first_partition(self, monkeypatch):
        m = md.ModelSpec.group_testing(rho=0.0)
        x, y, support = draw_one(self.GT_DIMS, m, GT, SEED, (15,))
        (block,) = sim._candidate_blocks(self.GT_DIMS)
        x_cands = sim._design_stack(x, block)
        nums = info.log_conditional_likelihood(m, x_cands, np.ones(2), y)
        assert 1 <= np.isfinite(nums).sum() < len(x_cands)
        got, seen = self._spied_passing(m, x_cands, y, monkeypatch)
        assert block[got].tolist() == [list(support)]
        assert seen
        for x_s in seen:
            assert np.isfinite(info.log_conditional_likelihood(m, x_s, np.ones(2), y)).all()

    def test_no_density_rows_when_every_candidate_has_zero_likelihood(self, monkeypatch):
        # a positive test that no item is in contradicts every candidate
        m = md.ModelSpec.group_testing(rho=0.0)
        x, y, _ = draw_one(self.GT_DIMS, m, GT, SEED, (16,))
        x[0], y[0] = 0.0, 1.0
        (block,) = sim._candidate_blocks(self.GT_DIMS)
        x_cands = sim._design_stack(x, block)
        assert np.isneginf(info.log_conditional_likelihood(m, x_cands, np.ones(2), y)).all()
        got, seen = self._spied_passing(m, x_cands, y, monkeypatch)
        assert got.size == 0 and seen == []
        # p = k leaves no partition to fail: every candidate passes, as before
        assert sim._passing(m, GT, x_cands, y, {}, ()).tolist() == list(range(len(x_cands)))

    @pytest.mark.parametrize("name", sorted(STAT_CASES))
    def test_each_atom_likelihood_evaluated_once_per_block(self, name, monkeypatch):
        m, pr = STAT_CASES[name]
        channel = type(CHANNELS[m.channel])
        atoms = info.prior_atoms(pr, 3)
        calls = {"loglik_rows_and_sum": [], "density_rows": 0}
        pair = channel.loglik_rows_and_sum
        density = sim.density_rows

        def counted_pair(self, spec, x_s, b, y):
            calls["loglik_rows_and_sum"].append(b)
            return pair(self, spec, x_s, b, y)

        def counted_density(model, partition, b, x_s, y, lik_rows=None):
            assert lik_rows is not None, "density rows without the likelihood rows"
            calls["density_rows"] += 1
            return density(model, partition, b, x_s, y, lik_rows)

        monkeypatch.setattr(channel, "loglik_rows_and_sum", counted_pair)
        monkeypatch.setattr(sim, "density_rows", counted_density)
        x, y, _ = draw_one(self.DIMS, m, pr, SEED, (14,))
        cands = np.array(list(sim.candidate_supports(self.DIMS)))
        x_cands = np.ascontiguousarray(np.moveaxis(x[:, cands - 1], 1, 0))
        partitions = tuple(md.enumerate_partitions(3))
        # every threshold -inf: the true support passes every partition
        thresholds = dict.fromkeys((1, 2, 3), -np.inf)
        live = sim._passing(m, pr, x_cands, y, thresholds, partitions)
        assert live.size >= 1
        assert [id(b) for b in calls["loglik_rows_and_sum"]] == [id(b) for _, b in atoms]
        assert calls["density_rows"] == len(atoms) * len(partitions)

    def test_prior_atoms_built_once_and_read_only(self, monkeypatch):
        m, pr = md.ModelSpec.linear(0.7), md.SignalPrior.permuted([1.0, 1.0, 2.0])
        atoms = info.prior_atoms(pr, 3)
        assert info.prior_atoms(pr, 3) is atoms and len(atoms) == 3
        with pytest.raises(ValueError):
            atoms[0][1][0] = 5.0
        # exhaustive ML reads the cached atoms: no enumeration per call
        monkeypatch.setattr(info, "_distinct_permutations", None)
        x, y = np.ones((4, 3)), np.arange(4.0)
        first = info.log_marginal_likelihood(m, pr, x, y)
        assert info.log_marginal_likelihood(m, pr, x, y) == first


def test_threshold_statistic_mpmath_check():
    (result,) = verify.run_checks("threshold-stat-vs-mpmath")
    assert result.passed and result.tolerance == 1e-9, result.detail


# ---------------------------------------------------------------------------
# An estimate has the format of the truth it is scored against, a sorted
# tuple or a (T x k) array: no module of the package names frozenset
# ---------------------------------------------------------------------------

PACKAGE = Path(sim.__file__).parent


def _frozenset_names(tree) -> list[int]:
    """Lines that name frozenset, as a name or an attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "frozenset")
        or (isinstance(node, ast.Attribute) and node.attr == "frozenset")
    ]


@pytest.mark.parametrize("name", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_no_module_names_frozenset(name):
    assert not _frozenset_names(ast.parse((PACKAGE / f"{name}.py").read_text()))


def test_the_frozenset_check_sees_each_use():
    tree = ast.parse(
        "estimate = frozenset(block[i].tolist())\n"
        "def decode(real) -> frozenset[int]:\n    pass\n"
        "same = isinstance(est, builtins.frozenset)\n"
        "text = 'a frozenset'\n"
    )
    assert _frozenset_names(tree) == [1, 2, 4]
