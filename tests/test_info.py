import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from support_limits import info, verify
from support_limits import model as md
from support_limits.numerics import LOG2, binary_entropy, mean_entropy_q_scaled

LN2 = math.log(2.0)


def density_one_row(model, part, b, x_row, y):
    return info.density_rows(model, part, b, [x_row], [y])[0]


def gt_mi_exhaustive(nu, k, ell, rho):
    """First-principles enumeration over X in {0,1}^k and Y."""
    p1 = nu / k
    out = 0.0
    for bits in range(2**k):
        x = [(bits >> i) & 1 for i in range(k)]
        px = math.prod(p1 if xi else 1 - p1 for xi in x)
        clean = 1 if any(x) else 0
        eq_any = any(x[ell:])
        xi_l = (1 - p1) ** ell
        for y in (0, 1):
            p_num = (1 - rho) if y == clean else rho
            if p_num == 0.0:
                continue
            if eq_any:
                p_den = (1 - rho) if y == 1 else rho
            else:
                p_den = xi_l * ((1 - rho) if y == 0 else rho) + (1 - xi_l) * (
                    (1 - rho) if y == 1 else rho
                )
            out += px * p_num * math.log(p_num / p_den)
    return out


class TestInfoDensity:
    def test_gt_tested_eq_item_gives_zero(self):
        m = md.ModelSpec.group_testing(rho=0.0)
        part = md.Partition(s_dif=(1,), s_eq=(2, 3))
        # x_eq contains a one -> density identically zero for the consistent y
        assert density_one_row(m, part, None, [0, 1, 0], 1.0) == 0.0
        m_noisy = md.ModelSpec.group_testing(rho=0.2)
        assert density_one_row(m_noisy, part, None, [1, 1, 0], 0.0) == 0.0

    def test_gt_zero_probability_is_neg_inf_sentinel(self):
        m = md.ModelSpec.group_testing(rho=0.0)
        part = md.Partition(s_dif=(1,), s_eq=(2, 3))
        val = density_one_row(m, part, None, [0, 1, 0], 0.0)  # defective tested, y = 0
        assert val == info.NEG_INF and not math.isnan(val)

    def test_linear_zero_dif_energy(self):
        m = md.ModelSpec.linear(1.0)
        part = md.Partition(s_dif=(1,), s_eq=(2,))
        b = [0.0, 3.0]
        for y in (-1.0, 0.3, 2.0):
            assert density_one_row(m, part, b, [0.7, -0.2], y) == 0.0

    def test_one_bit_mean_matches_quadrature(self):
        m = md.ModelSpec.one_bit(1.0)
        b = [1.0, 1.0]
        part = md.min_info_partition(b, 1)
        mean, _, se = verify._variance_mc(m, part, b, trials=10**5, seed=21)
        quad = info.mutual_information(m, part, b)
        assert abs(mean - quad) <= 3 * se


class TestMutualInformation:
    def test_linear_half_log_two(self):
        m = md.ModelSpec.linear(1.0)
        b = [1.0, 1.0]
        part = md.Partition(s_dif=(1,), s_eq=(2,))
        assert info.mutual_information(m, part, b) == pytest.approx(0.5 * LN2, abs=1e-15)

    def test_gt_noiseless_k2_vs_enumeration(self):
        closed = info.gt_mi_closed_form(LN2, 2, 2, 0.0)
        oracle = gt_mi_exhaustive(LN2, 2, 2, 0.0)
        assert closed == pytest.approx(oracle, abs=1e-12)
        assert closed == pytest.approx(0.6824, abs=1e-4)

    def test_gt_pure_noise_channel_is_zero(self):
        # crossover 1/2 makes the output independent of the input
        assert info.gt_mi_closed_form(LN2, 5, 3, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_gt_closed_form_vs_enumeration_small_grid(self):
        for k in (1, 3, 6):
            for ell in range(1, k + 1):
                for nu in (0.3, LN2):
                    for rho in (0.0, 0.11, 0.25):
                        closed = info.gt_mi_closed_form(nu, k, ell, rho)
                        assert closed == pytest.approx(
                            gt_mi_exhaustive(nu, k, ell, rho), abs=1e-12
                        )

    def test_linear_strictly_increasing_in_dif_energy(self):
        m = md.ModelSpec.linear(1.0)
        prev = -1.0
        for scale in np.linspace(0.1, 3.0, 15):
            b = [scale, 5.0]
            mi = info.mutual_information(m, md.Partition(s_dif=(1,), s_eq=(2,)), b)
            assert mi > prev
            prev = mi

    def test_one_bit_bounded_by_log2_and_linear(self):
        rng = md.rng_stream(77)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            b = rng.normal(0, 1.5, k)
            part = md.min_info_partition(b, int(rng.integers(1, k + 1)))
            one = info.mutual_information(md.ModelSpec.one_bit(1.0), part, b)
            lin = info.mutual_information(md.ModelSpec.linear(1.0), part, b)
            assert one <= LOG2 + 1e-12
            assert one <= lin + 1e-9

    def test_min_partition_attains_min_over_partitions(self):
        rng = md.rng_stream(78)
        for model in (md.ModelSpec.linear(1.0), md.ModelSpec.one_bit(1.0)):
            b = rng.normal(0, 1, 6)
            for ell in (1, 3, 5):
                mine = info.mutual_information(model, md.min_info_partition(b, ell), b)
                brute = min(
                    info.mutual_information(model, p, b)
                    for p in md.enumerate_partitions(6, [ell])
                )
                assert mine <= brute + 1e-9


    def test_one_bit_non_finite_quadrature_raises(self, monkeypatch):
        from support_limits import channels
        from support_limits.numerics import NonConvergenceError

        monkeypatch.setattr(channels, "mean_entropy_q_scaled", lambda a: np.full(np.shape(a), np.nan))
        b = [1.0, -0.5, 2.0]
        with pytest.raises(NonConvergenceError):
            info.mutual_information(md.ModelSpec.one_bit(1.0), md.min_info_partition(b, 1), b)


def _scalar_mi(model, part, b):
    """I for one partition by the per-partition formulas, each evaluated on
    scalars: the oracle the sequence form must match bit for bit."""
    if model.channel == "group-testing":
        x = 1.0 - model.nu / part.k
        xi, q0 = x**part.ell, x ** (part.k - part.ell)
        star = xi * model.rho + (1.0 - xi) * (1.0 - model.rho)
        return q0 * (binary_entropy(star) - binary_entropy(model.rho))
    b = np.asarray(b, dtype=float)
    dif = float(np.sum(b[part.dif_index()] ** 2))
    if model.channel == "linear":
        return 0.5 * math.log1p(dif / model.sigma**2)
    if dif == 0.0:
        return 0.0
    eq = float(np.sum(b[part.eq_index()] ** 2))
    a_eq = math.sqrt(eq / (model.sigma**2 + dif))
    a_s = math.sqrt(dif + eq) / model.sigma
    return max(0.0, mean_entropy_q_scaled(a_eq) - mean_entropy_q_scaled(a_s))


def _split(k, dif):
    return md.Partition(s_dif=tuple(sorted(dif)), s_eq=tuple(i for i in range(1, k + 1) if i not in dif))


class TestMutualInformationSequence:
    """mutual_information over a sequence of partitions is a list whose
    elements equal one call per partition, and the per-partition formulas on
    scalars, bit for bit."""

    @staticmethod
    def _check(model, parts, b):
        got = info.mutual_information(model, parts, b)
        assert type(got) is list
        assert got == [info.mutual_information(model, part, b) for part in parts]
        assert got == [_scalar_mi(model, part, b) for part in parts]
        for part in parts[:3]:  # a sequence of one is the scalar call
            assert info.mutual_information(model, [part], b) == [info.mutual_information(model, part, b)]

    @settings(max_examples=80, deadline=None)
    @given(
        # zeros give partitions of zero energy; the repeated magnitudes give ties in |b|
        b=st.lists(
            st.one_of(st.just(0.0), st.sampled_from([0.5, -0.5, 2.0, -2.0]), st.floats(-3.0, 3.0)),
            min_size=1, max_size=7,
        ),
        sigma=st.floats(0.05, 5.0),
        data=st.data(),
    )
    @example(b=[0.0, 0.0, 1.0], sigma=1.0, data=None)
    @example(b=[1.0, -1.0, 1.0, 0.5, -0.5], sigma=0.3, data=None)
    def test_linear_and_one_bit(self, b, sigma, data):
        k = len(b)
        parts = md.min_info_partitions(b)  # a lazy sequence
        if data is not None:  # and some partitions of no particular order
            difs = data.draw(st.lists(st.sets(st.integers(1, k), min_size=1), max_size=6))
            parts = list(parts) + [_split(k, dif) for dif in difs]
        for model in (md.ModelSpec.linear(sigma), md.ModelSpec.one_bit(sigma)):
            self._check(model, parts, b)

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 1020),
        rho=st.sampled_from([0.0, 0.11]),
        nu=st.sampled_from([LN2, 0.3, 0.95]),
        data=st.data(),
    )
    @example(k=1020, rho=0.0, nu=LN2, data=None)
    @example(k=1020, rho=0.11, nu=LN2, data=None)
    def test_group_testing(self, k, rho, nu, data):
        if data is None:
            ells = range(1, k + 1)
        else:
            ells = data.draw(st.lists(st.integers(1, k), min_size=1, max_size=30))
        parts = [md.min_info_partition(np.ones(k), ell) for ell in ells]
        model = md.ModelSpec.group_testing(rho=rho, nu=nu)
        self._check(model, parts, None)
        mi = info.gt_mi_closed_form(nu, k, tuple(ells), rho)
        assert mi == [info.gt_mi_closed_form(nu, k, ell, rho) for ell in ells]
        assert info.gt_mi_closed_form(nu, k, range(1, k + 1), rho) == info.mutual_information(
            model, md.min_info_partitions(np.ones(k))
        )

    def test_empty_sequence(self):
        for model in (md.ModelSpec.linear(1.0), md.ModelSpec.one_bit(1.0),
                      md.ModelSpec.group_testing(rho=0.11)):
            assert info.mutual_information(model, [], [1.0, 2.0]) == []

    def test_group_testing_refuses_mixed_k(self):
        parts = [md.min_info_partition(np.ones(3), 1), md.min_info_partition(np.ones(4), 1)]
        with pytest.raises(ValueError, match="one k"):
            info.mutual_information(md.ModelSpec.group_testing(), parts)

    def test_one_bit_non_finite_entropy_raises_in_a_sequence(self, monkeypatch):
        from support_limits import channels
        from support_limits.numerics import NonConvergenceError

        # the second partition's a_s is the first non-finite entropy
        monkeypatch.setattr(
            channels, "mean_entropy_q_scaled",
            lambda a: np.where(np.arange(np.size(a)) == 3, np.inf, 0.5),
        )
        b = [1.0, -0.5, 2.0]
        with pytest.raises(NonConvergenceError, match="mi=-inf"):
            info.mutual_information(md.ModelSpec.one_bit(1.0), md.min_info_partitions(b), b)


class TestGaussianLogitSlope:
    def test_constant(self):
        assert info.gaussian_logit_slope_constant() == pytest.approx(1.8064, abs=1e-3)


class TestVarianceBound1Bit:
    def test_zero_dif_energy(self):
        part = md.Partition(s_dif=(1,), s_eq=(2,))
        assert verify._variance_bound_1bit([0.0, 2.0], 1.0, part) == 0.0

    def test_monotone_in_dif_energy(self):
        part = md.Partition(s_dif=(1,), s_eq=(2,))
        vals = [verify._variance_bound_1bit([t, 1.0], 1.0, part) for t in np.linspace(0, 3, 20)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_dominates_mc_variance_with_c0_16(self):
        for sigma in (0.5, 1.0, 2.0):
            for scale in (0.3, 1.0, 2.0):
                b = scale * np.array([1.0, -0.7, 0.4])
                part = md.min_info_partition(b, 2)
                var = verify._variance_mc(md.ModelSpec.one_bit(sigma), part, b, 10**5, seed=5)[1]
                assert var <= verify._variance_bound_1bit(b, sigma, part)


class TestVarianceMc:
    def test_linear_mean_within_3se(self):
        m = md.ModelSpec.linear(1.0)
        b = [0.8, -0.5, 1.2]
        part = md.min_info_partition(b, 2)
        mean, var, se = verify._variance_mc(m, part, b, trials=2 * 10**5, seed=9)
        assert abs(mean - info.mutual_information(m, part, b)) <= 3 * se
        assert var == pytest.approx(info.density_variance(m, part, b), rel=0.05)

    def test_one_bit_variance_quadrature_vs_mc(self):
        m = md.ModelSpec.one_bit(1.0)
        b = [1.0, -0.7, 0.4]
        part = md.min_info_partition(b, 2)
        var = verify._variance_mc(m, part, b, trials=4 * 10**5, seed=10)[1]
        assert var == pytest.approx(info.density_variance(m, part, b), rel=0.02)

    def test_gt_variance_matches_enumeration(self):
        m = md.ModelSpec.group_testing(rho=0.11)
        for k in (4, 8):
            part = md.min_info_partition([1.0] * k, k // 2)
            var_exact = info.density_variance(m, part)
            trials = 2 * 10**5
            var = verify._variance_mc(m, part, None, trials=trials, seed=k)[1]
            se = var_exact * math.sqrt(2.0 / (trials - 1))
            assert abs(var - var_exact) <= 3 * max(se, 1e-4)

    def test_degenerate_channel_zero_variance(self):
        # s_dif holds a zero entry: the observation ignores X_dif entirely
        m = md.ModelSpec.linear(1.0)
        b = [0.0, 1.0]
        part = md.Partition(s_dif=(1,), s_eq=(2,))
        mean, var, _ = verify._variance_mc(m, part, b, trials=10**3, seed=2)
        assert mean == 0.0 and var == 0.0


class TestPriorDivergence:
    def test_zero_measurements(self):
        dims = md.ProblemDims(p=30, k=10, n=0)
        m = md.ModelSpec.linear(1.0)
        pr = md.SignalPrior.iid_gaussian(0.1)
        assert info.prior_divergence_stats(m, pr, dims) == (0.0, 0.0, 0.0)

    def test_direct_formula(self):
        dims = md.ProblemDims(p=200, k=10, n=100)
        m = md.ModelSpec.linear(1.0)
        pr = md.SignalPrior.iid_gaussian(0.1)
        i0, v0, i0p = info.prior_divergence_stats(m, pr, dims)
        assert i0 == pytest.approx(5.0 * math.log(11.0), abs=1e-12)
        assert v0 == 200.0
        assert i0p == pytest.approx(i0 + math.sqrt(10 * math.log(11.0)), abs=1e-12)

    def test_empirical_i0_below_bound(self):
        k, n, sbsq, sigma = 3, 10, 0.1, 1.0
        dims = md.ProblemDims(p=6, k=k, n=n)
        m = md.ModelSpec.linear(sigma)
        pr = md.SignalPrior.iid_gaussian(sbsq)
        rng = md.rng_stream(15)
        vals = np.empty(3000)
        for t in range(vals.size):
            x = rng.standard_normal((n, k))
            b = rng.normal(0, math.sqrt(sbsq), k)
            y = x @ b + sigma * rng.standard_normal(n)
            num = -0.5 * np.sum((y - x @ b) ** 2) / sigma**2 - 0.5 * n * math.log(
                2 * math.pi * sigma**2
            )
            vals[t] = num - info.log_marginal_likelihood(m, pr, x, y)
        bound, _, _ = info.prior_divergence_stats(m, pr, dims)
        assert float(np.mean(vals)) <= bound + 3 * float(np.std(vals) / math.sqrt(vals.size))

    def test_group_testing_refused(self):
        # validate_pairing refuses group testing with the Gaussian prior
        dims = md.ProblemDims(p=30, k=10, n=100)
        m = md.ModelSpec.group_testing(rho=0.11)
        pr = md.SignalPrior.iid_gaussian(0.1)
        with pytest.raises(ValueError, match="group testing pairs only with the all-ones prior"):
            info.prior_divergence_stats(m, pr, dims)


class TestMarginalLikelihood:
    def test_fixed_vector_equals_conditional(self):
        m = md.ModelSpec.one_bit(1.0)
        pr = md.SignalPrior.fixed([1.0, -0.4])
        x = md.rng_stream(3).standard_normal((6, 2))
        y = np.where(x @ np.array(pr.b) >= 0, 1.0, -1.0)
        assert info.log_marginal_likelihood(m, pr, x, y) == pytest.approx(
            info.log_conditional_likelihood(m, x, np.array(pr.b), y), abs=1e-12
        )

    def test_permuted_all_equal_entries(self):
        m = md.ModelSpec.linear(1.0)
        pr = md.SignalPrior.permuted([0.7, 0.7, 0.7])
        assert pr.m_beta == 1
        x = md.rng_stream(4).standard_normal((5, 3))
        y = x @ np.array(pr.b) + 0.1
        assert info.log_marginal_likelihood(m, pr, x, y) == pytest.approx(
            info.log_conditional_likelihood(m, x, np.array(pr.b), y), abs=1e-12
        )

    def test_permuted_mixture_weights(self):
        m = md.ModelSpec.linear(1.0)
        pr = md.SignalPrior.permuted([1.0, -1.0])
        x = np.array([[0.5, 1.5]])
        y = np.array([0.3])
        b1, b2 = np.array([1.0, -1.0]), np.array([-1.0, 1.0])
        expect = np.logaddexp(
            math.log(0.5) + info.log_conditional_likelihood(m, x, b1, y),
            math.log(0.5) + info.log_conditional_likelihood(m, x, b2, y),
        )
        assert info.log_marginal_likelihood(m, pr, x, y) == pytest.approx(float(expect), abs=1e-12)

    def test_gaussian_prior_2d_oracle(self):
        m = md.ModelSpec.linear(0.7)
        pr = md.SignalPrior.iid_gaussian(0.5)
        x = np.array([[1.3], [-0.4]])
        y = np.array([0.2, 1.1])
        cov = 0.49 * np.eye(2) + 0.5 * np.outer(x[:, 0], x[:, 0])
        oracle = float(
            -0.5 * y @ np.linalg.solve(cov, y)
            - 0.5 * math.log((2 * math.pi) ** 2 * np.linalg.det(cov))
        )
        assert info.log_marginal_likelihood(m, pr, x, y) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize(
        "model", [md.ModelSpec.one_bit(1.0), md.ModelSpec.group_testing()], ids=["one-bit", "gt"]
    )
    def test_unsupported_combination(self, model):
        # only the linear channel defines the Gaussian evidence
        with pytest.raises(info.UnsupportedCombinationError):
            info.log_marginal_likelihood(
                model, md.SignalPrior.iid_gaussian(1.0), np.zeros((2, 2)), np.ones(2)
            )

    @pytest.mark.parametrize("prior", [md.SignalPrior.fixed([1.0, -0.5, 2.0]),
                                       md.SignalPrior.permuted([1.0, -0.5, 2.0])])
    @pytest.mark.parametrize("model", [md.ModelSpec.linear(0.3), md.ModelSpec.one_bit(1.0)],
                             ids=["linear", "one-bit"])
    def test_per_candidate_outputs_equal_per_candidate_calls(self, model, prior):
        # a (C x n) y, one row of outputs per candidate, scores each
        # candidate as its own call does, bit for bit
        rng = md.rng_stream(9)
        for n in (0, 1, 7, 40):
            x = rng.standard_normal((11, n, 3))
            y = rng.standard_normal((11, n))
            if model.channel == md.ONE_BIT:
                y = np.where(y >= 0.0, 1.0, -1.0)
            scores = info.log_marginal_likelihood(model, prior, x, y)
            assert scores.shape == (11,)
            assert scores.tolist() == [
                info.log_marginal_likelihood(model, prior, xc, yc) for xc, yc in zip(x, y)
            ]

    def test_permutation_atom_budget(self):
        pr = md.SignalPrior.permuted(list(range(1, 13)))  # 12 distinct entries: 12! atoms
        with pytest.raises(ValueError):
            info.prior_atoms(pr, 12, max_atoms=10**6)


class TestGtRhoMonotone:
    def test_decreasing_in_rho(self):
        vals = [info.gt_mi_closed_form(LN2, 6, 3, rho) for rho in np.linspace(0.0, 0.5, 40)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
