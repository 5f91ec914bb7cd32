import functools
import itertools
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from support_limits import bounds, cli, info, sim, verify
from support_limits import model as md
from support_limits import numerics as nm

LN2 = math.log(2.0)


class TestGammaSelect:
    def test_zero_rule(self):
        m = md.ModelSpec.group_testing()
        dims = md.ProblemDims(p=100, k=5, n=10)
        assert bounds.gamma_select("zero", m, md.SignalPrior.all_ones(), dims) == 0.0

    def test_discrete_single_class(self):
        m = md.ModelSpec.linear(1.0)
        dims = md.ProblemDims(p=100, k=3, n=10)
        pr = md.SignalPrior.permuted([0.5, 0.5, 0.5])
        assert bounds.gamma_select("discrete", m, pr, dims) == 0.0
        pr2 = md.SignalPrior.permuted([0.5, 1.0, 2.0])
        assert bounds.gamma_select("discrete", m, pr2, dims) == pytest.approx(3 * math.log(3))

    def test_chebyshev_composition(self):
        m = md.ModelSpec.linear(1.0)
        dims = md.ProblemDims(p=100, k=10, n=100)
        pr = md.SignalPrior.iid_gaussian(0.1)
        i0, v0, _ = info.prior_divergence_stats(m, pr, dims)
        got = bounds.gamma_select("chebyshev", m, pr, dims, delta0=0.01)
        assert got == pytest.approx(i0 + math.sqrt(v0 / 0.01), abs=1e-12)

    def test_markov_composition(self):
        m = md.ModelSpec.one_bit(1.0)
        dims = md.ProblemDims(p=100, k=10, n=100)
        pr = md.SignalPrior.iid_gaussian(0.1)
        _, _, i0p = info.prior_divergence_stats(m, pr, dims)
        assert bounds.gamma_select("markov", m, pr, dims, delta0=0.5) == pytest.approx(2 * i0p)

    def test_rules_other_than_zero_need_the_prior(self):
        m = md.ModelSpec.linear(1.0)
        dims = md.ProblemDims(p=100, k=3, n=10)
        assert bounds.gamma_select("zero", m, None, dims) == 0.0
        for rule in ("discrete", "chebyshev", "markov"):
            with pytest.raises(ValueError, match=f"gamma rule '{rule}' needs the prior"):
                bounds.gamma_select(rule, m, None, dims)
            with pytest.raises(ValueError, match="needs the prior"):
                bounds.achievability_threshold_generic(
                    m, [1.0] * 3, dims, bounds.BoundOptions(gamma_rule=rule)
                )


class TestBindingRule:
    """Every per-ell max-ratio binds at the smallest ell of the largest ratio,
    an infinite ratio (zero MI) included, and lists every ell."""

    def test_generic_zero_mi_binds_smallest_ell(self):
        m = md.ModelSpec.linear(1.0)
        dims = md.ProblemDims(p=50, k=3, n=0)
        for fn in (bounds.achievability_threshold_generic, bounds.converse_threshold_generic):
            res = fn(m, [0.0, 0.0, 1.0], dims)
            assert res.binding == 1
            assert [row[0] for row in res.breakdown] == [1, 2, 3]
            assert [row[3] for row in res.breakdown[:2]] == [bounds.INFINITE] * 2
        assert bounds.achievability_threshold_generic(m, [0.0, 0.0, 1.0], dims).n_ach == (
            bounds.INFINITE
        )

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.99])
    @pytest.mark.parametrize("corollary", [bounds.cor_linear_exact, bounds.cor_1bit_exact_lowsnr])
    def test_exact_corollaries_zero_mi(self, corollary, eta):
        res = corollary([0.0, 0.0, 1.0], 1.0, 50, 3, eta)
        assert res.binding == 1
        assert [row[0] for row in res.breakdown] == [1, 2, 3]
        assert [row[3] for row in res.breakdown[:2]] == [bounds.INFINITE] * 2
        assert res.n_ach == res.n_conv == bounds.INFINITE

    def test_ties_to_smallest_ell_and_notes_skipped(self):
        note = "converse vacuous at this ell"
        rows = [(1, 1.0, 1.0, note), (2, 2.0, 1.0, 2.0), (3, 4.0, 2.0, 2.0), (4, 1.0, 1.0, 1.0)]
        assert bounds._binding(rows) == (2, 2.0)
        assert bounds._binding(rows[::-1]) == (2, 2.0)
        assert bounds._binding(rows[:1]) == (None, -bounds.INFINITE)
        assert bounds._ratio_row(5, 3.0, 0.0, 0.5) == (5, 3.0, 0.0, bounds.INFINITE)
        assert bounds._ratio_row(5, 3.0, 2.0, 0.5) == (5, 3.0, 2.0, 3.0)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(1, 40),
            st.one_of(
                st.sampled_from([0.0, 1.0, 2.5, math.inf, "converse vacuous at this ell"]),
                st.floats(-1e6, 1e6),
            ),
        ),
        unique_by=lambda row: row[0],
        max_size=12,
    ))
    @example([])
    @example([(3, "converse vacuous at this ell"), (1, "converse vacuous at this ell")])
    @example([(4, math.inf), (2, 1.0), (3, math.inf), (1, "converse vacuous at this ell")])
    @example([(5, 2.5), (2, 2.5), (9, 2.5), (1, 0.0)])
    def test_binding_equals_brute_force(self, pairs):
        rows = [(ell, 1.0, 1.0, ratio) for ell, ratio in pairs]
        want = (None, -bounds.INFINITE)
        for ell, ratio in sorted(pairs, key=lambda pair: pair[0]):
            if not isinstance(ratio, str) and (want[0] is None or ratio > want[1]):
                want = (ell, ratio)
        assert bounds._binding(rows) == want


class TestGenericAchievability:
    def test_k1_collapse(self):
        m = md.ModelSpec.linear(1.0)
        dims = md.ProblemDims(p=1000, k=1, n=0)
        opts = bounds.BoundOptions(delta1=1e-3, gamma_rule="discrete")
        res = bounds.achievability_threshold_generic(
            m, [1.0], dims, opts, prior=md.SignalPrior.fixed([1.0])
        )
        expect = (nm.log_binomial(999, 1) + 2 * math.log(1 / 1e-3)) / (0.5 * math.log(2.0))
        assert res.n_ach == pytest.approx(expect, rel=1e-12)
        assert res.binding == 1 and len(res.breakdown) == 1

    def test_gt_finite_threshold_binding_matches_grid_oracle(self):
        m = md.ModelSpec.group_testing(rho=0.0, nu=LN2)
        dims = md.ProblemDims(p=10**6, k=100, n=0)
        opts = bounds.BoundOptions(gamma_rule="zero")
        res = bounds.achievability_threshold_generic(m, None, dims, opts)
        assert math.isfinite(res.n_ach)
        # independent grid evaluation of the per-ell ratio table
        def ratio(ell):
            num = (
                nm.log_binomial(dims.p - 100, ell)
                + 2 * math.log(100 / opts.delta1)
                + 2 * nm.log_binomial(100, ell)
            )
            return num / info.gt_mi_closed_form(LN2, 100, ell, 0.0)

        oracle = max(range(1, 101), key=ratio)
        assert res.binding == oracle
        assert res.n_ach == pytest.approx(ratio(oracle), rel=1e-12)

    def test_partial_restricts_to_last_ell(self):
        m = md.ModelSpec.linear(1.0)
        dims = md.ProblemDims(p=100, k=4, n=0, d_max=3)
        res = bounds.achievability_threshold_generic(m, [1.0, 1.0, 1.0, 1.0], dims)
        assert len(res.breakdown) == 1 and res.breakdown[0][0] == 4

    def test_unrecoverable_sentinel(self):
        m = md.ModelSpec.linear(1.0)
        dims = md.ProblemDims(p=100, k=2, n=0)
        res = bounds.achievability_threshold_generic(m, [0.0, 1.0], dims)
        assert res.n_ach == bounds.INFINITE

    def test_remainder_reported_and_optionally_folded(self):
        m = md.ModelSpec.group_testing(rho=0.0, nu=LN2)
        dims = md.ProblemDims(p=10**4, k=20, n=0)
        res = bounds.achievability_threshold_generic(m, None, dims)
        assert res.remainder_n is not None and res.remainder_n > 0
        folded = bounds.achievability_threshold_generic(
            m, None, dims, bounds.BoundOptions(remainder_target=1e-2)
        )
        assert folded.n_ach == max(res.n_ach, res.remainder_n)

    def test_breakdown_matches_oracle_check(self):
        (result,) = verify.run_checks("achievability-generic-breakdown")
        assert result.passed and result.tolerance == 1e-9, result.detail


def _loop_partial_conv_subtraction(p, k, ell, d_max):
    """log sum_{d <= d_max} C(p-k, d) C(ell, d) as one scalar log-gamma
    formula per binomial and d, the loop the library replaced."""
    log_binomial = lambda n, r: float(nm.gammaln(n + 1) - nm.gammaln(r + 1) - nm.gammaln(n - r + 1))
    terms = [
        log_binomial(p - k, d) + log_binomial(ell, d)
        for d in range(0, min(d_max, ell, p - k) + 1)
    ]
    m = max(terms)
    return m + math.log(sum(math.exp(t - m) for t in terms))


def _partial_converse_oracle(b, p, d_max, delta1):
    """(ell, num, I, num / I) for ell = d_max + 1 .. k of the linear (sigma
    = 1) partial converse, from math.comb and math.log: num = log
    C(p-k+ell, ell) - log delta1 - log sum_{d <= d_max} C(p-k, d) C(ell, d),
    I over the ell smallest squared entries."""
    k = len(b)
    rows = []
    for ell in range(d_max + 1, k + 1):
        sub = sum(math.comb(p - k, d) * math.comb(ell, d) for d in range(d_max + 1))
        num = math.log(math.comb(p - k + ell, ell)) - math.log(delta1) - math.log(sub)
        mi = 0.5 * math.log(1.0 + math.fsum(sorted(v * v for v in b)[:ell]))
        rows.append((ell, num, mi, num / mi))
    return rows


class TestGenericConverse:
    def test_delta1_one_drops_term(self):
        m = md.ModelSpec.linear(1.0)
        dims = md.ProblemDims(p=500, k=2, n=0)
        b = [1.0, 2.0]
        res = bounds.converse_threshold_generic(m, b, dims, bounds.BoundOptions(delta1=1.0))
        def ratio(ell):
            part = md.min_info_partition(b, ell)
            return nm.log_binomial(500 - 2 + ell, ell) / info.mutual_information(m, part, b)
        assert res.n_conv == pytest.approx(max(ratio(1), ratio(2)), rel=1e-12)

    def test_dmax_zero_subtraction_is_identity(self):
        # the d = 0 term is C(p-k, 0) C(l, 0) = 1, so nothing is subtracted
        assert bounds.log_partial_conv_subtraction(100, 5, 3, 0) == pytest.approx(0.0, abs=1e-15)

    def test_partial_subtraction_logsumexp(self):
        p, k, ell, d_max = 50, 6, 4, 2
        direct = math.log(
            sum(math.comb(p - k, d) * math.comb(ell, d) for d in range(d_max + 1))
        )
        assert bounds.log_partial_conv_subtraction(p, k, ell, d_max) == pytest.approx(
            direct, rel=1e-12
        )

    @pytest.mark.parametrize("p", [10, 100, 10**6, 10**12])
    @pytest.mark.parametrize("k", [2, 5])
    def test_subtraction_equals_the_loop_over_d(self, p, k):
        # the array form against the loop of scalar calls it replaced, bit
        # for bit: the same terms, summed by the same Python log-sum-exp
        for ell in range(1, k + 1):
            for d_max in range(0, k):
                got = bounds.log_partial_conv_subtraction(p, k, ell, d_max)
                assert got == _loop_partial_conv_subtraction(p, k, ell, d_max), (ell, d_max)

    @pytest.mark.parametrize("b, p, d_max, binding, n_conv", [
        ([0.5, -1.0, 1.5, 2.0], 100, 1, 2, 24.9382651293236),
        ([0.5, -1.0, 1.5, 2.0], 1000, 2, 3, 15.4503895245914),
        ([0.5, -1.0, 1.5], 30, 1, 2, 21.9668106459493),
    ])
    def test_partial_subtraction_against_comb_oracle(self, b, p, d_max, binding, n_conv):
        # p - k > d_max: no ell is vacuous, so every row subtracts
        # log sum_d C(p-k, d) C(ell, d) from its numerator
        m = md.ModelSpec.linear(1.0)
        res = bounds.converse_threshold_generic(m, b, md.ProblemDims(p=p, k=len(b), d_max=d_max))
        rows = _partial_converse_oracle(b, p, d_max, delta1=1e-3)
        assert max(rows, key=lambda row: row[3])[0] == res.binding == binding
        assert res.n_conv == pytest.approx(n_conv, rel=1e-12)
        assert len(res.breakdown) == len(rows)
        for got, want in zip(res.breakdown, rows):
            assert got[0] == want[0]
            assert got[1:] == pytest.approx(want[1:], rel=1e-12)

    def test_gt_restricted_to_k_matches_stirling_oracle(self):
        m = md.ModelSpec.group_testing(rho=0.0, nu=LN2)
        p, k = 10**6, 10**3
        dims = md.ProblemDims(p=p, k=k, n=0)
        opts = bounds.BoundOptions()
        res = bounds.converse_threshold_generic(m, None, dims, opts)
        ell_k, _, _, ratio_k = res.breakdown[-1]
        assert ell_k == k
        target = k * math.log(p / k) / nm.binary_entropy(math.exp(-LN2))
        # the gap is the Stirling residue k - log sqrt(2 pi k) plus the
        # -log delta1 slack, all divided by the binding mutual information
        mi_k = info.gt_mi_closed_form(LN2, k, k, 0.0)
        residue = (k + math.log(1 / opts.delta1)) / mi_k
        assert 0 < ratio_k - target < residue

    @pytest.mark.parametrize("p,k", [(4, 3), (12, 3), (10**6, 5)])
    def test_asymptotic_main_term_is_converse_stirling(self, p, k):
        # the asymptotic numerator is ell log((p - k + ell) / ell) - log
        # delta1: the Stirling form of log C(p - k + ell, ell), never negative
        m = md.ModelSpec.linear(1.0)
        opts = bounds.BoundOptions(delta1=1e-3, asymptotic=True)
        res = bounds.converse_threshold_generic(m, [1.0] * k, md.ProblemDims(p=p, k=k), opts)
        assert [row[0] for row in res.breakdown] == list(range(1, k + 1))
        for ell, num, _, _ in res.breakdown:
            main = num + math.log(opts.delta1)
            assert main >= 0.0
            assert main == pytest.approx(ell * math.log((p - k + ell) / ell), rel=1e-12, abs=1e-12)

    def test_vacuous_ell_skipped(self):
        # d_max >= p - k saturates the subtraction (Vandermonde), so every
        # ell is flagged vacuous and no converse claim remains
        m = md.ModelSpec.linear(1.0)
        dims = md.ProblemDims(p=8, k=6, n=0, d_max=4)
        b = [1.0] * 6
        res = bounds.converse_threshold_generic(m, b, dims)
        flagged = [row for row in res.breakdown if isinstance(row[3], str)]
        assert len(flagged) == len(res.breakdown) > 0
        assert res.n_conv == 0.0 and res.binding is None


class TestFano:
    def test_indicator_off(self):
        m = md.ModelSpec.linear(1.0)
        b = [1.0, 2.0]
        dims = md.ProblemDims(p=100, k=2, n=10**9)
        pe, region = bounds.fano_lower_bound(m, b, dims, delta2=0.5)
        assert pe == 0.0 and region.boundary_n < 10**9

    def test_indicator_on_value(self):
        m = md.ModelSpec.linear(1.0)
        b = [1.0, 2.0]
        dims = md.ProblemDims(p=100, k=2, n=1)
        pe, _ = bounds.fano_lower_bound(m, b, dims, delta2=0.5)
        assert pe == pytest.approx(0.5 - 1.0 / math.log(99), abs=1e-12)

    def test_weaker_than_strong_converse(self):
        m = md.ModelSpec.linear(1.0)
        b = [1.0, -0.5, 2.0]
        conv = bounds.converse_threshold_generic(m, b, md.ProblemDims(p=200, k=3, n=0))
        _, region = bounds.fano_lower_bound(m, b, md.ProblemDims(p=200, k=3, n=1), delta2=0.5)
        assert region.boundary_n <= conv.n_conv


class TestCorLinearExact:
    def test_k1_both_directions(self):
        res = bounds.cor_linear_exact([1.0], 1.0, 10**4, 1)
        expect = math.log(10**4) / (0.5 * math.log(2.0))
        assert res.n_ach == pytest.approx(expect, rel=1e-3)
        assert res.n_conv == pytest.approx(expect, rel=1e-3)

    def test_ach_conv_ratio_tends_to_one(self):
        # the eta-free displayed pair has n_ach <= n_conv (the converse
        # binomial C(p-k+l, l) dominates C(p-k, l)), with the ratio rising
        # to 1 as p grows
        b = [1.0, 0.5, 2.0]
        ratios = []
        for p in (10**3, 10**6, 10**9):
            r = bounds.cor_linear_exact(b, 1.0, p, 3)
            ratios.append(r.n_ach / r.n_conv)
        assert ratios[0] < ratios[1] < ratios[2] <= 1.0
        assert abs(ratios[2] - 1.0) < 0.01

    def test_eta_scaling(self):
        base = bounds.cor_linear_exact([1.0, 1.0], 1.0, 100, 2)
        hi = bounds.cor_linear_exact([1.0, 1.0], 1.0, 100, 2, eta=0.1)
        assert hi.n_ach == pytest.approx(1.1 * base.n_ach)
        assert hi.n_conv == pytest.approx(0.9 * base.n_conv)

    def test_lasso_constant_grid_oracle(self):
        for cb in (2.0, 10.0, 100.0):
            alphas = np.linspace(1e-4, 1.0, 10**4)
            oracle = float(np.max(alphas / (0.5 * np.log1p(cb * alphas))))
            val, arg = bounds.lasso_comparison_constant(cb)
            assert val == pytest.approx(oracle, rel=1e-6)
            assert val == pytest.approx(2.0 / math.log1p(cb), rel=1e-6)
            assert arg == pytest.approx(1.0)


class TestCorLinearPartial:
    def test_conv_vanishes_as_alpha_star_to_one(self):
        res = bounds.cor_linear_partial(10.0, alpha_star=0.999, grid_points=201)
        assert res.coef_conv < 0.01 * res.coef_ach

    def test_high_snr_ratio(self):
        res = bounds.cor_linear_partial(10**6, 1.0, 0.1, grid_points=4001)
        assert res.coef_ach / res.coef_conv == pytest.approx(1.0 / 0.9, rel=0.02)

    def test_against_adaptive_quadrature_golden_oracle(self):
        # independent route: adaptive-Simpson g with scipy's bounded Brent
        # maximizer seeded by a coarse grid
        from scipy.optimize import minimize_scalar

        c_beta, a_star = md.c_beta_from_snr(10.0), 0.1
        denom = lambda a: 0.5 * math.log1p(c_beta * verify.g_alpha_simpson(float(a), 1e-11))

        def refine(obj):
            grid = np.linspace(a_star, 1.0, 501)
            i = int(np.argmax([obj(a) for a in grid]))
            lo, hi = grid[max(0, i - 1)], grid[min(500, i + 1)]
            r = minimize_scalar(lambda a: -obj(a), bounds=(lo, hi), method="bounded",
                                options={"xatol": 1e-12})
            return max(obj(grid[i]), -r.fun)

        oracle_ach = refine(lambda a: a / denom(a))
        oracle_conv = refine(lambda a: (a - a_star) / denom(a))
        res = bounds.cor_linear_partial(c_beta, 1.0, a_star, grid_points=3001)
        assert res.coef_ach == pytest.approx(oracle_ach, rel=1e-8)
        assert res.coef_conv == pytest.approx(oracle_conv, rel=1e-8)


class TestCor1BitExact:
    def test_pi_over_two_vs_linear(self):
        p, k = 10**6, 3
        b = [1e-3] * 3
        one = bounds.cor_1bit_exact_lowsnr(b, 1.0, p, k)
        lin = bounds.cor_linear_exact(b, 1.0, p, k)
        assert one.n_ach / lin.n_ach == pytest.approx(math.pi / 2.0, rel=0.01)

    def test_tie_breaks_to_smallest_ell(self):
        res = bounds.cor_1bit_exact_lowsnr([1e-3] * 4, 1.0, 10**4, 4)
        assert res.binding == 1

    def test_doubling_energy_halves_threshold(self):
        a = bounds.cor_1bit_exact_lowsnr([1e-3] * 3, 1.0, 10**4, 3)
        b = bounds.cor_1bit_exact_lowsnr([1e-3 * math.sqrt(2)] * 3, 1.0, 10**4, 3)
        assert b.n_ach / a.n_ach == pytest.approx(0.5, rel=1e-9)

    def test_ell_one_denominator(self):
        # the ell = 1 row's mi is sum_{1 smallest} b^2 / (pi sigma^2)
        res = bounds.cor_1bit_exact_lowsnr([9.0, math.sqrt(math.pi)], 1.0, 10**4, 2)
        assert res.breakdown[0][0] == 1
        assert res.breakdown[0][2] == pytest.approx(1.0, abs=1e-12)

    def test_ell_one_denominator_vs_quadrature_mi(self):
        # at low SNR the exact 1-bit mutual information approaches the
        # corollary's denominator
        b = [1e-3, 1e-3, 1e-3]
        res = bounds.cor_1bit_exact_lowsnr(b, 1.0, 10**4, 3)
        exact = info.mutual_information(md.ModelSpec.one_bit(1.0), md.min_info_partition(b, 1), b)
        assert exact / res.breakdown[0][2] == pytest.approx(1.0, abs=0.01)


class TestCor1BitHighSnr:
    def test_scaling_regression(self):
        # k = p/2, b0^2 = log(p)/p gives n = Theta(p sqrt(log p)):
        # slope of log n vs log p is 1 + (1/2) dloglog/dlog
        ps = [10**4, 10**5, 10**6]
        vals = [
            bounds.cor_1bit_highsnr_converse(math.sqrt(math.log(p) / p), 1.0, p, p // 2)
            for p in ps
        ]
        slope = np.polyfit(np.log(ps), np.log(vals), 1)[0]
        loglog_correction = 0.5 * (
            (math.log(math.log(10**6)) - math.log(math.log(10**4)))
            / (math.log(10**6) - math.log(10**4))
        )
        assert slope == pytest.approx(1.0 + loglog_correction, abs=0.02)

    def test_eta_scales_and_one_refused(self):
        full = bounds.cor_1bit_highsnr_converse(0.1, 1.0, 1000, 500)
        assert bounds.cor_1bit_highsnr_converse(0.1, 1.0, 1000, 500, eta=0.5) == full * 0.5
        with pytest.raises(ValueError, match="eta"):
            bounds.cor_1bit_highsnr_converse(0.1, 1.0, 1000, 500, eta=1.0)

    @pytest.mark.parametrize(
        "b0,k,ratio",
        [
            (0.1, 5000, 0.5),
            # the denominator goes as b0 / sqrt(k): doubling b0^2 and
            # quadrupling k scale the count by sqrt(2)
            (0.05 * math.sqrt(2.0), 20000, math.sqrt(2.0)),
        ],
        ids=["b0", "b0-and-k"],
    )
    def test_quadrupling_b0_sq_halves(self, b0, k, ratio):
        a = bounds.cor_1bit_highsnr_converse(0.05, 1.0, 10**4, 5000)
        b = bounds.cor_1bit_highsnr_converse(b0, 1.0, 10**4, k)
        assert b / a == pytest.approx(ratio, rel=1e-9)

    def test_denominator_vs_exact_ell_one_mi(self):
        # k = 1e4 equal entries b0 = sqrt(log k / k): the corollary's
        # denominator log p / n against the exact ell = 1 quadrature MI
        k, p = 10**4, 10**6
        b0 = math.sqrt(math.log(k) / k)
        approx = math.log(p) / bounds.cor_1bit_highsnr_converse(b0, 1.0, p, k)
        b = np.full(k, b0)
        exact = info.mutual_information(md.ModelSpec.one_bit(1.0), md.min_info_partition(b, 1), b)
        assert 0.8 <= exact / approx <= 1.25


class TestPsiFunction1Bit:
    def test_alpha_one_endpoint_collapse(self):
        for cb in (0.5, 10.0, 1e4):
            expect = nm.LOG2 - nm.mean_entropy_q_scaled(math.sqrt(cb))
            assert bounds.psi_function_1bit(1.0, cb) == pytest.approx(expect, abs=1e-12)

    def test_vanishes_at_zero_snr(self):
        assert bounds.psi_function_1bit(0.5, 1e-8) < 1e-6

    def test_non_finite_quadrature_raises(self):
        # infinite c_beta makes the first scale inf/inf: NaN, not a Psi of 0
        with np.errstate(invalid="ignore"):
            with pytest.raises(nm.NonConvergenceError):
                bounds.psi_function_1bit(0.5, math.inf)
            with pytest.raises(nm.NonConvergenceError):
                bounds.psi_function_1bit(np.array([0.2, 0.5]), math.inf)

    def test_mid_value_vs_monte_carlo(self):
        rng = md.rng_stream(55)
        w = rng.standard_normal(10**6)
        g = nm.g_alpha(0.5)
        a1 = math.sqrt(10.0 * (1 - g) / (1.0 + 10.0 * g))
        a2 = math.sqrt(10.0)
        s1 = nm.binary_entropy(np.clip(nm.q_function(a1 * w), 1e-300, 1 - 1e-16))
        s2 = nm.binary_entropy(np.clip(nm.q_function(a2 * w), 1e-300, 1 - 1e-16))
        mc = float(np.mean(s1 - s2))
        se = float(np.std(s1 - s2) / math.sqrt(w.size))
        assert bounds.psi_function_1bit(0.5, 10.0) == pytest.approx(mc, abs=3 * se)


class TestPartialGridEquivalence:
    """The alpha grid evaluated as one array gives the per-alpha scalars."""

    def test_psi_array_equals_scalar_calls(self):
        alphas = np.concatenate([np.linspace(0.0, 1.0, 401), [0.1, 1.0]])
        for cb, sigma in ((1e-3, 1.0), (10.0, 1.0), (1e4, 2.0), (1e8, 0.5)):
            vals = bounds.psi_function_1bit(alphas, cb, sigma)
            assert vals.shape == alphas.shape
            assert vals.tolist() == [bounds.psi_function_1bit(float(a), cb, sigma) for a in alphas]
        assert type(bounds.psi_function_1bit(0.5, 10.0)) is float
        grid = alphas[:400].reshape(20, 20)
        assert bounds.psi_function_1bit(grid, 10.0).tolist() == (
            bounds.psi_function_1bit(alphas[:400], 10.0).reshape(20, 20).tolist()
        )

    def test_1bit_curve_denominators_equal_scalar_psi(self):
        alphas = np.linspace(0.1, 1.0, 301)
        for cb in (0.1, 10.0, 1e5):
            scalars = [bounds.psi_function_1bit(a, cb, 1.0) for a in alphas.tolist()]
            assert bounds.psi_function_1bit(alphas, cb, 1.0).tolist() == scalars
            assert all(type(v) is float for v in scalars)

    def test_linear_curve_denominators_equal_scalar_formula(self):
        # math.log1p per element, also on the figure's alpha grid at -20, 0
        # and 50 dB: np.log1p differs from it in the last bit on some builds
        figure = np.linspace(0.1, 1.0, 2001)
        cases = [(50.0, 1.5, np.linspace(0.2, 1.0, 301))]
        cases += [(md.c_beta_from_snr(snr), 1.0, figure) for snr in (-20.0, 0.0, 50.0)]
        for cb, sigma, alphas in cases:
            got = bounds.linear_partial_denominator(alphas, cb, sigma)
            assert got.dtype == np.float64
            assert got.tolist() == [
                0.5 * math.log1p(cb * nm.g_alpha(a) / sigma**2) for a in alphas.tolist()
            ]
        assert bounds.linear_partial_denominator(0.5, 50.0) == 0.5 * math.log1p(50.0 * nm.g_alpha(0.5))

    def test_psi_0d_c_beta_is_the_float_call(self):
        got = bounds.psi_function_1bit(0.5, np.array(10.0))
        assert type(got) is float and got == bounds.psi_function_1bit(0.5, 10.0)
        got = bounds.psi_function_1bit(np.array(0.5), np.array(10.0))
        assert type(got) is float and got == bounds.psi_function_1bit(0.5, 10.0)

    @pytest.mark.parametrize("corollary", [bounds.cor_linear_partial, bounds.cor_1bit_partial])
    @pytest.mark.parametrize(
        "kwargs,name",
        [({"grid_points": 0}, "grid_points"), ({"grid_points": 1}, "grid_points"),
         ({"alpha_star": 1.5}, "alpha_star"), ({"alpha_star": -0.1}, "alpha_star"),
         ({"alpha_star": float("nan")}, "alpha_star"), ({"alpha_star": 0.0}, "alpha_star")],
    )
    def test_degenerate_grid_rejected(self, corollary, kwargs, name):
        with pytest.raises(ValueError, match=name):
            corollary(10.0, **kwargs)


def _old_psi(alpha, c_beta, sigma=1.0):
    """psi_function_1bit as it was: both expectations in one array call."""
    g = nm.g_alpha(alpha)
    a1 = np.sqrt(c_beta * (1.0 - g) / (sigma**2 + c_beta * g))
    a2 = math.sqrt(c_beta) / sigma
    e = nm.mean_entropy_q_scaled(np.append(a1, a2))
    diff = e[:-1] - e[-1]
    psi = np.where(diff > 0.0, diff, 0.0)
    return float(psi[0]) if np.ndim(alpha) == 0 else psi.reshape(np.shape(alpha))


def _old_gt_objective(theta, nu):
    """cor_gt_noiseless's objective as it was, with the binary entropy through
    the array path as every call took it."""
    t1 = theta / (math.exp(-nu) * nu * (1.0 - theta))
    t2 = 1.0 / nm.binary_entropy(np.array(math.exp(-nu)))
    return max(t1, t2)


def _old_golden_refine(f, grid, i, tol=1e-10):
    """The scalar golden-section loop the lane routine replaced, verbatim:
    the reference every lockstep refinement must equal."""
    lo = grid[max(0, i - 1)]
    hi = grid[min(len(grid) - 1, i + 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = c if fc >= fd else d
    return float(x), float(max(fc, fd))


def _old_golden_refine_min(f, grid, i, tol=1e-10):
    x, v = _old_golden_refine(lambda t: -f(t), grid, i, tol)
    return x, -v


def _old_maximize_partial(denom, alpha_star, grid_points, eta):
    """_maximize_partial as it was: one scalar golden-section loop per
    maximum, denom taking the alpha grid as an array and a scalar alpha."""
    alphas = np.linspace(alpha_star, 1.0, grid_points)
    dens = denom(alphas)
    with np.errstate(divide="ignore"):
        obj_a = np.where(dens > 0, alphas / dens, math.inf)
        obj_c = np.where(dens > 0, (alphas - alpha_star) / dens, 0.0)
    obj_c[0] = 0.0
    ia, ic = int(np.argmax(obj_a)), int(np.argmax(obj_c))
    a_a, v_a = _old_golden_refine(lambda a: a / denom(a), alphas, ia)
    a_c, v_c = _old_golden_refine(lambda a: (a - alpha_star) / denom(a), alphas, ic)
    return bounds.PartialCurves(
        coef_ach=v_a * (1.0 + eta),
        coef_conv=v_c * (1.0 - eta),
        alpha_ach=a_a,
        alpha_conv=a_c,
    )


def _old_linear_denom(cb, sigma):
    log1p = np.vectorize(math.log1p, otypes=[float])
    return lambda a: 0.5 * log1p(cb * nm.g_alpha(a) / sigma**2)


def _old_gt_noiseless(theta, eta=0.0):
    """cor_gt_noiseless as it was: one scalar objective call per grid nu."""
    objective = lambda nu: _old_gt_objective(theta, nu)
    grid = np.linspace(1e-3, 5.0, 256)
    vals = [objective(float(nu)) for nu in grid]
    nu_star, best = _old_golden_refine_min(objective, grid, int(np.argmin(vals)))
    at_log2 = objective(nm.LOG2)
    if at_log2 <= best + 1e-15:
        nu_star, best = nm.LOG2, at_log2
    return bounds.GtNoiselessResult(
        coef_ach=best * (1.0 + eta), coef_conv=(1.0 / nm.LOG2) * (1.0 - eta), nu_star=nu_star
    )


def _old_gt_noisy_zeta(rho, delta2, theta):
    """gt_noisy_zeta as it was: scalar only, with the built-in max."""
    gap = 1.0 - 2.0 * rho
    t1 = 2.0 * (1.0 + delta2 * gap / 3.0) * (theta / (1.0 - theta)) / (delta2**2 * gap**2)
    t2 = ((1.0 + 4.0 * theta) / (1.0 - theta)) / (gap * math.log((1.0 - rho) / rho) * (1.0 - delta2))
    return (2.0 / nm.LOG2) * max(t1, t2)


def _old_gt_noisy(theta, rho, eta=0.0):
    """cor_gt_noisy as it was: one scalar golden-section loop per theta."""
    floor = 1.0 / (nm.LOG2 - nm.binary_entropy(rho))
    grid = np.linspace(1e-4, 1.0 - 1e-4, 256)
    i = int(np.argmin([_old_gt_noisy_zeta(rho, d2, theta) for d2 in grid.tolist()]))
    d2_star, zeta_min = _old_golden_refine_min(lambda d2: _old_gt_noisy_zeta(rho, d2, theta), grid, i)
    coef = floor if zeta_min <= floor else max(zeta_min, floor)
    return bounds.GtNoisyResult(
        coef_ach=coef * (1.0 + eta), coef_conv=floor * (1.0 - eta), delta2_star=d2_star
    )


# (c_beta, sigma): sqrt(c_beta)/sigma below, at and above 1, so Psi's
# alpha-free term takes both mean_entropy_q_scaled branches
# (0.7, 0.5) gives raw differences of -1e-16 at alpha near 1e-12, which Psi clamps to 0
PSI_CASES = [(1e-3, 1.0), (0.5, 2.0), (1.0, 1.0), (0.7, 0.5), (3.0, 1.0), (50.0, 1.5),
             (1e4, 2.0), (1e8, 0.5)]
# alpha* = 0.999 puts the conv argmax at the grid's right end; the ach
# argmax sits at its left end for most cases
PARTIAL_ALPHA_STARS = (0.05, 0.1, 0.6, 0.999)


class TestFigureCorollariesEqualOldLoops:
    """The scalar-kernel steps and the hoisted terms give the old values
    bit for bit (==, no tolerance)."""

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_psi_equals_two_row_call(self, eps):
        small = np.logspace(-12, -1, 23)  # where Psi clamps at (0.7, 0.5)
        alphas = np.concatenate([np.linspace(0.0, 1.0, 101), [0.1, 1.0], small])
        with nm.entropy_perturbation(eps):
            for cb, sigma in PSI_CASES:
                assert bounds.psi_function_1bit(alphas, cb, sigma).tolist() == (
                    _old_psi(alphas, cb, sigma).tolist()
                )
                for a in alphas[:103:10].tolist() + small.tolist():
                    got = bounds.psi_function_1bit(a, cb, sigma)
                    assert type(got) is float and got == _old_psi(a, cb, sigma)

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    @pytest.mark.parametrize("cb,sigma", PSI_CASES)
    def test_1bit_partial_equals_old_loop(self, cb, sigma, eps):
        with nm.entropy_perturbation(eps):
            for alpha_star in PARTIAL_ALPHA_STARS:
                for eta in (0.0, 0.05):
                    got = bounds.cor_1bit_partial(cb, sigma, alpha_star, eta, grid_points=201)
                    old = _old_maximize_partial(
                        lambda a: _old_psi(a, cb, sigma), alpha_star, 201, eta
                    )
                    assert got == old, (alpha_star, eta)

    @pytest.mark.parametrize("cb,sigma", PSI_CASES)
    def test_linear_partial_equals_old_loop(self, cb, sigma):
        for alpha_star in PARTIAL_ALPHA_STARS:
            for eta in (0.0, 0.05):
                got = bounds.cor_linear_partial(cb, sigma, alpha_star, eta, grid_points=201)
                old = _old_maximize_partial(_old_linear_denom(cb, sigma), alpha_star, 201, eta)
                assert got == old, (alpha_star, eta)

    def test_cases_put_the_grid_argmax_at_both_ends(self):
        ends = set()
        for cb, sigma in PSI_CASES:
            for alpha_star in PARTIAL_ALPHA_STARS:
                alphas = np.linspace(alpha_star, 1.0, 201)
                for dens in (bounds.linear_partial_denominator(alphas, cb, sigma),
                             bounds.psi_function_1bit(alphas, cb, sigma)):
                    with np.errstate(divide="ignore", invalid="ignore"):
                        obj_a = np.where(dens > 0, alphas / dens, math.inf)
                        obj_c = np.where(dens > 0, (alphas - alpha_star) / dens, 0.0)
                    obj_c[0] = 0.0
                    ends |= {int(np.argmax(obj_a)), int(np.argmax(obj_c))}
        assert {0, 200} <= ends

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_batched_partial_equals_old_loops(self, sigma, eps):
        cbs = [cb for cb, _ in PSI_CASES]
        with nm.entropy_perturbation(eps):
            for alpha_star in PARTIAL_ALPHA_STARS:
                lin = bounds.cor_linear_partial(cbs, sigma, alpha_star, 0.05, grid_points=201)
                one = bounds.cor_1bit_partial(cbs, sigma, alpha_star, 0.05, grid_points=201)
                assert lin == [
                    _old_maximize_partial(_old_linear_denom(cb, sigma), alpha_star, 201, 0.05)
                    for cb in cbs
                ]
                assert one == [
                    _old_maximize_partial(lambda a: _old_psi(a, cb, sigma), alpha_star, 201, 0.05)
                    for cb in cbs
                ]

    def test_lanes_of_mixed_widths_equal_scalar_loops(self):
        # uneven spacing, down to brackets narrower than tol (no step at all),
        # so the lanes stop at different steps; argmaxes at both ends too
        grid = np.cumsum([0.0, 0.3, 1e-11, 2e-12, 0.05, 1e-6, 0.4, 0.2, 1e-9, 0.7])
        best = [0, 1, 2, 3, 4, 5, 6, 7, 9, 9, 2, 0]
        shift = np.linspace(0.0, 2.0, len(best))
        f = lambda x, i: np.sin(3.0 * x + shift[i]) - 0.1 * x * x
        x, v = bounds._golden_lanes(f, grid, best)
        for lane, i in enumerate(best):
            g = lambda t: math.sin(3.0 * t + shift[lane]) - 0.1 * t * t
            assert (x[lane], v[lane]) == _old_golden_refine(g, grid, i), lane
        assert bounds._golden_lanes(f, grid, [])[0].size == 0
        # a bracket exactly tol wide takes no step, a wider one does; the
        # last two are the widths [0, 1] has after its first step
        grid, best = np.array([0.0, 0.5, 1.0]), [1, 0]
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        for tol in (1.0, 0.5, invphi * 1.0, 1.0 - (1.0 - invphi * 1.0)):
            x, v = bounds._golden_lanes(f, grid, best, tol)
            for lane, i in enumerate(best):
                g = lambda t: math.sin(3.0 * t + shift[lane]) - 0.1 * t * t
                assert (x[lane], v[lane]) == _old_golden_refine(g, grid, i, tol), (tol, lane)

    def test_gt_noiseless_equals_old_loop(self):
        thetas = np.concatenate([np.linspace(0.01, 0.99, 99), [1e-9, 1.0 / 3.0, 1.0 - 1e-9]])
        grid = np.linspace(1e-3, 5.0, 256)
        for theta in thetas.tolist():
            assert bounds.cor_gt_noiseless(theta) == _old_gt_noiseless(theta), theta
            # the argmin alone would hide a last-bit change of the grid values
            assert bounds._gt_noiseless_objective(theta, grid).tolist() == [
                _old_gt_objective(theta, nu) for nu in grid.tolist()
            ], theta
        assert bounds.cor_gt_noiseless(0.7, eta=0.1) == _old_gt_noiseless(0.7, eta=0.1)

    def test_gt_sequences_equal_per_theta_loops(self):
        thetas = np.linspace(0.05, 0.95, 19).tolist()
        assert bounds.cor_gt_noiseless(thetas, eta=0.1) == [
            _old_gt_noiseless(t, eta=0.1) for t in thetas
        ]
        thetas = np.linspace(0.01, 0.99, 70).tolist()
        for rho in (0.01, 0.05, 0.11, 0.25, 0.45):
            assert bounds.cor_gt_noisy(thetas, rho, eta=0.05) == [
                _old_gt_noisy(t, rho, eta=0.05) for t in thetas
            ], rho
            assert bounds.cor_gt_noisy(thetas[7], rho) == _old_gt_noisy(thetas[7], rho)
        assert bounds.cor_gt_noiseless([]) == [] and bounds.cor_gt_noisy((), 0.11) == []

    def test_gt_noisy_zeta_grid_equals_scalar_calls(self):
        grid = np.linspace(1e-4, 1.0 - 1e-4, 256)
        for rho in (0.01, 0.05, 0.11, 0.25, 0.3, 0.45):
            for theta in np.linspace(0.05, 0.95, 19).tolist():
                assert bounds.gt_noisy_zeta(rho, grid, theta).tolist() == [
                    _old_gt_noisy_zeta(rho, d2, theta) for d2 in grid.tolist()
                ], (rho, theta)

    def test_hoisted_psi_term_sees_the_perturbation(self):
        eps, cb = 1e-3, 10.0
        plain = bounds.cor_1bit_partial(cb, grid_points=101)
        with nm.entropy_perturbation(eps):
            perturbed = bounds.cor_1bit_partial(cb, grid_points=101)
        # both expectations of Psi scale by (1 + eps), the alpha-free one too
        alphas = np.linspace(0.1, 1.0, 101)
        g = nm.g_alpha(alphas)
        e1 = nm.mean_entropy_q_scaled(np.sqrt(cb * (1.0 - g) / (1.0 + cb * g)))
        e2 = nm.mean_entropy_q_scaled(math.sqrt(cb))
        diff = e1 * (1.0 + eps) - e2 * (1.0 + eps)
        with nm.entropy_perturbation(eps):
            dens = bounds.psi_function_1bit(alphas, cb)
        assert dens.tolist() == np.where(diff > 0.0, diff, 0.0).tolist()
        assert perturbed.coef_ach != plain.coef_ach
        assert bounds.cor_1bit_partial(cb, grid_points=101) == plain


def _full_grid_reference(denom, c_betas, alpha_star, grid_points, eta):
    """A sequence's results from the full grid: the old scalar loop per
    c_beta, its argmaxes from every grid point's denom(alpha, c_beta)."""
    return [
        _old_maximize_partial(lambda a: denom(a, cb), alpha_star, grid_points, eta)
        for cb in c_betas
    ]


# each partial corollary's denominator at sigma = 1
PARTIAL_DENOMS = {
    bounds.cor_linear_partial: lambda a, cb: bounds.linear_partial_denominator(a, cb, 1.0),
    bounds.cor_1bit_partial: lambda a, cb: bounds.psi_function_1bit(a, cb, 1.0),
}


# SNRs in dB, each a c_beta at sigma = 1
BISECTION_SNRS = (-40.0, -20.0, -5.0, 0.0, 10.0, 30.0, 60.0)


def _bisect_one(denom, cbs, alphas, alpha_star):
    """_bisect_argmax over the lanes of one denominator(alpha, c_beta)."""
    lanes = bounds._lanes((denom,), np.asarray(cbs, dtype=float), False)
    return bounds._bisect_argmax(lanes, len(cbs), alphas, alpha_star)


class TestPartialBisectionEqualsFullGrid:
    """A sequence of c_beta finds each grid argmax by bisection; every
    result equals the full grid's (==, no tolerance)."""

    @pytest.mark.parametrize("corollary", [bounds.cor_linear_partial, bounds.cor_1bit_partial])
    @pytest.mark.parametrize(
        "alpha_star,grid_points",
        [(0.1, 2001), (1.0, 50), (0.999, 201), (0.1, 2), (0.1, 3), (0.6, 2), (0.6, 3)],
    )
    def test_sequence_equals_full_grid(self, corollary, alpha_star, grid_points):
        cbs = [md.c_beta_from_snr(snr) for snr in BISECTION_SNRS]
        got = corollary(cbs, 1.0, alpha_star, 0.05, grid_points=grid_points)
        assert got == _full_grid_reference(
            PARTIAL_DENOMS[corollary], cbs, alpha_star, grid_points, 0.05
        )

    @pytest.mark.parametrize("grid_points", [2001, 10**4])
    def test_below_minus_100_db_equals_full_grid(self, grid_points):
        # Psi's grid is not monotone here: it falls to 1e-11 ... 3e-15, so the
        # interval bound needs its absolute slack to keep the argmax
        cbs = [md.c_beta_from_snr(snr) for snr in (-120.0, -115.0, -110.0)]
        for corollary, denom in PARTIAL_DENOMS.items():
            got = corollary(cbs, grid_points=grid_points)
            assert got == _full_grid_reference(denom, cbs, 0.1, grid_points, 0.0)

    @pytest.mark.parametrize(
        "denom",
        [
            # objective 2/cb for every alpha >= 1/2: the first maximum is inside
            lambda a, cb: cb * np.maximum(a / 2.0, 0.25),
            # objective 2/cb for every alpha <= 1/2: the first maximum is alpha*
            lambda a, cb: cb * np.where(a <= 0.5, a / 2.0, a * a),
            # objective 1/cb everywhere
            lambda a, cb: cb * a,
        ],
    )
    @pytest.mark.parametrize("grid_points", [2, 3, 50, 2001])
    def test_exact_ties_keep_the_first_maximum(self, denom, grid_points):
        cbs = [0.5, 1.0, 4.0]  # powers of two keep the tied objectives exact
        got = bounds._maximize_partial((denom,), cbs, 0.1, grid_points, 0.0)
        assert got == (_full_grid_reference(denom, cbs, 0.1, grid_points, 0.0),)

    @pytest.mark.parametrize("grid_points", [3, 50, 2001])
    @pytest.mark.parametrize("cut", [0.1001, 0.3, 0.95])
    @pytest.mark.parametrize("floor", [0.0, 5e-324])
    def test_infinite_ties_keep_the_first_maximum(self, grid_points, cut, floor):
        # D falls from 1e-15 to `floor` at alpha = cut, less than the bound's
        # absolute slack: from there on the ach objective is infinite (the
        # conv one too where 5e-324 overflows it), and the argmax is the
        # first of them, left of the grid's last point
        denom = lambda a, cb: np.where(a < cut, cb * 1e-15, floor)
        alphas = np.linspace(0.1, 1.0, grid_points)
        cbs = [1.0, 2.0]
        want = []
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for cb in cbs:
                dens = denom(alphas, cb)
                ach = np.where(dens > 0, alphas / dens, math.inf)
                conv = np.where(dens > 0, (alphas - 0.1) / dens, 0.0)
                conv[0] = 0.0
                want += [int(np.argmax(ach)), int(np.argmax(conv))]
            assert _bisect_one(denom, cbs, alphas, 0.1).tolist() == want

    @pytest.mark.parametrize("denom", list(PARTIAL_DENOMS.values()), ids=["linear", "1bit"])
    def test_alpha_star_one_evaluates_two_points_per_c_beta(self, denom):
        # every grid point is alpha = 1: the two end points decide both lanes
        cbs = [md.c_beta_from_snr(snr) for snr in (-20.0, 0.0, 10.0, 20.0, 40.0, 60.0)]
        points = []

        def counted(a, cb):
            points.append(np.size(a))
            return denom(a, cb)

        got = _bisect_one(counted, cbs, np.linspace(1.0, 1.0, 2001), 1.0)
        assert got.tolist() == [0] * (2 * len(cbs))
        assert sum(points) <= 2 * len(cbs)


class TestOnePartialSearchPath:
    """A float c_beta is a sequence of one: the same bisection, no grid rows."""

    def test_partial_curves_holds_only_the_coefficients(self):
        assert [f.name for f in fields(bounds.PartialCurves)] == [
            "coef_ach", "coef_conv", "alpha_ach", "alpha_conv"
        ]

    @pytest.mark.parametrize("corollary", list(PARTIAL_DENOMS))
    def test_float_c_beta_is_bisected(self, monkeypatch, corollary):
        lanes = []
        bisect = bounds._bisect_argmax

        def counted(denom, n, alphas, alpha_star):
            lanes.append(n)
            return bisect(denom, n, alphas, alpha_star)

        monkeypatch.setattr(bounds, "_bisect_argmax", counted)
        one = corollary(10.0, grid_points=201)
        assert lanes == [1]
        assert [one] == corollary([10.0], grid_points=201)

    def test_argmax_check_passes(self):
        (result,) = verify.run_checks("partial-argmax-vs-full-grid")
        assert result.passed and result.measured == 0.0, result.detail

    def test_benchmark_op_evaluates_under_a_tenth_of_the_grid(self, monkeypatch, capsys):
        points = []
        bisect = bounds._bisect_argmax

        def counting(denom, n, alphas, alpha_star):
            def counted(a, lanes):
                points.append(np.size(a))
                return denom(a, lanes)

            return bisect(counted, n, alphas, alpha_star)

        monkeypatch.setattr(bounds, "_bisect_argmax", counting)
        argv = ["threshold", "--figure", "partial-recovery", "--snr-db=-20:-10:2"]
        assert cli.main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 6 * 4
        assert 0 < sum(points) < 0.1 * (2 * 6 * 2001)


# SNR ranges of the partial-recovery figure, as the CLI parses them
JOINT_SNRS = ("4:14:2", "-20:-10:2", "40:50:2", "-120:-95:5", "80:80:1")


class TestFigureJointPass:
    """The partial-recovery figure runs every (channel, c_beta) lane through
    one bisection and one golden-section pass; its rows and notes equal what
    the two corollaries give on their own (==, no tolerance)."""

    @staticmethod
    def check(monkeypatch, snrs, alpha_star, sigma, grid_points):
        grid = {"snr_db": cli.parse_range(snrs), "alpha_star": alpha_star, "sigma": sigma,
                "grid_points": grid_points}
        cbs = [md.c_beta_from_snr(snr, sigma) for snr in grid["snr_db"]]
        lin = bounds.cor_linear_partial(cbs, sigma, alpha_star, grid_points=grid_points)
        one = bounds.cor_1bit_partial(cbs, sigma, alpha_star, grid_points=grid_points)
        passes = []
        maximize = bounds._maximize_partial
        monkeypatch.setattr(
            bounds, "_maximize_partial", lambda *args: passes.append(maximize(*args)) or passes[-1]
        )
        rows, notes = bounds.figure_table(bounds.FIG_PARTIAL, grid)
        assert passes == [(lin, one)]  # every PartialCurves field, both channels
        want_rows, want_notes = [], []
        for snr, lc, oc in zip(grid["snr_db"], lin, one):
            for name, res in (("linear", lc), ("1bit", oc)):
                want_rows += [(snr, f"{name}-ach-coef-nats", res.coef_ach),
                              (snr, f"{name}-conv-coef-nats", res.coef_conv)]
            want_notes.append(f"snr={snr:g} linear alpha*={lc.alpha_ach:.4f}/{lc.alpha_conv:.4f} "
                              f"1bit alpha*={oc.alpha_ach:.4f}/{oc.alpha_conv:.4f}")
        assert (rows, notes) == (want_rows, want_notes)

    @pytest.mark.parametrize("sigma", [1.0, 0.7])
    @pytest.mark.parametrize("alpha_star", [0.1, 0.999, 1.0])
    @pytest.mark.parametrize("snrs", JOINT_SNRS)
    def test_equals_separate_corollaries(self, monkeypatch, snrs, alpha_star, sigma):
        self.check(monkeypatch, snrs, alpha_star, sigma, 201)

    @pytest.mark.parametrize("snrs", ["4:14:2", "-120:-95:5"])
    def test_equals_separate_corollaries_at_2001_points(self, monkeypatch, snrs):
        self.check(monkeypatch, snrs, 0.1, 1.0, 2001)

    @pytest.mark.parametrize("snrs, alpha_star", [("-140:-100:20", 0.1), ("-20:-10:2", 1e-5)])
    def test_refusal_names_the_corollary_lane(self, snrs, alpha_star):
        # the 1-bit denominator reaches 0 first; the joint pass names the same
        # alpha and c_beta as the corollary alone
        grid = {"snr_db": cli.parse_range(snrs), "alpha_star": alpha_star, "grid_points": 2001}
        cbs = [md.c_beta_from_snr(snr) for snr in grid["snr_db"]]
        bounds.cor_linear_partial(cbs, alpha_star=alpha_star, grid_points=2001)
        with pytest.raises(nm.NonConvergenceError) as alone:
            bounds.cor_1bit_partial(cbs, alpha_star=alpha_star, grid_points=2001)
        with pytest.raises(nm.NonConvergenceError) as joint:
            bounds.figure_table(bounds.FIG_PARTIAL, grid)
        assert str(joint.value) == str(alone.value)

    def test_linear_lanes_are_checked_first(self):
        # both denominators are 0 at every point: the linear lanes' check runs
        # before the 1-bit denominator is called
        called = []
        lin = lambda a, cb: np.zeros(np.shape(a))
        one = lambda a, cb: called.append(1) or np.zeros(np.shape(a))
        with pytest.raises(nm.NonConvergenceError, match=r"alpha=0.1\d*, c_beta=2:"):
            bounds._maximize_partial((lin, one), [2.0, 3.0], 0.1, 21, 0.0)
        levels = []
        bounds._bisect_argmax(lambda a, lanes: levels.append(1) or np.zeros(np.shape(a)), 2,
                              np.linspace(0.1, 1.0, 21), 0.1)
        assert len(called) == len(levels)  # no golden-section step reached it

    def test_single_denominator_tuple_equals_plain(self):
        denom = functools.partial(bounds.linear_partial_denominator, sigma=1.0)
        cbs = [0.5, 10.0]
        assert bounds._maximize_partial((denom,), cbs, 0.1, 101, 0.0) == (
            bounds.cor_linear_partial(cbs, grid_points=101),
        )
        assert bounds._maximize_partial((denom, denom), 10.0, 0.1, 101, 0.0) == (
            bounds.cor_linear_partial(10.0, grid_points=101),
        ) * 2
        assert bounds._maximize_partial((denom, denom), [], 0.1, 101, 0.0) == ([], [])


class TestCor1BitPartial:
    def test_floor_from_log2(self):
        for cb in (0.1, 10.0, 1e4):
            res = bounds.cor_1bit_partial(cb, grid_points=501)
            assert res.coef_ach >= 0.1 / nm.LOG2 - 1e-12

    def test_low_snr_ratio_is_pi_over_two(self):
        # quantization costs a factor pi/2 at low SNR, mirroring the exact-
        # recovery comparison
        cb = 1e-3
        one = bounds.cor_1bit_partial(cb, grid_points=2001)
        lin = bounds.cor_linear_partial(cb, grid_points=2001)
        assert one.coef_ach / lin.coef_ach == pytest.approx(math.pi / 2.0, rel=0.01)

    def test_saturates_toward_high_snr_limit(self):
        # the binding alpha* objective saturates like 1/sqrt(c_beta)
        c6 = bounds.cor_1bit_partial(1e6, grid_points=2001).coef_ach
        c8 = bounds.cor_1bit_partial(1e8, grid_points=2001).coef_ach
        assert abs(c6 - c8) / c8 < 0.05
        lin6 = bounds.cor_linear_partial(1e6, grid_points=2001).coef_ach
        lin8 = bounds.cor_linear_partial(1e8, grid_points=2001).coef_ach
        assert (lin6 - lin8) / lin6 > 0.20


class TestCorGtNoiseless:
    def test_exact_match_below_third(self):
        for res in bounds.cor_gt_noiseless((0.05, 0.1, 0.2, 1.0 / 3.0)):
            assert abs(res.coef_ach - 1.0 / LN2) < 1e-9
            assert res.nu_star == pytest.approx(LN2, abs=1e-6)

    def test_gap_above_third_vs_grid_oracle(self):
        res = bounds.cor_gt_noiseless(0.5)
        nus = np.linspace(1e-4, 5.0, 10**4)
        oracle = min(
            max(0.5 / (math.exp(-v) * v * 0.5), 1.0 / nm.binary_entropy(math.exp(-v)))
            for v in nus
        )
        assert res.coef_ach == pytest.approx(oracle, rel=1e-4)
        assert res.coef_ach > 1.0 / LN2 + 1e-3

    def test_continuous_nondecreasing_in_theta(self):
        grid = np.linspace(0.02, 0.98, 49)
        vals = [res.coef_ach for res in bounds.cor_gt_noiseless([float(t) for t in grid])]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        # local continuity: shrinking steps shrink the increments
        pairs = [t for theta in (0.2, 0.5, 0.8) for t in (theta, theta + 1e-6)]
        coefs = [res.coef_ach for res in bounds.cor_gt_noiseless(pairs)]
        for f0, f1 in zip(coefs[::2], coefs[1::2]):
            assert abs(f1 - f0) < 1e-3


class TestCorGtNoisy:
    def test_floor_attained_at_small_theta(self):
        for rho in (0.05, 0.11, 0.25):
            res = bounds.cor_gt_noisy(0.01, rho)
            floor = 1.0 / (LN2 - nm.binary_entropy(rho))
            assert abs(res.coef_ach - floor) < 1e-9

    def test_logit_entropy_margin_grid(self):
        for rho in np.arange(0.001, 0.5, 0.001):
            assert bounds.gt_logit_entropy_margin(float(rho)) >= -1e-12

    def test_logit_entropy_spot_value(self):
        lhs = (1 - 0.22) * math.log(0.89 / 0.11)
        rhs = 4 * (LN2 - nm.binary_entropy(0.11))
        assert lhs == pytest.approx(1.631, abs=1e-3)
        assert rhs == pytest.approx(1.386, abs=1e-3)
        assert lhs >= rhs


# log 2 - H2(rho) rounds to 0 at the first and to -1.1e-16 at the second
NEAR_HALF_RHOS = [0.4999999999, 0.4999999939535565]


class TestGtCapacityNearHalf:
    """Both group-testing corollaries divide by log 2 - H2(rho), which rounds
    to 0 or below within about 1e-8 of 0.5: they refuse such a rho by name
    instead of dividing by zero or returning negative coefficients."""

    @pytest.mark.parametrize("rho", NEAR_HALF_RHOS)
    def test_cor_gt_noisy_refuses(self, rho):
        assert nm.LOG2 - nm.binary_entropy(rho) <= 0.0
        with pytest.raises(ValueError, match=rf"^rho={rho!r} is too close to 0\.5"):
            bounds.cor_gt_noisy([0.1, 0.2], rho)

    @pytest.mark.parametrize("rho", NEAR_HALF_RHOS)
    def test_cor_gt_partial_refuses(self, rho):
        with pytest.raises(ValueError, match=rf"^rho={rho!r} is too close to 0\.5"):
            bounds.cor_gt_partial(rho, 0.1)

    def test_every_other_rho_keeps_its_value(self):
        # 0.5 - [1e-16, 1e-6]: each rho is refused or gives the former
        # 1 / (log 2 - H2(rho)), which is then finite and > 0
        refused = 0
        for rho in (0.5 - np.logspace(-16, -6, 2001)).tolist() + [0.0, 0.11, 0.3, 0.49]:
            cap = nm.LOG2 - nm.binary_entropy(rho)
            if not cap > 0.0:
                refused += 1
                with pytest.raises(ValueError, match="too close to 0.5"):
                    bounds.cor_gt_partial(rho, 0.25)
                continue
            a, c = bounds.cor_gt_partial(rho, 0.25)
            assert (a, c) == (1.0 / cap, 0.75 * (1.0 / cap)) and 0.0 < c < a < math.inf
        assert 0 < refused < 2001
        for rho in (0.11, 0.4999, 0.49999999):
            cap = nm.LOG2 - nm.binary_entropy(rho)
            assert bounds.cor_gt_noisy(0.2, rho).coef_conv == 1.0 / cap


class TestCorGtPartial:
    def test_refusal_names_rho(self):
        for rho in (0.6, -0.1, float("nan")):
            with pytest.raises(ValueError, match=rf"^rho must lie in \[0, 0\.5\), got {rho!r}$"):
                bounds.cor_gt_partial(rho, 0.1)
            with pytest.raises(ValueError, match=rf"^rho must lie in \(0, 0\.5\), got {rho!r}$"):
                bounds.cor_gt_noisy(0.2, rho)

    def test_alpha_star_zero(self):
        a, c = bounds.cor_gt_partial(0.11, 0.0)
        assert a == pytest.approx(c)

    def test_noiseless_values(self):
        a, c = bounds.cor_gt_partial(0.0, 0.25)
        assert a == pytest.approx(1.0 / LN2)
        assert c == pytest.approx(0.75 / LN2)

    def test_ratio_exact(self):
        for a_star in (0.1, 0.3, 0.7):
            a, c = bounds.cor_gt_partial(0.11, a_star)
            assert c / a == pytest.approx(1.0 - a_star, rel=1e-12)


class TestGeneralDiscreteConverse:
    def test_eps_limit_recovers_plain_converse(self):
        m = md.ModelSpec.group_testing(rho=0.11)
        dims = md.ProblemDims(p=10**6, k=100, n=0)
        n_fix = bounds.cor_general_discrete_converse(m, None, dims, 2, delta1=0.01, eps=1e18)
        plain = bounds.converse_threshold_generic(
            m, None, dims, bounds.BoundOptions(delta1=0.01)
        ).n_conv
        assert n_fix == pytest.approx(plain, rel=1e-6)

    def test_additive_term_scales_as_inverse_sqrt(self):
        term = lambda eps, n: math.sqrt(2.0 / (n * eps))
        assert term(0.005, 777.0) / term(0.01, 777.0) == pytest.approx(math.sqrt(2.0))

    def test_fixed_point_consistency(self):
        m = md.ModelSpec.group_testing(rho=0.11)
        dims = md.ProblemDims(p=10**6, k=100, n=0)
        n = bounds.cor_general_discrete_converse(m, None, dims, 2, delta1=0.01, eps=0.01)
        mi = {
            ell: info.gt_mi_closed_form(LN2, 100, ell, 0.11) for ell in range(1, 101)
        }
        extra = math.sqrt(2.0 / (n * 0.01))
        rhs = max(
            (nm.log_binomial(dims.p - 100 + ell, ell) - math.log(0.01)) / (mi[ell] + extra)
            for ell in mi
        )
        assert n == pytest.approx(rhs, rel=1e-6)


class TestFigureCurves:
    def test_gt_noiseless_rates(self):
        thetas = [0.05 * i for i in range(1, 20)]
        rows = bounds.figure_curves(bounds.FIG_GT_NOISELESS, {"theta": thetas})
        ach = {x: y for x, c, y in rows if c == "ach-rate-log2"}
        conv = {x: y for x, c, y in rows if c == "conv-rate-log2"}
        assert all(y == pytest.approx(1.0, abs=1e-9) for x, y in ach.items() if x <= 1 / 3)
        assert all(y == pytest.approx(1.0, abs=1e-12) for y in conv.values())
        beyond = sorted((x, y) for x, y in ach.items() if x > 1 / 3 + 1e-9)
        assert all(b < a - 1e-6 for (_, a), (_, b) in zip(beyond, beyond[1:]))

    def test_partial_recovery_rows_and_high_snr_ratio(self):
        rows = bounds.figure_curves(
            bounds.FIG_PARTIAL,
            {"snr_db": [40.0], "alpha_star": 0.1, "sigma": 1.0, "grid_points": 2001},
        )
        assert len(rows) == 4
        vals = {c: y for _, c, y in rows}
        assert vals["linear-ach-coef-nats"] / vals["linear-conv-coef-nats"] == pytest.approx(
            1.11, abs=0.01
        )

    def test_gt_noisy_converse_rate(self):
        rows = bounds.figure_curves(
            bounds.FIG_GT_NOISY, {"theta": [0.05], "rho": [0.11]}
        )
        conv = [y for _, c, y in rows if c.startswith("conv")][0]
        expect = 1.0 - nm.binary_entropy(0.11) / LN2
        assert conv == pytest.approx(expect, abs=1e-12)
        assert conv == pytest.approx(0.5001, abs=2e-4)

    def test_unknown_figure(self):
        for figure_fn in (bounds.figure_curves, bounds.figure_table):
            with pytest.raises(ValueError, match="unknown figure 'nope'"):
                figure_fn("nope", {})

    @pytest.mark.parametrize(
        "figure,grid,n_notes",
        [
            (bounds.FIG_GT_NOISELESS, {"theta": [0.1, 0.3, 0.5]}, 6),
            (bounds.FIG_GT_NOISY, {"theta": [0.1, 0.3, 0.5], "rho": [0.05, 0.11]}, 6),
            (bounds.FIG_PARTIAL,
             {"snr_db": [-10.0, 0.0, 20.0], "alpha_star": 0.1, "sigma": 1.0, "grid_points": 51}, 3),
        ],
    )
    def test_table_rows_are_the_curves(self, figure, grid, n_notes):
        # one note per noiseless row, per (theta, rho) and per SNR
        rows, notes = bounds.figure_table(figure, grid)
        assert rows == bounds.figure_curves(figure, grid)
        assert len(notes) == n_notes and all(isinstance(line, str) for line in notes)

    def test_coefficients_match_dense_grid_check(self):
        (result,) = verify.run_checks("partial-coef-vs-dense-grid")
        assert result.passed and result.tolerance == 1e-8, result.detail

    def test_vanishing_denominator_raises_naming_c_beta(self):
        # Psi's two expectations cancel to 0.0 at c_beta = 1e-14 (-140 dB)
        with pytest.raises(nm.NonConvergenceError, match="c_beta=1e-14"):
            bounds.cor_1bit_partial(1e-14, grid_points=21)
        with pytest.raises(nm.NonConvergenceError, match="c_beta=1e-14"):
            bounds.cor_1bit_partial([1.0, 1e-14], grid_points=21)


class TestMatchedPairInvariant:
    def test_generic_ach_dominates_conv(self):
        m = md.ModelSpec.group_testing(rho=0.0, nu=LN2)
        for p, k in ((10**4, 10), (10**6, 30)):
            dims = md.ProblemDims(p=p, k=k, n=0)
            ach = bounds.achievability_threshold_generic(m, None, dims)
            conv = bounds.converse_threshold_generic(m, None, dims)
            assert ach.n_ach >= conv.n_conv


# every public entry point that takes the slack eta, called at a cheap input
ETA_TAKERS = {
    "BoundOptions": lambda eta: bounds.BoundOptions(eta=eta),
    "cor_linear_exact": lambda eta: bounds.cor_linear_exact([1.0, 1.0, 1.0], 1.0, 50, 3, eta=eta),
    "cor_linear_partial": lambda eta: bounds.cor_linear_partial(10.0, eta=eta, grid_points=50),
    "cor_1bit_exact_lowsnr": lambda eta: bounds.cor_1bit_exact_lowsnr(
        [1.0, 1.0, 1.0], 1.0, 3, 3, eta=eta
    ),
    "cor_1bit_highsnr_converse": lambda eta: bounds.cor_1bit_highsnr_converse(
        0.1, 1.0, 1000, 500, eta=eta
    ),
    "cor_1bit_partial": lambda eta: bounds.cor_1bit_partial(10.0, eta=eta, grid_points=50),
    "cor_gt_noiseless": lambda eta: bounds.cor_gt_noiseless(0.3, eta=eta),
    "cor_gt_noisy": lambda eta: bounds.cor_gt_noisy(0.3, 0.11, eta=eta),
    "cor_gt_partial": lambda eta: bounds.cor_gt_partial(0.11, 0.1, eta=eta),
}


class TestEtaRange:
    @pytest.mark.parametrize("eta", [1.0, 1.5, -0.1, float("nan")])
    @pytest.mark.parametrize("name", sorted(ETA_TAKERS))
    def test_outside_unit_interval_refused(self, name, eta):
        with pytest.raises(ValueError, match="eta"):
            ETA_TAKERS[name](eta)

    @pytest.mark.parametrize("eta", [0.0, 0.5])
    @pytest.mark.parametrize("name", sorted(ETA_TAKERS))
    def test_inside_accepted(self, name, eta):
        ETA_TAKERS[name](eta)

    def test_reported_cases_now_refused(self):
        dims = md.ProblemDims(p=50, k=3)
        for b, eta in (([0.0, 0.0, 1.0], 1.0), ([1.0, 1.0, 1.0], 1.5)):
            with pytest.raises(ValueError, match="eta"):
                bounds.converse_threshold_generic(
                    md.ModelSpec.linear(1.0), b, dims, bounds.BoundOptions(eta=eta)
                )
        with pytest.raises(ValueError, match="eta"):
            bounds.cor_1bit_exact_lowsnr([1, 1, 1], 1.0, 3, 3, eta=2)

    def test_converse_scales_by_one_minus_eta(self):
        m, dims = md.ModelSpec.linear(1.0), md.ProblemDims(p=50, k=3)
        full = bounds.converse_threshold_generic(m, [1.0, 1.0, 1.0], dims).n_conv
        half = bounds.converse_threshold_generic(
            m, [1.0, 1.0, 1.0], dims, bounds.BoundOptions(eta=0.5)
        ).n_conv
        assert half == full * 0.5 > 0.0


NAN = float("nan")


class TestBoundOptionsRange:
    @pytest.mark.parametrize(
        "field,value",
        [("delta1", v) for v in (0.0, -0.1, 1.5, NAN)]
        + [("delta2", v) for v in (1.0, 1.5, -0.1, NAN)]
        + [("delta0", v) for v in (0.0, -1.0, NAN)]
        + [("remainder_target", v) for v in (0.0, -0.5, 1.5, NAN)],
    )
    def test_outside_range_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            bounds.BoundOptions(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [("delta1", 1.0), ("delta1", 1e-9), ("delta2", 0.0), ("delta2", 0.99),
         ("delta0", 1e-9), ("remainder_target", None), ("remainder_target", 1.0)],
    )
    def test_inside_accepted(self, field, value):
        bounds.BoundOptions(**{field: value})


def _threshold_paths():
    """The calls that take delta1 without BoundOptions or DecoderSpec."""
    gt, pr = md.ModelSpec.group_testing(0.0), md.SignalPrior.all_ones()
    dims = md.ProblemDims(p=6, k=2, n=4)
    x, y = np.zeros((4, 6)), np.zeros(4)
    return {
        "decode_threshold": lambda d1: sim.decode_threshold(x, y, gt, pr, dims, d1),
        "threshold_union_bound": lambda d1: sim.threshold_union_bound(gt, pr, dims, d1, trials=2),
        "cor_general_discrete_converse": lambda d1: bounds.cor_general_discrete_converse(
            gt, None, dims, 2, delta1=d1
        ),
    }


class TestDelta1Range:
    # the numerators refuse delta1 outside (0, 1]: before, 0 divided by
    # zero, NaN gave "none" or a NaN bound, and 2 was taken silently
    @pytest.mark.parametrize("delta1", [0.0, -1.0, NAN, 2.0])
    @pytest.mark.parametrize("path", sorted(_threshold_paths()))
    def test_outside_range_refused(self, path, delta1):
        with pytest.raises(ValueError, match=r"delta1 must lie in \(0, 1\]"):
            _threshold_paths()[path](delta1)

    @pytest.mark.parametrize("delta1", [0.0, -1.0, NAN, 2.0])
    def test_decoder_spec_refuses_in_the_same_words(self, delta1):
        with pytest.raises(ValueError) as spec_err:
            sim.DecoderSpec(kind="threshold", delta1=delta1)
        with pytest.raises(ValueError) as options_err:
            bounds.BoundOptions(delta1=delta1)
        with pytest.raises(ValueError) as bound_err:
            bounds._check_delta1(delta1)
        assert str(spec_err.value) == str(options_err.value) == str(bound_err.value)


class TestEntryVectorRefused:
    """Entry vectors that broke the generic thresholds' numbers silently (a
    split of the wrong length, inf or NaN counts, an overflowed tail family)
    end in one ValueError line; finite terms near the edge still solve."""

    DIMS = md.ProblemDims(p=100, k=2)

    @pytest.mark.parametrize("b, message", [
        ([1.0, 2.0, 3.0], r"b needs k = 2 finite entries"),
        ([NAN, 1.0], r"b needs k = 2 finite entries"),
        ([1e200, 1.0], r"the tail terms at ell = 2 are not finite"),
        ([1.2e154, 1.0], r"the tail terms at ell = 2 are not finite"),
        ([1e154, 1e154], r"the tail terms at ell = 1 are not finite"),
    ])
    def test_achievability(self, b, message):
        with pytest.raises(ValueError, match=message) as err:
            bounds.achievability_threshold_generic(md.ModelSpec.linear(1.0), b, self.DIMS)
        assert "\n" not in str(err.value)

    # the converse-side bounds, which read an infinite I_ell as a ratio of 0
    CONVERSE_SIDE = {
        "converse": lambda b, dims: bounds.converse_threshold_generic(
            md.ModelSpec.linear(1.0), b, dims),
        "fano": lambda b, dims: bounds.fano_lower_bound(
            md.ModelSpec.linear(1.0), b, md.ProblemDims(p=dims.p, k=dims.k, n=5), 0.5),
        "discrete-converse": lambda b, dims: bounds.cor_general_discrete_converse(
            md.ModelSpec.linear(1.0), b, dims, 2),
    }
    ENTRIES = [
        ([1.0, 2.0, 3.0], r"b needs k = 2 finite entries"),
        ([1.0], r"b needs k = 2 finite entries"),
        ([NAN, 1.0], r"b needs k = 2 finite entries"),
        ([1.0, -math.inf], r"b needs k = 2 finite entries"),
        ([1e154, 1e154], r"the mutual information at ell = 2 is not finite"),
    ]

    @pytest.mark.parametrize("bound, b, message", [
        (bound, *entry) for bound, entry in itertools.product(sorted(CONVERSE_SIDE), ENTRIES)
    ] + [
        # the min-info partitions reach 1e200 at ell = 2, fano's max-info ones at ell = 1
        ("converse", [1e200, 1.0], r"the mutual information at ell = 2 is not finite"),
        ("discrete-converse", [1e200, 1.0], r"the mutual information at ell = 2 is not finite"),
        ("fano", [1e200, 1.0], r"the mutual information at ell = 1 is not finite"),
    ])
    def test_converse(self, bound, b, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message) as err:
                self.CONVERSE_SIDE[bound](b, self.DIMS)
        assert "\n" not in str(err.value)

    def test_terms_near_the_edge_still_solve(self):
        m = md.ModelSpec.linear(1.0)
        res = bounds.achievability_threshold_generic(m, [9e153, 1.0], self.DIMS)
        assert (res.n_ach, res.remainder_n) == (pytest.approx(61.09, abs=0.01), 6524.0)


class TestBeyondInt64:
    # log C(p - k + l, l) is taken on int64: before, the achievability at
    # this p read a numerator of 18.21 at ell = 1, where log C(p - k, 1)
    # alone is 43.7, and the converse raised OverflowError
    @pytest.mark.parametrize("bound", [
        bounds.achievability_threshold_generic, bounds.converse_threshold_generic
    ])
    def test_generic_thresholds_refuse_p(self, bound):
        with pytest.raises(ValueError, match=r"p < 2\*\*63 - 1, got k=3, p=9223372036854775818") as err:
            bound(md.ModelSpec.group_testing(), None, md.ProblemDims(p=2**63 + 10, k=3))
        assert "\n" not in str(err.value)


class TestNoWrongSupport:
    """p = k: the true support is the only k-subset, so every threshold that
    counts wrong supports is 0 with no binding ell."""

    @pytest.mark.parametrize(
        "model, b",
        [
            (md.ModelSpec.linear(1.0), [1.0, 1.0, 1.0]),
            (md.ModelSpec.one_bit(0.5), [1.0, -0.5, 2.0]),
            (md.ModelSpec.group_testing(0.11), None),
        ],
    )
    def test_generic_thresholds(self, model, b):
        dims = md.ProblemDims(p=3, k=3)
        ach = bounds.achievability_threshold_generic(model, b, dims)
        conv = bounds.converse_threshold_generic(model, b, dims)
        assert (ach.n_ach, ach.binding, ach.breakdown, ach.remainder_n) == (0.0, None, (), None)
        assert (conv.n_conv, conv.binding, conv.breakdown) == (0.0, None, ())

    def test_options_do_not_change_it(self):
        m, dims = md.ModelSpec.linear(1.0), md.ProblemDims(p=3, k=3, d_max=1)
        opts = bounds.BoundOptions(asymptotic=True, eta=0.5, remainder_target=1e-3)
        assert bounds.achievability_threshold_generic(m, [1.0, 1.0, 1.0], dims, opts).n_ach == 0.0
        assert bounds.converse_threshold_generic(m, [1.0, 1.0, 1.0], dims, opts).n_conv == 0.0

    def test_cor_linear_exact(self):
        res = bounds.cor_linear_exact([1.0, 1.0, 1.0], 1.0, 3, 3)
        assert (res.n_ach, res.n_conv, res.binding, res.breakdown) == (0.0, 0.0, None, ())

    def test_wrong_supports_give_positive_counts(self):
        res = bounds.cor_linear_exact([1.0, 1.0, 1.0], 1.0, 6, 3)
        assert res.n_ach > 0.0 and res.n_conv > 0.0 and res.binding is not None

    def test_fano(self):
        dims = md.ProblemDims(p=3, k=3, n=5)
        pe, region = bounds.fano_lower_bound(md.ModelSpec.linear(1.0), [1.0, 1.0, 1.0], dims, 0.5)
        assert (pe, region.boundary_n) == (0.0, 0.0)

    def test_general_discrete_converse(self):
        m, dims = md.ModelSpec.group_testing(0.11), md.ProblemDims(p=3, k=3)
        assert bounds.cor_general_discrete_converse(m, None, dims, 2) == 0.0


class TestFewWrongSupports:
    """k < p < 2k: a wrong support shares at least 2k - p entries with the
    true one, so the achievability rows stop at ell = p - k."""

    @pytest.mark.parametrize(
        "model, b",
        [
            (md.ModelSpec.linear(1.0), [1.0, 1.0, 1.0]),
            (md.ModelSpec.one_bit(0.5), [1.0, -0.5, 2.0]),
            (md.ModelSpec.group_testing(0.11), None),
        ],
    )
    @pytest.mark.parametrize("p", [4, 5])
    def test_generic_achievability_rows(self, model, b, p):
        dims = md.ProblemDims(p=p, k=3)
        res = bounds.achievability_threshold_generic(model, b, dims)
        assert [row[0] for row in res.breakdown] == list(range(1, p - 3 + 1))
        assert math.isfinite(res.n_ach) and res.remainder_n is not None
        full = bounds.achievability_threshold_generic(model, b, md.ProblemDims(p=6, k=3))
        assert [row[0] for row in full.breakdown] == [1, 2, 3]

    def test_generic_rows_match_the_formula(self):
        m, b, dims = md.ModelSpec.linear(1.0), [1.0, 1.0, 1.0], md.ProblemDims(p=5, k=3)
        res = bounds.achievability_threshold_generic(m, b, dims)
        for ell, num, mi, ratio in res.breakdown:
            part = md.min_info_partition(b, ell)
            expect = nm.log_binomial(2, ell) + 2 * math.log(3 / 1e-3) + 2 * nm.log_binomial(3, ell)
            assert (num, mi) == (expect, info.mutual_information(m, part, b))
            assert ratio == num / mi
        assert res.n_ach == max(row[3] for row in res.breakdown)

    def test_every_wrong_support_within_d_max(self):
        dims = md.ProblemDims(p=4, k=3, d_max=1)
        res = bounds.achievability_threshold_generic(md.ModelSpec.linear(1.0), [1.0, 1.0, 1.0], dims)
        assert (res.n_ach, res.binding, res.breakdown, res.remainder_n) == (0.0, None, (), None)

    @pytest.mark.parametrize("p", [4, 5])
    def test_cor_linear_exact(self, p):
        res = bounds.cor_linear_exact([1.0, 1.0, 1.0], 1.0, p, 3)
        assert [row[0] for row in res.breakdown] == list(range(1, p - 3 + 1))
        mi = lambda ell: 0.5 * math.log1p(ell)
        assert res.n_ach == max(nm.log_binomial(p - 3, l) / mi(l) for l in range(1, p - 3 + 1))
        assert res.n_conv == max(nm.log_binomial(p - 3 + l, l) / mi(l) for l in range(1, 4))


class TestThresholdsNeverReadTheVariance:
    """The thresholds need the mutual information per ell and nothing else:
    with the 1-bit density variance made to raise, they still give their
    recorded outputs."""

    @staticmethod
    def _workloads():
        import importlib.util
        import sys
        from pathlib import Path

        name = "perfbench_workloads"
        if name not in sys.modules:
            path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
            spec = importlib.util.spec_from_file_location(name, path)
            sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(sys.modules[name])
        return sys.modules[name]

    @pytest.fixture(autouse=True)
    def _variance_raises(self, monkeypatch):
        from support_limits import channels

        def raise_(*args):
            raise AssertionError("a bound evaluated the density variance")

        monkeypatch.setattr(channels.OneBit, "variance", raise_)

    def test_one_bit_thresholds_and_tiny_operations_match_references(self):
        wl = self._workloads()
        refs = wl.load_references()
        ops = [
            op for op in wl.operations("thresholds", 0)
            if op.args[1] == "one-bit" and op.args[2] in (3, 8) and op.args[3] in (10**4, 10**9)
        ]
        assert len(ops) == 8
        for op in ops + wl.operations("thresholds", 0, tiny=True):
            assert wl.execute(op) == refs[op.key], op.key

    @pytest.mark.parametrize("k", [3, 8])
    @pytest.mark.parametrize("p", [10**4, 10**9])
    def test_fano(self, k, p):
        b = self._workloads()._bvec(k)
        pe, region = bounds.fano_lower_bound(md.ModelSpec.one_bit(1.0), b, md.ProblemDims(p, k, 1), 0.5)
        assert pe > 0.0 and math.isfinite(region.boundary_n)


class TestGroupTestingBuildsNoPartition:
    """A group-testing generic threshold reads only k and the ells of its
    min-info sequence: it makes no partition and builds no position tuple.
    The linear channel, which reads the positions, shows that the counts
    see them."""

    @pytest.fixture
    def built(self, monkeypatch):
        counts = {"split": 0, "checked": 0}
        split_of, post_init = md.Partition._split_of.__func__, md.Partition.__post_init__

        def counting(key, real):
            def wrapper(*args):
                counts[key] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(md.Partition, "_split_of", classmethod(counting("split", split_of)))
        monkeypatch.setattr(md.Partition, "__post_init__", counting("checked", post_init))
        return counts

    @pytest.mark.parametrize("rho", [0.0, 0.11])
    @pytest.mark.parametrize("fn", [bounds.achievability_threshold_generic,
                                    bounds.converse_threshold_generic], ids=["ach", "conv"])
    def test_group_testing(self, built, rho, fn):
        res = fn(md.ModelSpec.group_testing(rho=rho), None, md.ProblemDims(p=10**6, k=100))
        assert len(res.breakdown) == 100
        assert built == {"split": 0, "checked": 0}

    def test_linear_reads_positions(self, built):
        b = [0.5, -1.0, 1.5, -2.0, 0.5]
        bounds.achievability_threshold_generic(md.ModelSpec.linear(1.0), b, md.ProblemDims(p=10**4, k=5))
        assert built == {"split": 5, "checked": 0}


class TestOnePassOverTheEllFacts:
    """A generic threshold reads every ell's facts in one pass: one mutual
    information call (one closed-form call for group testing), and a
    remainder solve that sums per-ell rows and calls no TailBoundSpec.psi.
    The Fano baseline reads its max-info partitions in one call too."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from support_limits import channels, conc

        counts = {"mi": 0, "gt": 0, "psi": 0}

        def counting(key, real):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(bounds, "mutual_information", counting("mi", bounds.mutual_information))
        monkeypatch.setattr(channels, "gt_mi_closed_form", counting("gt", channels.gt_mi_closed_form))
        monkeypatch.setattr(conc.TailBoundSpec, "psi", counting("psi", conc.TailBoundSpec.psi))
        return counts

    CASES = [
        (md.ModelSpec.group_testing(rho=0.0), None, 100),
        (md.ModelSpec.group_testing(rho=0.11), None, 50),
        (md.ModelSpec.linear(1.0), [0.5, -1.0, 1.5, -2.0, 0.5], 5),
        (md.ModelSpec.one_bit(1.0), [0.5, -1.0, 1.5, -2.0, 0.5, -1.0, 1.5, -2.0], 8),
    ]

    @pytest.mark.parametrize("model,b,k", CASES, ids=["gt", "gt-noisy", "linear", "one-bit"])
    @pytest.mark.parametrize("fn", [bounds.achievability_threshold_generic,
                                    bounds.converse_threshold_generic], ids=["ach", "conv"])
    def test_one_call_per_threshold(self, counts, model, b, k, fn):
        for p in (10**4, 10**6):
            res = fn(model, b, md.ProblemDims(p=p, k=k, n=0))
            assert res.breakdown
        gt = model.channel == "group-testing"
        assert counts == {"mi": 2, "gt": 2 if gt else 0, "psi": 0}

    @pytest.mark.parametrize("model,b,k", CASES, ids=["gt", "gt-noisy", "linear", "one-bit"])
    def test_one_call_per_fano_bound(self, counts, model, b, k):
        bounds.fano_lower_bound(model, b, md.ProblemDims(p=10**4, k=k, n=0), delta2=0.5)
        gt = model.channel == "group-testing"
        assert counts == {"mi": 1, "gt": 1 if gt else 0, "psi": 0}


def _scalar_cor_linear_exact(b, sigma, p, k, eta):
    """cor_linear_exact as it was: a sort and two 0-d log_binomial calls per ell."""
    b = np.asarray(b, dtype=float)
    rows, conv = [], []
    for ell in range(1, k + 1):
        s_sq = float(np.sum(np.sort(b**2)[:ell]))
        mi = 0.5 * math.log1p(s_sq / sigma**2)
        if ell <= p - k:
            rows.append(bounds._ratio_row(ell, nm.log_binomial(p - k, ell), mi))
        conv.append(bounds._ratio_row(ell, nm.log_binomial(p - k + ell, ell), mi))
    return bounds._corollary_result(rows, conv, eta)


def _scalar_cor_1bit_exact_lowsnr(b, sigma, p, k, eta):
    """cor_1bit_exact_lowsnr as it was: a sort per ell."""
    b = np.asarray(b, dtype=float)
    rows = []
    for ell in range(1, k + 1):
        s_sq = float(np.sum(np.sort(b**2)[:ell]))
        rows.append(bounds._ratio_row(ell, ell * math.log(p), s_sq / (math.pi * sigma**2)))
    return bounds._corollary_result(rows, rows, eta)


def _scalar_fano_boundary(model, b, dims, delta2):
    """fano_lower_bound's boundary as it was: one 0-d log_binomial call per ell."""
    k, p = dims.k, dims.p
    b = np.asarray(b, dtype=float)
    boundary = math.inf
    for ell in range(1, k + 1):
        mi = info.finite_mi(ell, info.mutual_information(model, md.max_info_partition(b, ell), b))
        if mi <= 0.0:
            continue
        boundary = min(boundary, nm.log_binomial(p - k + ell, ell) * (1.0 - delta2) / mi)
    return boundary


class TestArrayBinomialsEqualScalarCalls:
    """The exact corollaries and Fano's boundary take one array log_binomial
    call per binomial; every value equals the per-ell 0-d calls (==)."""

    # p - k above, at and below k; n = p - k + ell near 2**40 and 1e15
    PK = [(10, 3), (8, 4), (7, 5), (6, 5), (10**9, 8), (2**40, 2), (10**15, 9)]

    @staticmethod
    def entries(k):
        # distinct magnitudes and a zero; at k = 9 np.sum adds nine entries
        # in its unrolled order, not as a running sum
        return np.random.default_rng(k).normal(size=k).tolist()[:-1] + [0.0]

    @pytest.mark.parametrize("p,k", PK)
    def test_exact_corollaries(self, p, k):
        b = self.entries(k)
        for sigma, eta in ((1.0, 0.0), (0.3, 0.1)):
            assert bounds.cor_linear_exact(b, sigma, p, k, eta) == (
                _scalar_cor_linear_exact(b, sigma, p, k, eta))
            assert bounds.cor_1bit_exact_lowsnr(b, sigma, p, k, eta) == (
                _scalar_cor_1bit_exact_lowsnr(b, sigma, p, k, eta))

    @pytest.mark.parametrize("p,k", PK)
    @pytest.mark.parametrize("model", [md.ModelSpec.linear(0.7), md.ModelSpec.one_bit(1.0)],
                             ids=["linear", "one-bit"])
    def test_fano_boundary(self, p, k, model):
        b, dims = self.entries(k), md.ProblemDims(p=p, k=k, n=3)
        _, region = bounds.fano_lower_bound(model, b, dims, 0.5)
        assert region.boundary_n == _scalar_fano_boundary(model, b, dims, 0.5)
