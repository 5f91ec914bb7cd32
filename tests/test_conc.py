import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from support_limits import bounds, conc, info, verify
from support_limits.channels import CHANNELS, GROUP_TESTING, LINEAR, ONE_BIT
from support_limits import model as md

LN2 = math.log(2.0)


def _tail(terms, n):
    return conc.tail(*terms, n)


def _gt_families(nu, k, rho, d2_small, d2_large, eps, mi=None):
    """(small, large, cut) of group testing with free constants: Chernoff or
    Bennett up to cut = floor(k/log k), discrete Bernstein above, over the
    map mi (the closed-form MI when None)."""
    cut = int(k / math.log(k)) if k >= 3 else 1
    if rho == 0.0:
        small = lambda ell: conc.chernoff_gt_terms(nu, k, ell, d2_small, eps)
    else:
        small = lambda ell: conc.bennett_gt_noisy_terms(nu, rho, k, ell, d2_small, eps)
    if mi is None:
        large = lambda ell: conc.bernstein_discrete_terms(
            info.gt_mi_closed_form(nu, k, ell, rho), 2, d2_large
        )
    else:
        large = lambda ell: conc.bernstein_discrete_terms(mi[ell], 2, d2_large)
    return small, large, cut


def _gt_spec(nu, k, rho=0.0, d2_small=0.9, d2_large=0.1, eps=0.05):
    """The group-testing spec with free constants, built as the channel's."""
    small, large, cut = _gt_families(nu, k, rho, d2_small, d2_large, eps)
    return conc.TailBoundSpec(lambda ell: small(ell) if ell <= cut else large(ell))


class _RangeSpec:
    """The reference form of a tail spec, as the channels once returned it in
    a list: one family over ell_lo <= ell <= ell_hi (ell_hi None: no upper
    end), an ell taking the first spec of the list that covers it."""

    def __init__(self, terms, ell_lo=1, ell_hi=None):
        self.terms, self.ell_lo, self.ell_hi = terms, ell_lo, ell_hi

    def covers(self, ell):
        return ell >= self.ell_lo and (self.ell_hi is None or ell <= self.ell_hi)

    def psi(self, ell, n):
        return conc.tail(*self.terms(ell), n)


def _gt_ranges(nu, k, rho=0.0, d2_small=0.9, d2_large=0.1, eps=0.05, mi=None):
    """The group-testing pair of range specs, split at the cut."""
    small, large, cut = _gt_families(nu, k, rho, d2_small, d2_large, eps, mi)
    return [_RangeSpec(small, ell_hi=cut), _RangeSpec(large, ell_lo=cut + 1)]


def _ranges(spec):
    """A one-family spec's reference form: one range over every ell."""
    return [_RangeSpec(spec.terms)]


def _reference_specs(model, b, dims):
    """The channel's tail families in the reference form, written out as the
    channels stated them before each returned one spec."""
    parts, mi_map = bounds._per_ell_mi(model, b, dims)
    if model.channel == GROUP_TESTING:
        return _gt_ranges(model.nu, dims.k, model.rho, mi=mi_map)
    if model.channel == ONE_BIT:
        return [_RangeSpec(lambda ell: conc.bernstein_discrete_terms(mi_map[ell], 2, 0.5))]
    b = np.asarray(b, dtype=float)
    energy = lambda ell: float(np.sum(b[parts[ell - 1].dif_index()] ** 2))
    return [_RangeSpec(lambda ell: conc.bernstein_linear_terms(energy(ell), model.sigma, 0.5))]


class TestChebyshev:
    def test_zero_variance(self):
        assert conc.psi_chebyshev(1.0, 0.0, 100, 0.5) == 0.0

    def test_direct_value(self):
        assert conc.psi_chebyshev(1.0, 1.0, 100, 1.0) == pytest.approx(0.01)

    def test_clipped_to_one(self):
        assert conc.psi_chebyshev(0.1, 50.0, 3, 0.5) == 1.0


class TestVarianceCap:
    def test_binary_value(self):
        assert conc.variance_cap_discrete(2) == pytest.approx(2 * (4 / math.e) ** 2)
        assert conc.variance_cap_discrete(2) == pytest.approx(4.330, abs=1e-3)

    def test_linear_in_alphabet(self):
        assert conc.variance_cap_discrete(6) == pytest.approx(3 * conc.variance_cap_discrete(2))

    def test_gt_variances_below_cap(self):
        cap = conc.variance_cap_discrete(2)
        for k in (4, 8):
            for ell in (1, k // 2, k):
                for rho in (0.0, 0.11, 0.25):
                    part = md.min_info_partition([1.0] * k, ell)
                    v = info.density_variance(md.ModelSpec.group_testing(rho=rho), part)
                    assert v <= cap


class TestBernsteinDiscrete:
    def test_direct_value(self):
        # delta2 I = 1, |Y| = 2, n = 1000
        assert _tail(conc.bernstein_discrete_terms(2.0, 2, 0.5), 1000) == pytest.approx(
            2 * math.exp(-1000 / 36), rel=1e-12
        )

    def test_decreasing_to_zero(self):
        terms = conc.bernstein_discrete_terms(0.5, 2, 0.5)
        vals = [_tail(terms, n) for n in (10, 100, 1000, 10**5)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-6


class TestBernsteinLinear:
    def test_degenerate_dif(self):
        assert _tail(conc.bernstein_linear_terms(0.0, 1.0, 0.5), 100) == 0.0

    def test_alpha_at_equal_scales(self):
        # s = sigma gives alpha = 2 s (s + s) / (2 s^2) = 2, so den = 2 (16 + 2 d)
        for s, sigma in ((1.0, 1.0), (3.0, 3.0)):
            _, q, den = conc.bernstein_linear_terms(s * s, sigma, 0.5)
            d = math.sqrt(q)
            assert d == pytest.approx(0.5 * 0.5 * math.log(2.0), rel=1e-12)
            assert den == pytest.approx(2.0 * (16.0 + 2.0 * d), rel=1e-12)

    def test_formula_assembly(self):
        n, d2 = 2000, 0.4  # b_dif = 1, sigma = 1
        a = 2.0 * 1.0 * (1.0 + 1.0) / (1.0 + 1.0)
        I = 0.5 * math.log1p(1.0)
        d = d2 * I
        expect = 2 * math.exp(-(d * d) * n / (2 * (4 * a * a + d * a)))
        assert expect < 1.0
        got = _tail(conc.bernstein_linear_terms(1.0, 1.0, d2), n)
        assert got == pytest.approx(expect, rel=1e-12)


class TestChernoffGt:
    def test_small_delta_limit(self):
        assert _tail(conc.chernoff_gt_terms(LN2, 100, 1, 1e-9, 0.05), 10**4) == pytest.approx(
            1.0, abs=1e-4
        )

    def test_direct_arithmetic(self):
        nu, k, ell, d2, eps, n = LN2, 100, 1, 0.9, 0.1, 10**4
        h = 0.1 * math.log(0.1) + 0.9
        expect = math.exp(-n * (ell / k) * math.exp(-nu) * nu * h * (1 - eps))
        assert _tail(conc.chernoff_gt_terms(nu, k, ell, d2, eps), n) == pytest.approx(
            expect, rel=1e-12
        )

    def test_log_linear_in_ell(self):
        b1 = _tail(conc.chernoff_gt_terms(LN2, 100, 1, 0.9, 0.05), 500)
        b2 = _tail(conc.chernoff_gt_terms(LN2, 100, 2, 0.9, 0.05), 500)
        assert math.log(b2) / math.log(b1) == pytest.approx(2.0, rel=1e-9)


class TestBennettGtNoisy:
    def test_pure_noise_limit(self):
        assert _tail(conc.bennett_gt_noisy_terms(LN2, 0.4999, 100, 2, 0.9, 0.05), 10**5) > 0.99

    def test_shared_prefactor_with_chernoff(self):
        # both exponents scale linearly in (ell/k) e^-nu nu
        b1 = _tail(conc.bennett_gt_noisy_terms(LN2, 0.11, 100, 1, 0.9, 0.05), 800)
        b2 = _tail(conc.bennett_gt_noisy_terms(LN2, 0.11, 100, 3, 0.9, 0.05), 800)
        assert math.log(b2) / math.log(b1) == pytest.approx(3.0, rel=1e-9)
        c1 = _tail(conc.chernoff_gt_terms(LN2, 100, 1, 0.9, 0.05), 800)
        c3 = _tail(conc.chernoff_gt_terms(LN2, 100, 3, 0.9, 0.05), 800)
        assert math.log(c3) / math.log(c1) == pytest.approx(3.0, rel=1e-9)


class TestRemainder:
    def test_vacuous_target(self):
        dims = md.ProblemDims(p=1000, k=10, n=0)
        assert conc.remainder_n_required(_gt_spec(LN2, 10), dims, range(1, 11), 1.0) == 0

    def test_monotone_in_target(self):
        dims = md.ProblemDims(p=10**4, k=20, n=0)
        spec = _gt_spec(LN2, 20)
        ns = [conc.remainder_n_required(spec, dims, range(1, 21), t) for t in (0.5, 0.1, 0.01)]
        assert ns[0] <= ns[1] <= ns[2]

    @staticmethod
    def _discrete(I):
        return conc.TailBoundSpec(lambda ell: conc.bernstein_discrete_terms(I, 2, 0.5))

    def test_unbounded_sentinel(self):
        # I so small that psi stays 1 out to n_cap
        spec = self._discrete(1e-12)
        dims = md.ProblemDims(p=100, k=2, n=0)
        assert conc.remainder_n_required(spec, dims, [1, 2], 0.01, n_cap=10**6) == conc.UNBOUNDED

    def test_cap_that_is_not_a_power_of_two(self):
        spec = self._discrete(0.0342)
        dims = md.ProblemDims(p=100, k=2, n=0)
        n = conc.remainder_n_required(spec, dims, [1, 2], 0.01)
        assert 2**19 < n < 10**6  # the doubling bracket steps over 10**6 to 2**20
        assert conc.remainder_n_required(spec, dims, [1, 2], 0.01, n_cap=10**6) == n
        assert conc.remainder_n_required(spec, dims, [1, 2], 0.01, n_cap=n) == n
        assert conc.remainder_n_required(spec, dims, [1, 2], 0.01, n_cap=n - 1) == conc.UNBOUNDED

    def test_exact_integer_boundary(self):
        spec = self._discrete(0.5)
        dims = md.ProblemDims(p=100, k=2, n=0)
        n = conc.remainder_n_required(spec, dims, [1, 2], 0.05)
        rows = conc.remainder_rows(spec, dims, [1, 2])
        assert conc.remainder_sum(rows, n) <= 0.05
        assert conc.remainder_sum(rows, n - 1) > 0.05


def _loop_remainder_sum(specs, dims, ell_range, n):
    """The exact sum as it was before the per-ell rows, verbatim: a loop
    over ell and the reference range specs, with a psi call per term."""
    total = 0.0
    for ell in ell_range:
        for spec in specs:
            if spec.covers(ell):
                total += conc._binomial_weight(dims.k, ell) * spec.psi(ell, n)
                break
    return total


def _old_remainder_n_required(psi_family, dims, ell_range, target, n_cap=2**30):
    """The solver as it was before the numpy proposal, verbatim: a doubling
    bracket clamped to n_cap plus integer bisection, all on the loop sum."""
    if not 0.0 < target <= 1.0:
        raise ValueError("target must lie in (0, 1]")
    ells = list(ell_range)
    bound = lambda n: min(1.0, _loop_remainder_sum(psi_family, dims, ells, n))
    if bound(0) <= target:
        return 0
    lo, hi = 0, 1
    while bound(hi) > target:
        if hi >= n_cap:
            return conc.UNBOUNDED
        lo, hi = hi, min(2 * hi, n_cap)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if bound(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def _solver_families(rng: random.Random, k: int):
    """One seeded family of each kind for k, as (spec, its reference range
    specs): GT noiseless and noisy (random nu, delta2 pair and eps), discrete
    Bernstein over random per-ell MIs and linear Bernstein over a random b
    with some zero entries."""
    nu = rng.uniform(0.05, 0.95)
    d2s, d2l, eps = rng.uniform(0.05, 0.99), rng.uniform(0.01, 0.95), rng.uniform(0.0, 0.5)
    rho = rng.uniform(1e-3, 0.45)
    mis = {ell: 10 ** rng.uniform(-7, 0.5) for ell in range(1, k + 1)}
    alphabet, d2 = rng.randint(2, 6), rng.uniform(0.05, 0.95)
    b = [0.0 if rng.random() < 0.2 else rng.uniform(-3.0, 3.0) for _ in range(k)]
    dims = md.ProblemDims(p=10**6, k=k, n=0)
    discrete = conc.TailBoundSpec(
        lambda ell: conc.bernstein_discrete_terms(mis[ell], alphabet, d2)
    )
    linear = CHANNELS[LINEAR].tail_spec(
        md.ModelSpec.linear(rng.uniform(0.1, 3.0)), b, md.min_info_partitions(b), {}
    )
    return [
        (_gt_spec(nu, k, 0.0, d2s, d2l, eps), _gt_ranges(nu, k, 0.0, d2s, d2l, eps)),
        (_gt_spec(nu, k, rho, d2s, d2l, eps), _gt_ranges(nu, k, rho, d2s, d2l, eps)),
        (discrete, _ranges(discrete)),
        (linear, _ranges(linear)),
    ]


class TestRemainderSolverEqualsOldSearch:
    """The proposal-and-confirmation solver returns the old search's n."""

    def test_seeded_sweep(self):
        # caps 1 and 0 both search [0, 1]: the old bracket starts at hi = 1
        rng = random.Random(20261019)
        solves = 0
        while solves < 2000:
            k = rng.choice([1, 2, 3, 5, 8, 13, 21, 34, 100])
            dims = md.ProblemDims(p=10**6, k=k, n=0)
            lo = 1 if rng.random() < 0.5 else rng.randint(1, k)
            ells = range(lo, rng.randint(lo, k) + 1)
            for spec, ref in _solver_families(rng, k):
                target = rng.choice([1.0, 0.5, 1e-2, 1e-9, 10 ** rng.uniform(-12, 0)])
                n = _old_remainder_n_required(ref, dims, ells, target)
                caps = [2**30, 10**6, 1000, 1, 0] + ([n, n - 1] if 1 <= n < conc.UNBOUNDED else [])
                for cap in caps:
                    expect = n if cap == 2**30 else _old_remainder_n_required(
                        ref, dims, ells, target, cap
                    )
                    got = conc.remainder_n_required(spec, dims, ells, target, cap)
                    assert got == expect, (k, ells, target, cap)
                    solves += 1

    def test_wrong_proposals_still_give_the_first_passing_n(self):
        rng = random.Random(7)
        for _ in range(3000):
            answer = rng.choice([0, 1, 2, rng.randint(0, 50), rng.randint(0, 10**7)])
            cap = rng.choice([1, 2, 37, 1000, 10**6, 2**30, answer, max(answer - 1, 1)])
            guess = rng.choice(
                [0, cap, conc.UNBOUNDED, answer, answer + 1, max(answer - 1, 0),
                 rng.randint(0, cap), rng.randint(0, 2**31)]
            )
            probes = []
            bound = lambda n: probes.append(n) or (0.5 if n >= answer else 0.7)
            got = conc._first_passing(bound, 0.6, cap, guess)
            assert got == (answer if answer <= cap else conc.UNBOUNDED)
            assert all(0 <= n <= cap for n in probes)
            if guess == answer and answer <= cap:
                assert len(probes) == (1 if answer == 0 else 2)

    def test_cap_below_one_counts_as_one(self):
        # bound(0) = 0.5, bound(1) = 0.5 / e: the old bracket's first step
        # reaches n = 1 whatever the cap
        spec = conc.TailBoundSpec(lambda ell: (0.5, 1.0, 1.0))
        dims = md.ProblemDims(p=10, k=1, n=0)
        for cap in (1, 0, -5):
            assert _old_remainder_n_required(_ranges(spec), dims, [1], 0.3, cap) == 1
            assert conc.remainder_n_required(spec, dims, [1], 0.3, cap) == 1
            assert conc.remainder_n_required(spec, dims, [1], 0.1, cap) == conc.UNBOUNDED

    @pytest.mark.parametrize("rho", [0.0, 0.11])
    def test_workload_gt_solves_make_at_most_three_exact_sums(self, monkeypatch, rho):
        sums = []
        real = conc.remainder_sum
        monkeypatch.setattr(conc, "remainder_sum", lambda *args: sums.append(1) or real(*args))
        for k in (10, 50, 100):
            for p in (10**4, 10**6):
                sums.clear()
                dims = md.ProblemDims(p=p, k=k, n=0)
                model = md.ModelSpec.group_testing(rho=rho)
                res = bounds.achievability_threshold_generic(model, None, dims)
                assert res.remainder_n > 0
                assert 1 <= len(sums) <= 3, (k, p)

    def test_binomial_weight_beyond_float_range_refused(self):
        # C(k, k / 2) passes the float range between k = 1020 and 1030
        model = md.ModelSpec.group_testing(rho=0.0)
        res = bounds.achievability_threshold_generic(model, None, md.ProblemDims(p=10**9, k=1020))
        assert res.remainder_n == 44732220.0
        with pytest.raises(ValueError, match="k = 1030"):
            bounds.achievability_threshold_generic(model, None, md.ProblemDims(p=10**9, k=1030))

    @pytest.mark.parametrize(
        "model", [md.ModelSpec.linear(1.0), md.ModelSpec.one_bit(1.0)], ids=["linear", "one-bit"]
    )
    def test_workload_real_solves_make_at_most_three_exact_sums(self, monkeypatch, model):
        sums = []
        real = conc.remainder_sum
        monkeypatch.setattr(conc, "remainder_sum", lambda *args: sums.append(1) or real(*args))
        for k in (3, 5, 8):
            b = [(0.5 + (i % 4) * 0.5) * (-1) ** i for i in range(k)]
            for p in (10**4, 10**6, 10**9):
                sums.clear()
                res = bounds.achievability_threshold_generic(model, b, md.ProblemDims(p=p, k=k, n=0))
                assert res.remainder_n > 0
                assert 1 <= len(sums) <= 3, (k, p)

    def test_vacuous_target_makes_one_exact_sum(self, monkeypatch):
        sums = []
        real = conc.remainder_sum
        monkeypatch.setattr(conc, "remainder_sum", lambda *args: sums.append(1) or real(*args))
        dims = md.ProblemDims(p=1000, k=10, n=0)
        assert conc.remainder_n_required(_gt_spec(LN2, 10), dims, range(1, 11), 1.0) == 0
        assert len(sums) == 1

    def test_constant_term_above_target_is_unbounded(self):
        # ell = 1 falls, ell = 2 stays at C(2, 2) 0.5 = 0.5 > 0.1 for every n
        spec = conc.TailBoundSpec(lambda ell: (1.0, 1.0, 1.0) if ell == 1 else (0.5, 0.0, 1.0))
        dims = md.ProblemDims(p=10, k=2, n=0)
        for cap in (1, 1000, 2**30):
            assert conc.remainder_n_required(spec, dims, [1, 2], 0.1, cap) == conc.UNBOUNDED
        # a target above the constant is met: the guess is cap, and the
        # search down from cap still finds the first passing n
        assert conc.remainder_n_required(spec, dims, [1, 2], 0.6) == 3
        assert _old_remainder_n_required(_ranges(spec), dims, [1, 2], 0.6) == 3

    def test_large_weights_raise_no_warning(self):
        # C(100, 50) ~ 1e29: the guess works on log terms, so nothing over- or
        # underflows, at small and large n alike
        dims = md.ProblemDims(p=10**6, k=100, n=0)
        discrete = TestRemainder._discrete(1e-9)
        families = [(_gt_spec(LN2, 100), _gt_ranges(LN2, 100)),
                    (_gt_spec(LN2, 100, rho=0.11), _gt_ranges(LN2, 100, rho=0.11)),
                    (discrete, _ranges(discrete))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec, ref in families:
                for target in (1.0, 0.5, 1e-2, 1e-12, 1e-300):
                    n = conc.remainder_n_required(spec, dims, range(1, 101), target)
                    assert n == _old_remainder_n_required(ref, dims, range(1, 101), target)

    def test_remainder_n_minimal_check(self):
        (result,) = verify.run_checks("remainder-n-minimal")
        assert result.passed and result.tolerance == 1e-12, result.detail


def _channel_families():
    """(spec, reference range specs, dims, ells) for the channels' own tail
    families: group testing noiseless and noisy at k = 10, 100 and 1020,
    linear and 1-bit at the thresholds workload's b."""
    out = []
    for rho in (0.0, 0.11):
        for k in (10, 100, 1020):
            model, dims = md.ModelSpec.group_testing(rho=rho), md.ProblemDims(p=10**9, k=k)
            spec = CHANNELS[GROUP_TESTING].tail_spec(model, None, *bounds._per_ell_mi(model, None, dims))
            ref = _reference_specs(model, None, dims)
            out.append(pytest.param(spec, ref, dims, range(1, k + 1), id=f"gt-rho{rho}-k{k}"))
    for model in (md.ModelSpec.linear(1.0), md.ModelSpec.one_bit(1.0)):
        for k in (3, 8):
            b = [(0.5 + (i % 4) * 0.5) * (-1) ** i for i in range(k)]
            dims = md.ProblemDims(p=10**6, k=k)
            spec = CHANNELS[model.channel].tail_spec(model, b, *bounds._per_ell_mi(model, b, dims))
            ref = _reference_specs(model, b, dims)
            out.append(pytest.param(spec, ref, dims, range(1, k + 1), id=f"{model.channel}-k{k}"))
    return out


class TestRowSumsEqualTheLoop:
    """remainder_sum over one spec's remainder_rows is the loop over ell and
    the reference range specs it replaced, bit for bit, around the solved n
    and far from it."""

    @pytest.mark.parametrize("spec,ref,dims,ells", _channel_families())
    def test_channel_families(self, spec, ref, dims, ells):
        rows = conc.remainder_rows(spec, dims, ells)
        n = conc.remainder_n_required(spec, dims, ells, 1e-2)
        assert n == _old_remainder_n_required(ref, dims, ells, 1e-2)
        for m in (n - 1, n, n + 1, 0, 1, 17, n // 3, 5 * n, 10**9, 2**40):
            assert conc.remainder_sum(rows, m) == _loop_remainder_sum(ref, dims, ells, m), m

    def test_seeded_families_and_ell_ranges(self):
        rng = random.Random(20261020)
        for _ in range(200):
            k = rng.choice([1, 2, 3, 5, 8, 13, 34, 100])
            dims = md.ProblemDims(p=10**6, k=k, n=0)
            lo = rng.randint(1, k)
            ells = range(lo, rng.randint(lo, k) + 1)
            for spec, ref in _solver_families(rng, k):
                rows = conc.remainder_rows(spec, dims, ells)
                for n in (0, 1, rng.randint(0, 10**4), rng.randint(0, 10**9)):
                    assert conc.remainder_sum(rows, n) == _loop_remainder_sum(ref, dims, ells, n)


class TestSpecsMatchScalars:
    """Every channel's tail_spec equals conc.tail of its family's terms at
    the channel's own delta2, eps and cut, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        b=st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), min_size=1, max_size=6),
        sigma=st.floats(0.05, 5.0),
        n=st.integers(0, 10**7),
        ell=st.integers(1, 6),
    )
    @example(b=[0.0, 1.0], sigma=1.0, n=100, ell=1)  # sum_dif b^2 = 0: psi = 0
    def test_linear(self, b, sigma, n, ell):
        ell = min(ell, len(b))
        b = np.asarray(b, dtype=float)
        parts = md.min_info_partitions(b)
        spec = CHANNELS[LINEAR].tail_spec(md.ModelSpec.linear(sigma), b, parts, {})
        part = md.min_info_partition(b, ell)  # a sort of its own for this ell
        s_sq = float(np.sum(b[part.dif_index()] ** 2))
        expect = conc.tail(*conc.bernstein_linear_terms(s_sq, sigma, 0.5), n)
        assert spec.psi(ell, n) == expect
        if s_sq == 0.0:
            assert expect == 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        mis=st.lists(st.floats(1e-9, 5.0), min_size=1, max_size=8),
        n=st.integers(0, 10**8),
        data=st.data(),
    )
    def test_one_bit(self, mis, n, data):
        ell = data.draw(st.integers(1, len(mis)))
        mi_map = dict(enumerate(mis, start=1))
        parts = md.min_info_partitions(np.ones(len(mis)))
        spec = CHANNELS[ONE_BIT].tail_spec(md.ModelSpec.one_bit(1.0), None, parts, mi_map)
        assert spec.psi(ell, n) == conc.tail(*conc.bernstein_discrete_terms(mi_map[ell], 2, 0.5), n)

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 80),
        nu=st.floats(0.05, 0.95),
        rho=st.one_of(st.just(0.0), st.floats(1e-4, 0.49)),
        n=st.integers(0, 10**7),
        data=st.data(),
    )
    def test_group_testing(self, k, nu, rho, n, data):
        ell = data.draw(st.integers(1, k))
        # any map: the specs must read the MI they are given
        mis = data.draw(st.lists(st.floats(1e-9, 1.0), min_size=k, max_size=k))
        mi_map = dict(enumerate(mis, start=1))
        parts = md.min_info_partitions(np.ones(k))
        model = md.ModelSpec.group_testing(rho=rho, nu=nu)
        spec = CHANNELS[GROUP_TESTING].tail_spec(model, None, parts, mi_map)
        cut = int(k / math.log(k)) if k >= 3 else 1
        if ell > cut:
            terms = conc.bernstein_discrete_terms(mi_map[ell], 2, 0.1)
        elif rho == 0.0:
            terms = conc.chernoff_gt_terms(nu, k, ell, 0.9, 0.05)
        else:
            terms = conc.bennett_gt_noisy_terms(nu, rho, k, ell, 0.9, 0.05)
        assert spec.terms(ell) == terms
        assert spec.psi(ell, n) == conc.tail(*terms, n)


class TestFamilyProperties:
    def test_all_bounds_in_unit_interval_and_nonincreasing(self):
        ns = [1, 10, 100, 1000, 10**4]
        families = [
            lambda n: conc.psi_chebyshev(0.2, 1.0, n, 0.5),
            lambda n: _tail(conc.bernstein_discrete_terms(0.2, 2, 0.5), n),
            lambda n: _tail(conc.bernstein_linear_terms(0.8**2, 1.0, 0.5), n),
            lambda n: _tail(conc.chernoff_gt_terms(LN2, 50, 1, 0.9, 0.05), n),
            lambda n: _tail(conc.bennett_gt_noisy_terms(LN2, 0.11, 50, 1, 0.9, 0.05), n),
        ]
        for fam in families:
            vals = [fam(n) for n in ns]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(b2 <= a + 1e-15 for a, b2 in zip(vals, vals[1:]))

    def test_bernstein_vs_chebyshev_weak_regime(self):
        # when n (delta2 I)^2 <= 1, both bounds exceed 1/2 (sanity cross-check)
        I, d2 = 0.2, 0.5
        n = int(1.0 / (d2 * I) ** 2)
        cap = conc.variance_cap_discrete(2)
        assert conc.psi_chebyshev(I, cap, n, d2) > 0.5
        assert _tail(conc.bernstein_discrete_terms(I, 2, d2), n) > 0.5


class TestEmpiricalDomination:
    def test_chebyshev_gt_tail(self):
        m = md.ModelSpec.group_testing(rho=0.11)
        part = md.min_info_partition([1.0] * 8, 2)
        mi, var = info.mutual_information(m, part), info.density_variance(m, part)
        n, d2 = 500, 0.5
        sums = verify._gt_density_sums(m, part, n, 10**4, 33)
        freq = float(np.mean(np.abs(sums - n * mi) >= n * d2 * mi))
        se = math.sqrt(max(freq * (1 - freq), 1e-4) / 10**4)
        assert freq <= conc.psi_chebyshev(mi, var, n, d2) + 3 * se

    def test_chernoff_gt_lower_tail(self):
        m = md.ModelSpec.group_testing(rho=0.0)
        part = md.min_info_partition([1.0] * 100, 2)
        mi = info.mutual_information(m, part)
        n, d2 = 900, 0.85
        sums = verify._gt_density_sums(m, part, n, 10**4, 34)
        freq = float(np.mean(sums <= n * mi * (1 - d2)))
        se = math.sqrt(max(freq * (1 - freq), 1e-4) / 10**4)
        assert freq <= _tail(conc.chernoff_gt_terms(m.nu, 100, 2, d2, 0.05), n) + 3 * se
