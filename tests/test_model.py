import ast
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import support_limits
from support_limits import model as md
from support_limits import verify
from support_limits.channels import CHANNELS, one_bit_sign


class TestDims:
    def test_validation(self):
        with pytest.raises(ValueError):
            md.ProblemDims(p=5, k=6, n=1)
        with pytest.raises(ValueError):
            md.ProblemDims(p=5, k=2, n=1, d_max=2)
        md.ProblemDims(p=5, k=2, n=0, d_max=1)


class TestModelSpec:
    def test_pairings(self):
        with pytest.raises(ValueError):
            md.ModelSpec.group_testing(rho=0.5)
        md.ModelSpec.group_testing(rho=0.49)

    def test_linear_sigma_square_in_float_range(self):
        for sigma in (1e200, 1e160, 1e-200, math.inf):
            with pytest.raises(ValueError, match="sigma"):
                md.ModelSpec.linear(sigma)
        md.ModelSpec.linear(1e-150)
        md.ModelSpec.one_bit(1e-200)  # the 1-bit likelihood divides by sigma, not sigma^2
        with pytest.raises(ValueError, match="sigma"):
            md.ModelSpec.one_bit(1e200)

    def test_prior_pairing(self):
        with pytest.raises(ValueError):
            md.validate_pairing(md.ModelSpec.group_testing(), md.SignalPrior.fixed([1.0]), 1)
        with pytest.raises(ValueError):
            md.validate_pairing(md.ModelSpec.linear(1.0), md.SignalPrior.all_ones(), 2)
        with pytest.raises(ValueError):  # nu/k > 1
            md.validate_pairing(md.ModelSpec.group_testing(nu=3.0), md.SignalPrior.all_ones(), 2)


class TestSignalPrior:
    @pytest.mark.parametrize("make", [md.SignalPrior.fixed, md.SignalPrior.permuted])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0])
    def test_entries_finite_and_non_zero(self, make, bad):
        with pytest.raises(ValueError, match="finite non-zero"):
            make([bad, 1.0])
        make([1e-300, -1e300])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_gaussian_variance_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="sigma_beta_sq"):
            md.SignalPrior.iid_gaussian(bad)
        md.SignalPrior.iid_gaussian(1e300)


class TestPartition:
    def test_invariants(self):
        with pytest.raises(ValueError):
            md.Partition(s_dif=(), s_eq=(1, 2))
        with pytest.raises(ValueError):
            md.Partition(s_dif=(1,), s_eq=(1, 2))
        with pytest.raises(ValueError):
            md.Partition(s_dif=(1,), s_eq=(3,))
        part = md.Partition(s_dif=(2, 1), s_eq=(3,))
        assert part.s_dif == (1, 2) and part.ell == 2 and part.k == 3

    def test_empty_dif_rejected_by_partition(self):
        with pytest.raises(ValueError):
            md.Partition(s_dif=(), s_eq=(1, 2, 3))


class TestMinInfoPartition:
    def test_smallest_magnitude(self):
        assert md.min_info_partition([3, 1, 2], 1).s_dif == (2,)

    def test_tie_break_lowest_index(self):
        assert md.min_info_partition([4.0, 4.0, 4.0], 2).s_dif == (1, 2)

    def test_magnitude_ignores_sign(self):
        assert md.min_info_partition([-5, 0.1, 4], 2).s_dif == (2, 3)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=8),
        st.integers(min_value=1, max_value=8),
    )
    def test_minimizes_energy_over_all_partitions(self, b, ell):
        ell = min(ell, len(b))
        b_arr = np.asarray(b)
        mine = float(np.sum(b_arr[md.min_info_partition(b, ell).dif_index()] ** 2))
        brute = min(
            float(np.sum(b_arr[p.dif_index()] ** 2))
            for p in md.enumerate_partitions(len(b), [ell])
        )
        assert mine <= brute + 1e-12
        assert md.min_info_partition(b, ell).ell == ell


class TestMaxInfoPartition:
    def test_largest_magnitude(self):
        assert md.max_info_partition([3, 1, -4], 2) == md.Partition(s_dif=(1, 3), s_eq=(2,))

    @pytest.mark.parametrize("split", [md.min_info_partition, md.max_info_partition])
    @pytest.mark.parametrize("ell", [0, 4, 5])
    def test_ell_outside_one_to_k_refused(self, split, ell):
        with pytest.raises(ValueError, match=f"got ell={ell}, k=3"):
            split([1.0, 2.0, 3.0], ell)


class TestEnumeratePartitions:
    def test_counts(self):
        assert sum(1 for _ in md.enumerate_partitions(2)) == 3
        assert sum(1 for _ in md.enumerate_partitions(3, [3])) == 1
        assert sum(1 for _ in md.enumerate_partitions(10)) == 1023

    def test_guard(self):
        with pytest.raises(md.GuardError):
            list(md.enumerate_partitions(25))


class TestSnr:
    def test_zero_db(self):
        prior = md.SignalPrior.iid_gaussian(0.25)
        assert md.snr_db(prior, md.ModelSpec.linear(1.0), 4) == pytest.approx(0.0, abs=1e-12)

    def test_ten_db(self):
        prior = md.SignalPrior.iid_gaussian(10.0 / 3.0)
        assert md.snr_db(prior, md.ModelSpec.linear(1.0), 3) == pytest.approx(10.0, abs=1e-12)

    def test_round_trip(self):
        for snr in (-13.0, 0.0, 27.5):
            c_beta = md.c_beta_from_snr(snr)
            prior = md.SignalPrior.iid_gaussian(c_beta / 5)
            assert md.snr_db(prior, md.ModelSpec.linear(1.0), 5) == pytest.approx(snr, abs=1e-12)

    @pytest.mark.parametrize("snr,sigma", [(4000.0, 1.0), (0.0, 1e200), (0.0, math.inf),
                                           (-4000.0, math.inf), (0.0, math.nan)])
    def test_c_beta_beyond_float_range_refused(self, snr, sigma):
        # a sigma that is not finite is named before the SNR is blamed
        if math.isfinite(sigma):
            match = f"SNR {snr:g} dB .* beyond the float range"
        else:
            match = f"sigma must be > 0 and finite, got {sigma:g}"
        with pytest.raises(ValueError, match=match):
            md.c_beta_from_snr(snr, sigma)

    @pytest.mark.parametrize("snr,sigma,match", [(0.0, 0.0, "sigma must be > 0"),
                                                 (0.0, -1.0, "sigma must be > 0"),
                                                 (-4000.0, 1.0, "below the float range"),
                                                 (0.0, 1e-200, "below the float range")])
    def test_non_positive_sigma_or_c_beta_refused(self, snr, sigma, match):
        with pytest.raises(ValueError, match=match):
            md.c_beta_from_snr(snr, sigma)


class TestRngStream:
    @pytest.mark.parametrize("stream", [(), (0,), (3, 2**31), (1, 2, 3, 4, 5)])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1])
    def test_same_draws_as_explicit_key(self, seed, stream):
        ss = np.random.SeedSequence([seed, *stream])
        old = np.random.Generator(np.random.Philox(key=ss.generate_state(2, np.uint64)))
        assert md.rng_stream(seed, *stream).random(16).tolist() == old.random(16).tolist()

    def test_trailing_zero_streams_share_a_generator(self):
        # SeedSequence pads its 4-word entropy pool with zeros, so a stream
        # that differs from another only by zeros inside the pool keys the
        # same generator; past the pool the zero counts
        draws = lambda *key: md.rng_stream(*key).random(8).tolist()
        assert draws(7, 5) == draws(7, 5, 0)
        assert draws(7) == draws(7, 0) == draws(7, 0, 0)
        assert draws(7, 1, 2, 3) != draws(7, 1, 2, 3, 0)
        # run_cell's trial 0 at n index 0 draws rng_stream(seed)
        key = md._stream_keys(7, (0,), range(1))[0]
        assert key.tolist() == md.rng_stream(7).bit_generator.state["state"]["key"].tolist()

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64])
    def test_seed_outside_range_refused(self, seed):
        with pytest.raises(ValueError, match="seed"):
            md.rng_stream(seed)


class TestSampler:
    def test_reproducible(self):
        dims = md.ProblemDims(p=20, k=3, n=15)
        m = md.ModelSpec.one_bit(0.5)
        pr = md.SignalPrior.permuted([1.0, -2.0, 1.0])
        a = md.sample_realization(dims, m, pr, seed=99, trials=range(1))
        b = md.sample_realization(dims, m, pr, seed=99, trials=range(1))
        assert np.array_equal(a.support, b.support)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        c = md.sample_realization(dims, m, pr, seed=100, trials=range(1))
        assert not np.array_equal(a.x, c.x)

    def test_gt_all_zero_rows_give_zero_output(self):
        m = md.ModelSpec.group_testing(rho=0.0)
        y = CHANNELS[m.channel].outputs(m, np.zeros((6, 3)), np.ones(3), md.rng_stream(0).random(6))
        assert np.array_equal(y, np.zeros(6))

    def test_linear_noiseless_limit(self):
        dims = md.ProblemDims(p=10, k=2, n=7)
        m = md.ModelSpec.linear(1e-12)
        pr = md.SignalPrior.fixed([1.5, -0.3])
        r = md.sample_realization(dims, m, pr, seed=5, trials=range(1))
        assert np.max(np.abs(r.y[0] - r.x[0] @ r.beta[0])) < 1e-10

    def test_one_bit_alphabet(self):
        dims = md.ProblemDims(p=6, k=2, n=1000)
        m, pr = md.ModelSpec.one_bit(1.0), md.SignalPrior.fixed([1.0, 1.0])
        r = md.sample_realization(dims, m, pr, seed=3, trials=range(1))
        assert set(np.unique(r.y)) <= {-1.0, 1.0}

    def test_sign_zero_convention(self):
        assert np.array_equal(one_bit_sign([0.0, 1e-300, -1e-300]), [1.0, 1.0, -1.0])

    def test_support_uniformity(self):
        dims = md.ProblemDims(p=6, k=2, n=0)
        m = md.ModelSpec.linear(1.0)
        pr = md.SignalPrior.fixed([1.0, 2.0])
        trials = 10**4
        block = md.sample_realization(dims, m, pr, seed=0, trials=range(trials))
        counts = np.unique(block.support, axis=0, return_counts=True)[1]
        assert len(counts) == 15
        expect = trials / 15
        sd = math.sqrt(trials * (1 / 15) * (14 / 15))
        assert all(abs(c - expect) <= 4 * sd for c in counts)

    def test_permuted_prior_preserves_multiset(self):
        dims = md.ProblemDims(p=9, k=4, n=2)
        pr = md.SignalPrior.permuted([1.0, 1.0, -2.0, 0.5])
        block = md.sample_realization(dims, md.ModelSpec.linear(1.0), pr, seed=0, trials=range(100))
        for beta, support in zip(block.beta, block.support):
            assert sorted(beta[support - 1]) == sorted(pr.b)


# sample_realization with a new rng_stream generator per trial, drawn with
# numpy's own calls inline (the `block-draw-vs-rng-stream` oracle's draw)
_fresh_sample = verify._fresh_realization
_same_trial = verify._same_trial


def _one_trial(dims, model, prior, seed, stream):
    """The one-trial block sample_realization draws for trial stream[-1]
    after the prefix stream[:-1]."""
    t = stream[-1]
    return md.sample_realization(dims, model, prior, seed, stream[:-1], trials=range(t, t + 1))


SAMPLER_CASES = {
    "linear-fixed": (md.ModelSpec.linear(0.7), md.SignalPrior.fixed([1.0, -0.5, 2.0])),
    "linear-permuted": (md.ModelSpec.linear(0.7), md.SignalPrior.permuted([1.0, -0.5, 2.0])),
    "linear-gaussian": (md.ModelSpec.linear(0.7), md.SignalPrior.iid_gaussian(2.0)),
    "one-bit-fixed": (md.ModelSpec.one_bit(0.5), md.SignalPrior.fixed([1.0, -0.5, 2.0])),
    "one-bit-permuted": (md.ModelSpec.one_bit(0.5), md.SignalPrior.permuted([1.0, 1.0, -2.0])),
    "one-bit-gaussian": (md.ModelSpec.one_bit(0.5), md.SignalPrior.iid_gaussian(0.5)),
    "gt-noiseless": (md.ModelSpec.group_testing(0.0), md.SignalPrior.all_ones()),
    "gt-noisy": (md.ModelSpec.group_testing(0.11), md.SignalPrior.all_ones()),
    # nu = 3: at k = 3 every design entry is 1 (q = nu / k = 1)
    "gt-nu-3": (md.ModelSpec.group_testing(0.0, nu=3.0), md.SignalPrior.all_ones()),
}
# The support draw's edges: p = k, an even draw count (k = 6: 11 draws, the
# last word's high half parked for the permuted prior), and numpy's tail
# shuffle (p > 10000, k > p // 50), which the sampler leaves to choice.
SAMPLER_DIMS = [
    md.ProblemDims(p=11, k=3, n=9),
    md.ProblemDims(p=3, k=3, n=9),
    md.ProblemDims(p=11, k=6, n=9),
    md.ProblemDims(p=10001, k=201, n=1),
]


def _prior_at(prior, k):
    """prior with its vector, if any, tiled to length k."""
    if not prior.b:
        return prior
    return md.SignalPrior(variant=prior.variant, b=tuple(np.resize(prior.b, k).tolist()))


class TestStreamKey:
    @pytest.mark.parametrize("n_index", [0, 7, 2**31, 2**32, 2**40])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1])
    def test_key_table_port_equals_seed_sequence(self, seed, n_index):
        for t in [*range(600), 2**31, 2**32 - 1, 2**32, 2**40]:
            expect = np.random.SeedSequence([seed, n_index, t]).generate_state(2, np.uint64)
            got = md._stream_keys(seed, (n_index,), range(t, t + 1))[0]
            assert got.tolist() == expect.tolist(), t

    @pytest.mark.parametrize("stream", [(5,), (1, 2, 3, 4, 5), (3, 2**40)])
    @pytest.mark.parametrize("seed", [0, 2**32, 2**63 - 1])
    def test_other_streams_equal_seed_sequence(self, seed, stream):
        expect = np.random.SeedSequence([seed, *stream]).generate_state(2, np.uint64)
        t = stream[-1]
        assert md._stream_keys(seed, stream[:-1], range(t, t + 1))[0].tolist() == expect.tolist()

    @pytest.mark.parametrize(
        "prefix,trials",
        [((7,), range(0, 600)), ((7,), range(255, 257)), ((), range(3)), ((2**40,), range(510, 515)),
         ((1,), range(2**32 - 2, 2**32 + 2)), ((1,), range(4, 4))],
    )
    def test_trial_range_rows_equal_seed_sequence(self, prefix, trials):
        for seed in (0, 2**63 - 1):
            expect = [
                np.random.SeedSequence([seed, *prefix, t]).generate_state(2, np.uint64).tolist()
                for t in trials
            ]
            got = md._stream_keys(seed, prefix, trials)
            assert got.dtype == np.uint64 and got.shape == (len(trials), 2)
            assert got.tolist() == expect

    def test_tables_are_read_only(self):
        with pytest.raises(ValueError):
            md._key_table(3, (1,), 0)[0, 0] = 0


class TestRekeyedSampler:
    @pytest.mark.parametrize("seed", [7, 2**63 - 1])
    @pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
    def test_equals_fresh_generator_per_call(self, case, seed):
        model, prior = SAMPLER_CASES[case]
        for dims in SAMPLER_DIMS:
            prior_k = _prior_at(prior, dims.k)
            for stream in [(3,), (2, 255), (2, 256), (2, 2**32)]:
                got = _one_trial(dims, model, prior_k, seed, stream)
                expect = _fresh_sample(dims, model, prior_k, seed, stream)
                assert len(got) == 1 and _same_trial(got, 0, expect), (dims, stream)

    def test_rekeyed_generator_draws_as_fresh_philox(self):
        # A numpy upgrade that changes Philox's state dict must fail here
        # rather than let the sampler's draws drift.
        key = md._stream_keys(11, (4,), range(300, 301))[0]
        used = md._rekeyed_generator(key)
        used.integers(0, 2**32, size=3, dtype=np.uint32)  # leaves one buffered uint32
        used.standard_normal(5)
        gen = md._rekeyed_generator(key)
        fresh = np.random.Generator(np.random.Philox(np.random.SeedSequence([11, 4, 300])))
        got, want = gen.bit_generator.state, fresh.bit_generator.state
        assert got["state"]["key"].tolist() == want["state"]["key"].tolist()
        assert got["state"]["counter"].tolist() == want["state"]["counter"].tolist()
        assert got["buffer"].tolist() == want["buffer"].tolist()
        assert [got[f] for f in ("buffer_pos", "has_uint32", "uinteger")] == [
            want[f] for f in ("buffer_pos", "has_uint32", "uinteger")
        ]
        draws = (
            lambda g: g.choice(50, size=5, replace=False),
            lambda g: g.random(7),
            lambda g: g.standard_normal(9),
            lambda g: g.normal(0.0, 2.0, size=4),
            lambda g: g.permutation(np.arange(6.0)),
            lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),
        )
        for draw in draws:
            assert draw(gen).tolist() == draw(fresh).tolist()

    def test_support_draw_equals_numpy_choice(self):
        # the registry oracle: a numpy whose Generator.choice takes other
        # steps must fail here
        (result,) = verify.run_checks("support-draw-vs-numpy-choice")
        assert (result.passed, result.measured, result.tolerance) == (True, 0.0, 0.0), result.detail
        assert result.seconds < 1.0

    def test_threads_match_serial_run(self):
        model, prior = SAMPLER_CASES["gt-noisy"]
        dims = md.ProblemDims(p=15, k=3, n=12)
        streams = [(n_index, t) for n_index in (0, 1) for t in range(250, 262)]
        serial = {s: _one_trial(dims, model, prior, 5, s) for s in streams}
        results, errors = {}, []

        def work(part):
            try:
                for s in part:
                    results[s] = _one_trial(dims, model, prior, 5, s)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(streams[i::4],)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        assert all(_same_trial(results[s], 0, serial[s]) for s in streams)

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64])
    def test_seed_outside_range_refused(self, seed):
        model, prior = SAMPLER_CASES["gt-noisy"]
        with pytest.raises(ValueError, match="seed must lie"):
            _one_trial(md.ProblemDims(p=5, k=2, n=3), model, prior, seed, (0, 1))

    def test_trials_is_required(self):
        model, prior = SAMPLER_CASES["gt-noisy"]
        with pytest.raises(TypeError, match="trials"):
            md.sample_realization(md.ProblemDims(p=5, k=2, n=3), model, prior, 1, (0,))


# a range inside one 256-trial key chunk, one across two, one from a prefix
# of no entries, and one the tables cannot hold (t >= 2^32)
BLOCK_STREAMS = [((2,), range(3, 5)), ((2,), range(250, 262)), ((), range(0, 3)),
                 ((5, 1), range(2**32 - 2, 2**32 + 1))]


class TestBlockSampler:
    @pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
    def test_block_equals_fresh_generator_per_trial(self, case):
        model, prior = SAMPLER_CASES[case]
        for dims in [*SAMPLER_DIMS, md.ProblemDims(p=11, k=3, n=0)]:
            prior_k = _prior_at(prior, dims.k)
            for prefix, trials in BLOCK_STREAMS:
                block = md.sample_realization(dims, model, prior_k, 7, stream=prefix, trials=trials)
                count = len(trials)
                assert len(block) == count
                assert block.support.shape == (count, dims.k)
                assert (block.beta.shape, block.x.shape) == ((count, dims.p), (count, dims.n, dims.p))
                assert block.y.shape == (count, dims.n)
                for i, t in enumerate(trials):
                    stream = (*prefix, t)
                    assert _same_trial(block, i, _fresh_sample(dims, model, prior_k, 7, stream))
                    one = _one_trial(dims, model, prior_k, 7, stream)
                    assert _same_trial(block, i, one), (dims, stream)

    @pytest.mark.parametrize("case", ["linear-permuted", "gt-noisy"])
    def test_support_columns_equal_each_realization(self, case):
        model, prior = SAMPLER_CASES[case]
        dims = md.ProblemDims(p=11, k=3, n=9)
        block = md.sample_realization(dims, model, prior, 3, stream=(1,), trials=range(6))
        x_s = block.x_support()
        for i, (x, support) in enumerate(zip(block.x, block.support)):
            x_true = x[:, support - 1]
            assert x_s[i].strides == x_true.strides  # column-major, as x[:, index]
            assert x_s[i].tolist() == x_true.tolist()

    def test_stacked_product_equals_per_trial_products(self):
        rng = np.random.default_rng(0)
        for n in (0, 1, 7, 200):
            for k in (1, 2, 3, 6):
                p = k + 4
                x = rng.standard_normal((5, n, p))
                index = np.sort(rng.permuted(np.tile(np.arange(p), (5, 1)), axis=1)[:, :k], axis=1)
                b = rng.standard_normal((5, k))
                got = np.matmul(md._support_columns(x, index), b[..., None])[..., 0]
                for t in range(5):
                    assert got[t].tolist() == (x[t][:, index[t]] @ b[t]).tolist(), (n, k, t)

    def test_block_is_frozen(self):
        model, prior = SAMPLER_CASES["gt-noisy"]
        block = md.sample_realization(md.ProblemDims(p=5, k=2, n=3), model, prior, 1, trials=range(2))
        with pytest.raises(AttributeError):
            block.x = None

    def test_block_draw_oracle(self):
        (result,) = verify.run_checks("block-draw-vs-rng-stream")
        assert (result.passed, result.measured, result.tolerance) == (True, 0.0, 0.0), result.detail


def _following_draws(park_half):
    """A draw_rest for `_block_supports` recording, per trial, the draws
    right after the support: 32-bit ones read a parked half word, 64-bit
    ones never do."""
    after, calls = {}, {}

    def rest(i, rng):
        calls[i] = calls.get(i, 0) + 1
        if park_half:
            after[i] = rng.integers(0, 2**32, 3, np.uint32).tolist()
        else:
            after[i] = rng.random(2).tolist()

    return rest, after, calls


def _fresh_support_and_following(seed, prefix, t, p, k, park_half):
    rng = md.rng_stream(seed, *prefix, t)
    support = np.sort(rng.choice(p, size=k, replace=False)).tolist()
    following = rng.integers(0, 2**32, 3, np.uint32) if park_half else rng.random(2)
    return support, following.tolist()


class TestBlockSupportDraw:
    # supports need no dense arrays, so p ranges up to 3 * 2^30 here
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=3 * 2**30),
        st.integers(min_value=0, max_value=2**63 - 1),
        st.integers(min_value=230, max_value=255),
        st.integers(min_value=1, max_value=40),
        st.booleans(),
    )
    def test_block_supports_equal_numpy_choice(self, k, p, seed, t0, count, park_half):
        p = max(p, k)
        trials = range(t0, t0 + count)
        keys = md._stream_keys(seed, (6,), trials)
        rest, after, _ = _following_draws(park_half)
        got = md._block_supports(keys, p, k, rest, park_half)
        for i, t in enumerate(trials):
            support, following = _fresh_support_and_following(seed, (6,), t, p, k, park_half)
            assert (got[i].tolist(), after[i]) == (support, following), (p, k, t)

    @pytest.mark.parametrize("p,k", [(1, 1), (7, 7), (16, 2), (3 * 2**30, 5), (2**32, 2)])
    def test_draw_spans_and_lemire_thresholds(self, p, k):
        # numpy's bounded draw on [0, rng]: threshold (UINT32_MAX - rng) % (rng + 1);
        # a threshold one off rejects with probability 2^-32, which no sample shows
        spans, thresholds = md._choice_draws(p, k)
        rngs = [j for j in range(p - k, p) if j] + list(range(k - 1, 0, -1))
        assert spans.tolist() == [r + 1 for r in rngs]
        assert thresholds.tolist() == [(2**32 - 1 - r) % (r + 1) for r in rngs]

    def test_rejected_draws_are_drawn_again(self):
        # at p = 3 * 2^30 about a quarter of the draws reject
        p, k, trials = 3 * 2**30, 3, range(250, 290)
        keys = md._stream_keys(2, (6,), trials)
        rest, after, calls = _following_draws(True)
        got = md._block_supports(keys, p, k, rest, park_half=True)
        assert 0 < sum(c == 2 for c in calls.values()) < len(trials)
        assert set(calls.values()) == {1, 2}
        for i, t in enumerate(trials):
            assert (got[i].tolist(), after[i]) == _fresh_support_and_following(2, (6,), t, p, k, True)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(SAMPLER_CASES)),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**63 - 1),
        st.integers(min_value=230, max_value=255),
        st.integers(min_value=1, max_value=30),
    )
    def test_block_equals_fresh_generator_per_trial(self, case, k, p, n, seed, t0, count):
        model, prior = SAMPLER_CASES[case]
        assume(model.nu / k <= 1.0)
        dims, prior = md.ProblemDims(p=max(p, k), k=k, n=n), _prior_at(prior, k)
        trials = range(t0, t0 + count)
        block = md.sample_realization(dims, model, prior, seed, stream=(6,), trials=trials)
        for i, t in enumerate(trials):
            assert _same_trial(block, i, _fresh_sample(dims, model, prior, seed, (6, t))), t

    @pytest.mark.parametrize("case", ["linear-permuted", "one-bit-gaussian", "gt-noisy"])
    def test_redrawn_trials_keep_their_draws(self, case, monkeypatch):
        # a trial marked rejected is drawn again whole: support, prior, design, noise
        floyd = md._floyd_supports

        def every_other_rejected(words, p, k):
            index, rejected = floyd(words, p, k)
            rejected[::2] = True
            return index, rejected

        monkeypatch.setattr(md, "_floyd_supports", every_other_rejected)
        model, prior = SAMPLER_CASES[case]
        dims, trials = md.ProblemDims(p=11, k=3, n=9), range(250, 262)
        block = md.sample_realization(dims, model, prior, 4, stream=(6,), trials=trials)
        for i, t in enumerate(trials):
            assert _same_trial(block, i, _fresh_sample(dims, model, prior, 4, (6, t))), t


# ---------------------------------------------------------------------------
# The support's words are read in one call per trial: no module reaches the
# bit generator's per-word ctypes interface.
# ---------------------------------------------------------------------------

PACKAGE = Path(support_limits.__file__).parent


def _ctypes_reads(tree) -> list[int]:
    """Lines that import ctypes or read a `.ctypes` attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "ctypes")
        or (isinstance(node, ast.Import) and any(a.name == "ctypes" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "ctypes")
    )


@pytest.mark.parametrize("name", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_no_per_word_generator_access(name):
    assert not _ctypes_reads(ast.parse((PACKAGE / f"{name}.py").read_text()))


def test_the_structural_check_sees_a_ctypes_read():
    tree = ast.parse(
        "words = rng.bit_generator.ctypes\n"
        "import ctypes\n"
        "next_uint32 = gen.bit_generator.ctypes.next_uint32\n"
        "from ctypes import c_uint32\n"
    )
    assert _ctypes_reads(tree) == [1, 2, 3, 4]


class TestPriorAccessors:
    def test_m_beta_and_extremes(self):
        pr = md.SignalPrior.permuted([1.0, -1.0, 2.0, 1.0])
        assert pr.m_beta == 3

    def test_gt_uses_bernoulli_probability(self):
        m = md.ModelSpec.group_testing(nu=math.log(2.0))
        assert m.bernoulli_p(10) == pytest.approx(math.log(2.0) / 10)
