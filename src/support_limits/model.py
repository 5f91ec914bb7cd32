"""
Domain types for the recovery problem and seeded samplers.

Conventions used throughout the package:

- Index sets are 1-based: a support is a subset of {1..p}, a partition splits
  the canonical support positions {1..k}.  Numpy indexing subtracts 1.
- The support is split into (s_dif, s_eq) with s_dif nonempty; all
  information measures are indexed by ell = |s_dif|.
- Randomness comes from the counter-based Philox generator keyed by
  SeedSequence([seed, *stream]), so every (seed, stream) pair draws
  reproducibly.  Streams are independent apart from one case: SeedSequence
  pads its entropy pool of four 32-bit words with zeros, so entropy lists
  that differ only by trailing zero words within the pool share a
  generator.  `rng_stream(7, 5)` draws what `rng_stream(7, 5, 0)` draws, and
  `rng_stream(7)` what `rng_stream(7, 0)` and `rng_stream(7, 0, 0)` draw;
  `rng_stream(7, 1, 2, 3)` and `rng_stream(7, 1, 2, 3, 0)` differ (the zero
  lies past the pool).  So `run_cell`'s trial 0 at n index 0, stream
  (0, 0), draws what `rng_stream(seed)` draws.  The keying stays as it is:
  changing it would change every simulated number.  `rng_stream` builds a
  new generator for its caller to keep;
  `sample_realization` draws trial t of a range on stream (*stream, t) from
  one generator per thread, re-keyed for every trial it draws, and reads
  the keys of a trial range as rows of memoized tables of 256 consecutive
  trials' keys.
- `sample_realization` draws a range of trials as one `RealizationBlock` of
  stacked arrays, the only trial type: per trial it takes only the draws,
  then maps the whole block to designs and outputs at once.
- A support is drawn as `np.sort(rng.choice(p, size=k, replace=False))`
  would draw it.  Where `choice` runs Floyd's algorithm, each trial reads
  the raw words of its 32-bit draws, and one pass over the block runs the
  steps `choice` takes on them (Floyd's, then its shuffle) for all trials.

The observation channels (linear, one-bit, group testing) and their designs
are defined in `channels`.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
import threading
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .channels import CHANNELS, GROUP_TESTING, LINEAR, ONE_BIT


class GuardError(ValueError):
    """A desk-scale guard refused an exponentially large computation."""


def _checked_seed(seed) -> int:
    if not 0 <= int(seed) < 2**63:
        raise ValueError(f"seed must lie in [0, 2^63), got {seed}")
    return int(seed)


def rng_stream(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator for (seed, stream...), seed in [0, 2^63)."""
    entropy = [_checked_seed(seed), *stream]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


# numpy's SeedSequence constants (pool of 4 uint32 words; hashmix, mix and
# generate_state multipliers).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# Trials per key table: one table costs about 0.4 ms, 64 of them 256 KB.
_KEY_TABLE_SIZE = 256


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence
    splits each entropy entry (0 is one word)."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


@functools.lru_cache(maxsize=64)
def _key_table(seed: int, prefix: tuple[int, ...], t0: int) -> np.ndarray:
    """Read-only (256, 2) uint64 table whose row i is
    SeedSequence([seed, *prefix, t0 + i]).generate_state(2, np.uint64).

    An integer-exact port of SeedSequence's entropy pool (hashmix, mix, the
    extra loop for words beyond the pool) and of generate_state, run over
    the t axis at once.  uint32 values live in uint64 lanes and every
    product is masked back to 32 bits, so nothing overflows.
    """
    n = _KEY_TABLE_SIZE
    words = [np.full(n, w, np.uint64) for v in (seed, *prefix) for w in _uint32_words(v)]
    words.append(np.arange(t0, t0 + n, dtype=np.uint64))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        # uint64 wraparound is a multiple of 2^32, so the mask gives the
        # uint32 difference.
        r = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _MASK32
        return r ^ (r >> 16)

    zero = np.zeros(n, np.uint64)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    out = []
    for value in pool:  # generate_state(2, uint64) takes 4 words, one pool cycle
        value = value ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ (value >> 16))
    table = np.stack([out[0] | out[1] << 32, out[2] | out[3] << 32], axis=1)
    table.setflags(write=False)
    return table


def _stream_keys(seed: int, prefix: tuple[int, ...], trials: range) -> np.ndarray:
    """(T x 2) uint64 Philox keys, row i that of SeedSequence([seed, *prefix,
    trials[i]]).

    Consecutive trial indices below 2^32 after a prefix of non-negative ints
    are read as rows of the tables of their 256-trial chunks; any other
    stream asks SeedSequence itself, which also raises on entries it refuses.
    """
    if (
        all(isinstance(v, (int, np.integer)) and v >= 0 for v in prefix)
        and trials.step == 1
        and 0 <= trials.start < trials.stop <= _MASK32 + 1
    ):
        prefix = tuple(int(v) for v in prefix)
        t0, t1 = trials.start, trials.stop
        chunks = range(t0 - t0 % _KEY_TABLE_SIZE, t1, _KEY_TABLE_SIZE)
        rows = [_key_table(seed, prefix, c)[max(t0 - c, 0) : t1 - c] for c in chunks]
        return rows[0] if len(rows) == 1 else np.concatenate(rows)
    keys = [np.random.SeedSequence([seed, *prefix, t]).generate_state(2, np.uint64) for t in trials]
    return np.array(keys, dtype=np.uint64).reshape(-1, 2)


_THREAD = threading.local()
_ZERO_WORDS = np.zeros(4, np.uint64)
_ZERO_WORDS.setflags(write=False)


def _rekeyed_generator(key: np.ndarray) -> np.random.Generator:
    """This thread's Generator(Philox), reset to the state a fresh
    Philox(SeedSequence) with this key starts in: zero counter, empty buffer.

    The generator lives in _THREAD, one per thread, not in the module: the
    sampler is public, and one generator shared by threads drawing at once
    would be re-keyed by one between another's draws."""
    gen = getattr(_THREAD, "generator", None)
    if gen is None:
        gen = _THREAD.generator = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": key},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


@functools.lru_cache(maxsize=64)
def _choice_draws(p: int, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Read-only uint64 spans of the 32-bit draws `Generator.choice(p,
    size=k, replace=False)` takes where it runs Floyd's algorithm on them
    (p <= 2^32, and p <= 10000 or k <= p // 50), and the Lemire threshold
    (2^32 - span) mod span of each: a draw on [0, j] for j = p - k .. p - 1
    (none for j = 0), then the k - 1 draws on [0, i], i = k - 1 .. 1, of
    the shuffle the sort undoes.  None where `choice` takes other steps."""
    if p > _MASK32 + 1 or (p > 10000 and k > p // 50):
        return None
    spans = np.array([*range(max(p - k, 1), p), *range(k - 1, 0, -1)], np.uint64) + 1
    thresholds = (_MASK32 + 1 - spans) % spans
    for a in (spans, thresholds):
        a.setflags(write=False)
    return spans, thresholds


def _floyd_supports(words: np.ndarray, p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted supports (T x k, 0-based) that `choice` draws on each row of
    words (T x w uint64, a fresh generator's first raw words, w = ceil(m / 2)
    for its m 32-bit draws), and a (T,) mask of the rows it does not.

    Draw d is Lemire's on the low (d even) or high half of word d // 2, as
    `next_uint32` splits each word: v = (half * span) >> 32, unless the
    product's low 32 bits fall below the threshold.  Then `choice` draws
    again on a further word, and the row is marked.  Floyd's step at j
    takes j where v is already chosen."""
    spans, thresholds = _choice_draws(p, k)
    halves = words.astype("<u8", copy=False).view("<u4")[:, : len(spans)]
    product = halves * spans
    rejected = ((product & _MASK32) < thresholds).any(axis=1)
    first = int(p == k)  # the draw on [0, 0] takes no word and gives 0
    chosen = np.zeros((len(words), k), dtype=np.int64)
    chosen[:, first:] = product[:, : k - first] >> 32
    for s in range(1, k):
        chosen[(chosen[:, :s] == chosen[:, s, None]).any(axis=1), s] = p - k + s
    chosen.sort(axis=1)
    return chosen, rejected


# Largest k whose supports `sample_realization` draws by the block pass, and
# then only for blocks of more than k trials; `choice` draws the others.
# The pass pays a numpy step per Floyd step once per block and T k^2
# compares.  Per trial, block pass against a re-keyed `choice` (fastest of
# 7 runs, 2-vCPU VM, numpy 2.4.6, p = 10^6 unless given):
# k = 2, p = 16: T = 1: 34.8 vs 21.1 us, T = 3: 16.4 vs 20.2;
# k = 8, p = 1000: T = 3: 33.1 vs 20.4, T = 9: 15.6 vs 20.7;
# k = 32: T = 17: 26.4 vs 21.6, T = 33: 18.3 vs 21.1;
# k = 48: T = 49: 20.4 vs 21.7, T = 101: 15.8 vs 22.1;
# k = 64: T = 65: 23.2 vs 21.5, T = 101: 20.0 vs 22.6;
# k = 100: T = 101: 30.9 vs 25.3.
_FLOYD_MAX_K = 48


def _block_supports(
    keys: np.ndarray, p: int, k: int, draw_rest, park_half: bool = False, floyd: bool = True
) -> np.ndarray:
    """(T x k) supports, row i np.sort(rng.choice(p, size=k, replace=False))
    of a fresh generator keyed keys[i]; draw_rest(i, rng) then takes trial
    i's further draws from that generator.

    With floyd, where `choice` runs Floyd's algorithm on 32-bit draws, each
    trial reads their raw words in one call and one `_floyd_supports` pass
    computes the block's supports.  A trial with a rejected draw is drawn
    again, by `choice` on a re-keyed generator, and so is its draw_rest.  An
    odd draw count leaves the high half of the last word parked, as
    `choice` leaves it, only with park_half: later 32-bit draws read it,
    64-bit ones never.  Every other support is drawn by `choice` itself.
    """
    index = np.empty((len(keys), k), dtype=np.int64)
    draws = _choice_draws(p, k) if floyd else None
    redraw = range(len(keys))
    if draws is not None:
        m = len(draws[0])
        w, park = (m + 1) // 2, park_half and m % 2
        words = np.empty((len(keys), w), dtype=np.uint64)
        for i, key in enumerate(keys):
            rng = _rekeyed_generator(key)
            if park:  # a 32-bit draw reads the last word and parks its high half
                words[i, :-1] = rng.bit_generator.random_raw(w - 1)
                words[i, -1] = rng.integers(_MASK32 + 1, dtype=np.uint32)
            else:
                words[i] = rng.bit_generator.random_raw(w)
            draw_rest(i, rng)
        index, rejected = _floyd_supports(words, p, k)
        redraw = rejected.nonzero()[0].tolist()
    for i in redraw:
        rng = _rekeyed_generator(keys[i])
        index[i] = np.sort(rng.choice(p, size=k, replace=False))
        draw_rest(i, rng)
    return index


@dataclass(frozen=True)
class ProblemDims:
    """Ambient dimension p, sparsity k, measurements n, allowed misses d_max."""

    p: int
    k: int
    n: int = 0
    d_max: int = 0

    def __post_init__(self):
        if not 1 <= self.k <= self.p:
            raise ValueError(f"need 1 <= k <= p, got k={self.k}, p={self.p}")
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if not 0 <= self.d_max <= self.k - 1:
            raise ValueError(f"need 0 <= d_max <= k-1, got d_max={self.d_max}")


@dataclass(frozen=True)
class ModelSpec:
    """Observation channel; the measurement design follows from it.

    linear/one-bit use the unit Gaussian design; group testing uses the
    Bernoulli(nu/k) design.
    """

    channel: str
    sigma: float = 1.0
    rho: float = 0.0
    nu: float = float(np.log(2.0))

    def __post_init__(self):
        channel = CHANNELS.get(self.channel)
        if channel is None:
            raise ValueError(f"unknown channel {self.channel!r}")
        channel.validate(self)

    @staticmethod
    def linear(sigma: float) -> "ModelSpec":
        return ModelSpec(channel=LINEAR, sigma=sigma)

    @staticmethod
    def one_bit(sigma: float) -> "ModelSpec":
        return ModelSpec(channel=ONE_BIT, sigma=sigma)

    @staticmethod
    def group_testing(rho: float = 0.0, nu: float = float(np.log(2.0))) -> "ModelSpec":
        return ModelSpec(channel=GROUP_TESTING, rho=rho, nu=nu)

    def bernoulli_p(self, k: int) -> float:
        """Per-entry design probability nu/k for group testing."""
        p1 = self.nu / k
        if p1 > 1.0:
            raise ValueError(f"nu/k = {p1} exceeds 1; invalid Bernoulli design")
        return p1


FIXED_VECTOR = "fixed-vector"
PERMUTED_VECTOR = "permuted-vector"
IID_GAUSSIAN = "iid-gaussian"
ALL_ONES = "all-ones"


@dataclass(frozen=True)
class SignalPrior:
    """Distribution of the non-zero entries beta_S (permutation-invariant)."""

    variant: str
    b: tuple[float, ...] = ()
    sigma_beta_sq: float = 0.0

    def __post_init__(self):
        if self.variant in (FIXED_VECTOR, PERMUTED_VECTOR):
            if len(self.b) == 0:
                raise ValueError(f"{self.variant} prior needs a non-empty vector b")
            # a zero entry is off the support; NaN or inf makes every
            # likelihood NaN, and the decoders then report errors silently
            if not all(math.isfinite(v) and v != 0.0 for v in self.b):
                raise ValueError(f"prior vector b needs finite non-zero entries, got {self.b}")
        elif self.variant == IID_GAUSSIAN:
            if not 0.0 < self.sigma_beta_sq < math.inf:
                raise ValueError(f"iid-gaussian prior needs finite sigma_beta_sq > 0, "
                                 f"got {self.sigma_beta_sq}")
        elif self.variant != ALL_ONES:
            raise ValueError(f"unknown prior variant {self.variant!r}")

    @staticmethod
    def fixed(b: Sequence[float]) -> "SignalPrior":
        return SignalPrior(variant=FIXED_VECTOR, b=tuple(float(x) for x in b))

    @staticmethod
    def permuted(b: Sequence[float]) -> "SignalPrior":
        return SignalPrior(variant=PERMUTED_VECTOR, b=tuple(float(x) for x in b))

    @staticmethod
    def iid_gaussian(sigma_beta_sq: float) -> "SignalPrior":
        return SignalPrior(variant=IID_GAUSSIAN, sigma_beta_sq=float(sigma_beta_sq))

    @staticmethod
    def all_ones() -> "SignalPrior":
        return SignalPrior(variant=ALL_ONES)

    @property
    def m_beta(self) -> int:
        """Number of distinct values among the fixed entries."""
        if self.variant in (FIXED_VECTOR, PERMUTED_VECTOR):
            return len(set(self.b))
        if self.variant == ALL_ONES:
            return 1
        raise ValueError("m_beta is only defined for discrete priors")


def validate_pairing(model: ModelSpec, prior: SignalPrior, k: int) -> None:
    CHANNELS[model.channel].check_prior(model, prior, k)
    if prior.variant in (FIXED_VECTOR, PERMUTED_VECTOR) and len(prior.b) != k:
        raise ValueError(f"prior vector length {len(prior.b)} != k = {k}")


@dataclass(frozen=True)
class Partition:
    """Split of the canonical support positions {1..k} with s_dif nonempty."""

    s_dif: tuple[int, ...]
    s_eq: tuple[int, ...]

    def __post_init__(self):
        dif, eq = set(self.s_dif), set(self.s_eq)
        if not dif:
            raise ValueError("s_dif must be nonempty")
        if dif & eq:
            raise ValueError("s_dif and s_eq must be disjoint")
        k = len(dif) + len(eq)
        if dif | eq != set(range(1, k + 1)):
            raise ValueError("s_dif and s_eq must partition {1..k}")
        object.__setattr__(self, "s_dif", tuple(sorted(dif)))
        object.__setattr__(self, "s_eq", tuple(sorted(eq)))

    @property
    def ell(self) -> int:
        return len(self.s_dif)

    @property
    def k(self) -> int:
        return len(self.s_dif) + len(self.s_eq)

    def dif_index(self) -> np.ndarray:
        """0-based numpy index array for s_dif."""
        return np.asarray(self.s_dif, dtype=int) - 1

    def eq_index(self) -> np.ndarray:
        return np.asarray(self.s_eq, dtype=int) - 1

    @classmethod
    def _of_sorted(cls, s_dif: tuple[int, ...], s_eq: tuple[int, ...]) -> Partition:
        """A split known to be valid, both tuples sorted: skips the set checks."""
        part = object.__new__(cls)
        object.__setattr__(part, "s_dif", s_dif)
        object.__setattr__(part, "s_eq", s_eq)
        return part


def min_info_partition(b: Sequence[float], ell: int) -> Partition:
    """Partition putting the ell smallest-magnitude entries into s_dif.

    This minimizes sum_{i in s_dif} b_i^2 at fixed ell (ties broken by lowest
    index), which minimizes the conditional mutual information for the linear
    and 1-bit channels and is the canonical per-ell representative for group
    testing, where all partitions of a given size are equivalent.
    """
    return next(_splits(_magnitude_order(b, ell), [ell]))


def min_info_partitions(b: Sequence[float]) -> list[Partition]:
    """min_info_partition(b, ell) for ell = 1..k, from one sort of |b|."""
    order = _magnitude_order(b, 1)
    return list(_splits(order, range(1, len(order) + 1)))


def max_info_partition(b: Sequence[float], ell: int) -> Partition:
    """Partition putting the ell largest-magnitude entries into s_dif."""
    return next(_splits(_magnitude_order(b, ell)[::-1], [ell]))


def _magnitude_order(b: Sequence[float], ell: int) -> list[int]:
    """1-based positions of b by increasing |b|, ties by index, for a split
    with 1 <= ell <= k entries in s_dif (ValueError otherwise)."""
    b = np.asarray(b, dtype=float)
    if not 1 <= ell <= b.size:
        raise ValueError(f"need 1 <= ell <= k, got ell={ell}, k={b.size}")
    return (np.argsort(np.abs(b), kind="stable") + 1).tolist()


def _splits(order: list[int], ells) -> Iterator[Partition]:
    """The split rule: s_dif = the first ell positions of `order` (a
    permutation of 1..k), for each of the increasing ells.  Each split moves
    its new positions from the sorted s_eq into the sorted s_dif."""
    dif, eq = [], sorted(order)
    taken = 0
    for ell in ells:
        for i in order[taken:ell]:
            bisect.insort(dif, i)
            del eq[bisect.bisect_left(eq, i)]
        taken = ell
        yield Partition._of_sorted(tuple(dif), tuple(eq))


def enumerate_partitions(k: int, ell_set: Sequence[int] | None = None) -> Iterator[Partition]:
    """Yield every partition with |s_dif| in ell_set exactly once.

    Guarded at k <= 24: there are 2^k - 1 partitions in total.
    """
    if k > 24:
        raise GuardError(f"enumerate_partitions is limited to k <= 24, got k={k}")
    ells = sorted(set(ell_set)) if ell_set is not None else list(range(1, k + 1))
    universe = range(1, k + 1)
    for ell in ells:
        if not 1 <= ell <= k:
            raise ValueError(f"ell={ell} outside 1..k")
        for dif in itertools.combinations(universe, ell):
            eq = tuple(i for i in universe if i not in dif)
            yield Partition(s_dif=dif, s_eq=eq)


def snr_db(prior: SignalPrior, model: ModelSpec, k: int) -> float:
    """Per-sample SNR 10 log10(k sigma_beta^2 / sigma^2) for Gaussian priors."""
    if prior.variant != IID_GAUSSIAN:
        raise ValueError("snr_db is defined for the iid-gaussian prior")
    return 10.0 * float(np.log10(k * prior.sigma_beta_sq / model.sigma**2))


def c_beta_from_snr(snr: float, sigma: float = 1.0) -> float:
    """Inverse of snr_db at fixed sigma: c_beta = k sigma_beta^2.  A sigma
    that is not a finite number > 0 raises ValueError, and then so do a
    c_beta beyond the float range and one that underflows to 0."""
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be > 0 and finite, got {sigma:g}")
    try:
        c_beta = sigma**2 * 10.0 ** (snr / 10.0)
    except OverflowError:
        c_beta = np.inf
    if not np.isfinite(c_beta):
        raise ValueError(
            f"SNR {snr:g} dB puts the signal power sigma^2 10^(SNR/10) beyond the float range"
        )
    if not c_beta > 0.0:
        raise ValueError(
            f"SNR {snr:g} dB puts the signal power sigma^2 10^(SNR/10) below the float range"
        )
    return c_beta


def _support_columns(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """(T x n x k) columns index (T x k, 0-based) of the (T x n x p) designs
    x, each trial's laid out column-major as x[t][:, index[t]] is, so that
    its products with b sum in the same order."""
    return x.swapaxes(1, 2)[np.arange(len(index))[:, None], index].swapaxes(1, 2)


@dataclass(frozen=True)
class RealizationBlock:
    """T trials' (S, beta, X, Y) draws, stacked: support (T x k, each row
    sorted and 1-based), beta (T x p), x (T x n x p) and y (T x n)."""

    support: np.ndarray
    beta: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return len(self.support)

    def x_support(self) -> np.ndarray:
        """(T x n x k) design columns on each trial's support, trial t's
        laid out column-major as x[t][:, support[t] - 1] is."""
        return _support_columns(self.x, self.support - 1)


def _entry_draw(prior: SignalPrior, k: int):
    """The per-trial draw rng -> b_S of a prior that draws its k non-zero
    entries, or None for a prior that fixes them."""
    if prior.variant == PERMUTED_VECTOR:
        b = np.asarray(prior.b, dtype=float)
        return lambda rng: rng.permutation(b)
    if prior.variant == IID_GAUSSIAN:
        scale = np.sqrt(prior.sigma_beta_sq)
        return lambda rng: rng.normal(0.0, scale, size=k)
    return None


def sample_realization(
    dims: ProblemDims,
    model: ModelSpec,
    prior: SignalPrior,
    seed: int,
    stream: tuple[int, ...] = (),
    *,
    trials: range,
) -> RealizationBlock:
    """Draw (S, beta, X, Y) for each trial t of the range trials: S uniform
    over k-subsets, X i.i.d. from the design, beta_S from the prior, Y
    conditionally i.i.d. per row.

    Deterministic given (seed, stream, t): trial t takes the draws of
    rng_stream(seed, *stream, t) from this thread's re-keyed generator,
    which never leaves this function.  trials has no default: the draws of
    rng_stream(seed, *stream) themselves belong to no trial.

    Per trial the generator takes its draws in a fixed order: the support
    (`_block_supports`), the prior's entries (if the prior draws them), the
    raw design draws and the noise draws, the last two straight into the
    block's buffers.  The channel then maps the whole block to designs and
    outputs.
    """
    validate_pairing(model, prior, dims.k)
    seed = _checked_seed(seed)
    keys = _stream_keys(seed, tuple(stream), trials)
    n, p, k, count = dims.n, dims.p, dims.k, len(keys)
    channel = CHANNELS[model.channel]
    b = np.empty((count, k))
    draw_b = _entry_draw(prior, k)
    if draw_b is None:
        b[:] = prior.b if prior.variant == FIXED_VECTOR else 1.0
    raw, noise = np.empty((count, n, p)), np.empty((count, n))

    def draw_rest(i, rng):
        if draw_b:
            b[i] = draw_b(rng)
        channel.draw(model, rng, raw[i], noise[i])

    # the permuted prior's shuffle is the one later draw on 32-bit words
    park_half = prior.variant == PERMUTED_VECTOR
    floyd = k < count and k <= _FLOYD_MAX_K
    index = _block_supports(keys, p, k, draw_rest, park_half, floyd)
    x = channel.design(model, raw, k)
    y = channel.outputs(model, _support_columns(x, index), b, noise)
    beta = np.zeros((count, p))
    beta[np.arange(count)[:, None], index] = b
    return RealizationBlock(support=index + 1, beta=beta, x=x, y=y)
