"""Coverage simulator: sampling exactness, reproducibility, failure rates."""

import hashlib
import math
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import pytest

from oracle import pmf_exact
from sketchbound import DomainError, coverage, coverage_run, lower_bound, upper_bound
from sketchbound.coverage import _cdf_table, _trial_words, sample_successes
from sketchbound.exact import run
from sketchbound.model import QueryInstance, support

# chi-square 0.999 quantiles by degrees of freedom, from standard tables
CHI2_999 = {4: 18.467, 5: 20.515, 6: 22.458, 7: 24.322, 8: 26.125, 9: 27.877, 10: 29.588}
LAST_UNIFORM = 1 - 2.0 ** -53


def stream_word(seed, index):
    """Trial index's word: the index-th big-endian 64-bit word of the seed's SHAKE-256 stream."""
    stream = hashlib.shake_256(f"{seed}:".encode()).digest(8 * index + 8)
    return int.from_bytes(stream[8 * index:], "big")


def word_uniform(word):
    """The uniform a word stands for: its top 53 bits."""
    return (word >> 11) * 2.0 ** -53


def word(u):
    """The first word whose uniform is u rounded down to a multiple of 2^-53, for u in [0, 1)."""
    return math.floor(u * 2.0 ** 53) << 11


def uniform(seed, index):
    """Trial index's uniform."""
    return word_uniform(stream_word(seed, index))


@lru_cache(maxsize=8)
def exact_cdf(n, m, s):
    """(first, CDF) of the table as exact ratios S_i / S of the running sums of the
    exact.run terms it walks from the mode, checked against the table's own size."""
    lo, hi = support(n, m, s)
    mode = (s + 1) * (m + 1) // (n + 2)
    one = 1 << (64 + 2 * s.bit_length())
    up = run(n, m, s, mode, hi, one, one >> 60)
    down = run(n, n - m, s, s - mode, s - lo, one, one >> 60)
    sums = list(accumulate(down[::-1] + [one] + up))
    first, cuts = _cdf_table(n, m, s)
    assert (first, len(cuts)) == (mode - len(down), len(sums))
    return first, [Fraction(c, sums[-1]) for c in sums]


def quantile(n, m, s, u):
    """The u-quantile by one bisection of the exact CDF: K <= first + i exactly when u < cdf[i]."""
    first, cdf = exact_cdf(n, m, s)
    return first + min(bisect_right(cdf, Fraction(u)), len(cdf) - 1)


def draw(n, m, s, u):
    """The sampler's one draw from the single uniform u, a multiple of 2^-53."""
    assert word_uniform(word(u)) == u
    return draw_word(n, m, s, word(u))


def draw_word(n, m, s, w):
    """The sampler's one draw from the single word w."""
    draws = sample_successes(n, m, s, [w])
    assert list(draws.values()) == [1]
    return next(iter(draws))


def test_sample_degenerate_populations():
    for u in (0.0, 0.5, LAST_UNIFORM):
        assert draw(50, 50, 12, u) == 12
        assert draw(50, 0, 12, u) == 0
        assert draw(1, 1, 1, u) == 1
    assert sample_successes(50, 50, 12, map(word, [0.0, 0.5, LAST_UNIFORM])) == Counter({12: 3})


def test_sample_rejects_bad_domains():
    with pytest.raises(DomainError):
        sample_successes(10, 11, 4, [word(0.5)])
    with pytest.raises(DomainError):
        sample_successes(10, 5, 0, [word(0.5)])


def test_sample_is_the_exact_quantile_function():
    # u at the midpoint of [F(j-1), F(j)), rounded down to a word's uniform, maps to j,
    # F from the exact pmf; at n <= 25 every step of F is far wider than 2^-53
    for n in range(1, 26):
        for m in range(n + 1):
            for s in range(1, n + 1):
                lo, hi = support(n, m, s)
                below = Fraction(0)
                for j in range(lo, hi + 1):
                    upto = below + pmf_exact(n, m, s, j)
                    u = word_uniform(word(float((below + upto) / 2)))
                    assert draw(n, m, s, u) == j, (n, m, s)
                    below = upto
                assert draw(n, m, s, 0.0) == lo
                assert draw(n, m, s, LAST_UNIFORM) == hi


CASES = [(n, m, s) for n in (1, 2, 7, 40) for m in range(n + 1) for s in range(1, n + 1)]
CASES += [(2500, 500, 150), (9000, 36, 600), (10**6, 3 * 10**5, 10**4),
          (10**12, 9 * 10**11, 10**6)]


def test_sample_counts_every_uniform_at_its_quantile():
    # the words of the uniforms at and just below every CDF entry, rounded down to a
    # multiple of 2^-53, 0, the last uniform, duplicates; the exact quantile is the reference
    rng = random.Random(5)
    for n, m, s in CASES:
        floors = [math.floor(c * 2**53) << 11 for c in exact_cdf(n, m, s)[1] if c < 1]
        words = floors + floors + [max(w - (1 << 11), 0) for w in floors]
        words += [word(u) for u in [0.0, 0.0, LAST_UNIFORM, LAST_UNIFORM]]
        words += [word(rng.random()) for _ in range(50)]
        rng.shuffle(words)
        draws = sample_successes(n, m, s, iter(words))
        assert draws == Counter(quantile(n, m, s, word_uniform(w)) for w in words), (n, m, s)
        assert sum(draws.values()) == len(words) and min(draws.values()) > 0
    assert sample_successes(40, 15, 10, []) == Counter()


def test_words_at_each_cut_land_on_the_side_of_their_uniform():
    # at the exact entry c = S_i / S the cut is ceil(c 2^53) << 11: the word just below it
    # has a uniform below c, so K <= first + i, and the cut itself, when it is a word, one
    # at or above c
    for n, m, s in CASES:
        first, cdf = exact_cdf(n, m, s)
        for i, (c, cut) in enumerate(zip(cdf, _cdf_table(n, m, s)[1], strict=True)):
            assert cut == math.ceil(c * 2**53) << 11
            below = cut - 1
            assert word_uniform(below) < c
            assert draw_word(n, m, s, below) == quantile(n, m, s, word_uniform(below)) <= first + i
            if cut < 2**64:
                assert word_uniform(cut) >= c
                assert draw_word(n, m, s, cut) == quantile(n, m, s, word_uniform(cut)) > first + i
            else:  # the table's last entry, and any within 2^-53 of it
                assert c > 1 - Fraction(1, 2**53)


def test_flagship_table_is_bounded_and_centred():
    n, m, s = 10**12, 9 * 10**11, 10**7
    first, cdf = exact_cdf(n, m, s)
    sd = math.sqrt(s * (m / n) * (1 - m / n) * (n - s) / (n - 1))
    # a cut at 2^-60 of the mode term keeps about 9.6 sd on each side of it
    assert len(cdf) < 20 * sd
    assert first <= draw(n, m, s, 0.0) < draw(n, m, s, LAST_UNIFORM)
    # E[K] = first + sum over the table of P(K > j)
    mean = first + sum(1 - c for c in cdf[:-1])
    assert abs(mean - Fraction(s * m, n)) < 1e-6 * sd


def test_sample_mean_matches_hypergeometric():
    n, m, s, trials = 100, 30, 20, 100_000
    draws = sample_successes(n, m, s, _trial_words(99, trials))
    total = sum(k * count for k, count in draws.items())
    mean = total / trials
    # Var(K) = s m/n (1-m/n) (n-s)/(n-1); three sigma of the trial mean
    var = s * (m / n) * (1 - m / n) * (n - s) / (n - 1)
    slack = 3 * math.sqrt(var / trials)
    assert abs(mean - s * m / n) <= slack


def test_sample_distribution_chi_square():
    n, m, s, trials = 40, 15, 10, 100_000
    draws = sample_successes(n, m, s, _trial_words(7, trials))
    counts = [draws[j] for j in range(s + 1)]
    expected = [float(pmf_exact(n, m, s, j)) * trials for j in range(s + 1)]
    # merge sparse cells into their inner neighbor so every expected count >= 5
    bins: list[tuple[float, float]] = []
    acc_o, acc_e = 0.0, 0.0
    for j in range(s + 1):
        acc_o += counts[j]
        acc_e += expected[j]
        if acc_e >= 5:
            bins.append((acc_o, acc_e))
            acc_o, acc_e = 0.0, 0.0
    if acc_e > 0:
        o, e = bins.pop()
        bins.append((o + acc_o, e + acc_e))
    stat = sum((o - e) ** 2 / e for o, e in bins)
    dof = len(bins) - 1
    assert dof in CHI2_999, f"unexpected binning, dof={dof}"
    assert stat < CHI2_999[dof], f"chi2={stat:.2f} at dof={dof}"


def test_trial_stream_hashes_seed_and_index():
    for seed in (0, -17, 2**64 + 1):
        assert _trial_words(seed, 1001) == tuple(stream_word(seed, i) for i in range(1001))
    assert _trial_words(0, 2) != _trial_words(1, 2)


def test_a_run_is_the_prefix_of_any_longer_run():
    for seed in (0, -17, 2**64 + 1):
        longest = _trial_words(seed, 3000)
        for trials in (1, 2, 7, 1000, 2999):
            assert _trial_words(seed, trials) == longest[:trials]
    # so a longer run's counts include the shorter run's
    short = sample_successes(300, 90, 40, _trial_words(42, 500))
    long = sample_successes(300, 90, 40, _trial_words(42, 2000))
    assert not short - long and sum(short.values()) == 500


def reference_coverage(n, m, s, delta, trials, seed, engine):
    """Failure counts with both bounds solved at every observed k."""
    draws = Counter(quantile(n, m, s, uniform(seed, i)) for i in range(trials))
    up = down = 0
    for k, count in draws.items():
        inst = QueryInstance(n, s, k, delta)
        up += count * (m > upper_bound(inst, engine).m_hat)
        down += count * (m < lower_bound(inst, engine).m_hat)
    return up, down, len(draws)


def test_bisection_matches_every_k_and_bounds_its_solves(monkeypatch):
    calls = []
    for name in ("upper_bound", "lower_bound"):
        real = getattr(coverage, name)
        monkeypatch.setattr(coverage, name,
                            lambda *args, real=real: calls.append(args) or real(*args))
    grid = [(1, 0, 1), (1, 1, 1), (40, 0, 12), (40, 40, 12), (40, 17, 40), (90, 31, 25),
            (300, 90, 40), (300, 150, 120), (1200, 400, 300)]
    widest = 0
    for n, m, s in grid:
        for delta in (Fraction(1, 10**6), Fraction(1, 20), Fraction(1, 2), Fraction(999, 1000)):
            for engine in ("exact", "direct", "stirling"):
                for trials in (1, 400):
                    seed = n + m + s + trials
                    calls.clear()
                    got = coverage_run(n, m, s, delta, trials, seed, engine=engine)
                    up, down, distinct = reference_coverage(n, m, s, delta, trials, seed, engine)
                    key = (n, m, s, delta, engine, trials)
                    assert (got.upper_failures, got.lower_failures) == (up, down), key
                    assert len(calls) <= 2 * math.ceil(math.log2(distinct + 1)), key
                    widest = max(widest, distinct)
    assert widest >= 30


@pytest.mark.parametrize("delta", [Fraction(1, 20), Fraction(1, 100), Fraction(1, 10**6)])
def test_benchmark_shapes_settle_each_side_in_two_solves(monkeypatch, delta):
    # the coverage benchmark's three (n, s, m) centres, engine auto (the exact oracle)
    solves = {"upper_bound": 0, "lower_bound": 0}
    for name in solves:
        real = getattr(coverage, name)

        def spy(*args, name=name, real=real):
            solves[name] += 1
            return real(*args)
        monkeypatch.setattr(coverage, name, spy)
    for n, s, m in ((2_500, 150, 500), (4_000, 250, 200), (9_000, 600, 36)):
        for seed in (0, 1):
            solves.update(upper_bound=0, lower_bound=0)
            got = coverage_run(n, m, s, delta, 2000, seed)
            assert max(solves.values()) <= 2, (n, s, m, seed, solves)
            up, down, _ = reference_coverage(n, m, s, delta, 2000, seed, "auto")
            assert (got.upper_failures, got.lower_failures) == (up, down), (n, s, m, seed)


def test_reports_are_reproducible():
    a = coverage_run(300, 90, 40, 0.1, trials=500, seed=42)
    b = coverage_run(300, 90, 40, 0.1, trials=500, seed=42)
    assert a == b
    c = coverage_run(300, 90, 40, 0.1, trials=500, seed=43)
    assert (a.upper_failures, a.lower_failures) != (c.upper_failures, c.lower_failures)


def test_single_trial_rates_are_binary():
    r = coverage_run(100, 40, 10, 0.2, trials=1, seed=5)
    assert r.empirical_upper_rate in (0.0, 1.0)
    assert r.empirical_lower_rate in (0.0, 1.0)
    assert r.trials == 1


def test_seed_is_checked_as_an_integer():
    assert coverage_run(300, 90, 40, 0.1, 200, 1.0) == coverage_run(300, 90, 40, 0.1, 200, 1)
    assert coverage_run(300, 90, 40, 0.1, 200, "7").seed == 7
    with pytest.raises(DomainError):
        coverage_run(300, 90, 40, 0.1, 200, "x")
    with pytest.raises(DomainError):
        coverage_run(300, 90, 40, 0.1, 200, 1.5)


def test_zero_trials_rejected():
    with pytest.raises(DomainError):
        coverage_run(100, 40, 10, 0.2, trials=0, seed=5)


def test_fractional_counts_rejected():
    for n, m, s, trials in [(1000, 300.5, 50, 10), (1000.5, 300, 50, 10),
                            (1000, 300, "fifty", 10), (1000, 300, 50, 2.5)]:
        with pytest.raises(DomainError):
            coverage_run(n, m, s, 0.05, trials, 0)
    assert coverage_run(1e3, 300.0, "50", 0.05, 10, 0) == coverage_run(1000, 300, 50, 0.05, 10, 0)


def test_failure_rates_within_budget():
    delta, trials = 0.1, 2000
    r = coverage_run(300, 90, 40, delta, trials=trials, seed=1)
    slack = 3 * math.sqrt(delta * (1 - delta) / trials)
    assert r.empirical_upper_rate <= delta + slack
    assert r.empirical_lower_rate <= delta + slack
    assert r.upper_failures == round(r.empirical_upper_rate * trials)


def test_extreme_delta_still_guaranteed():
    delta, trials = 0.999, 400
    r = coverage_run(60, 20, 10, delta, trials=trials, seed=3)
    slack = 3 * math.sqrt(delta * (1 - delta) / trials)
    assert r.empirical_upper_rate <= delta + slack
    assert r.empirical_lower_rate <= delta + slack


def test_report_counts_consistent():
    r = coverage_run(200, 77, 30, 0.05, trials=300, seed=11)
    assert 0 <= r.upper_failures <= r.trials
    assert 0 <= r.lower_failures <= r.trials
    assert r.empirical_upper_rate == r.upper_failures / r.trials
    assert r.empirical_lower_rate == r.lower_failures / r.trials
    assert r.seed == 11
    assert not hasattr(r, "__dict__")
