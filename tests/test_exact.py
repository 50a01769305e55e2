"""Exact-rational oracle: pmf, tails, their identities, and the tail kernel;
the exact engine's bounds against the definition."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from oracle import pmf_exact, right_exact, sharp_lower, sharp_upper
from sketchbound import exact
from sketchbound import solver
from sketchbound import (
    DomainError,
    OracleLimitError,
    PrecisionContext,
    QueryInstance,
    TailEngine,
    left_tail,
    lower_bound,
    upper_bound,
)
from sketchbound.exact import left_tail_exact
from sketchbound.model import support

EXACT = TailEngine.EXACT


def test_pmf_examples():
    # C(5,2) * C(5,2) / C(10,4)
    assert pmf_exact(10, 5, 4, 2) == Fraction(100, 210)
    assert pmf_exact(5, 5, 3, 3) == 1
    assert pmf_exact(10, 2, 4, 3) == 0  # j > m
    assert pmf_exact(10, 8, 4, 1) == 0  # s - j > n - m
    assert pmf_exact(10, 5, 4, 5) == 0  # j > s
    assert pmf_exact(10, 5, 4, -1) == 0


def test_pmf_rejects_bad_domains():
    with pytest.raises(DomainError):
        pmf_exact(10, 11, 4, 2)
    with pytest.raises(DomainError):
        pmf_exact(10, 5, 11, 2)
    with pytest.raises(DomainError):
        pmf_exact(10, 5, 0, 0)
    with pytest.raises(DomainError):
        pmf_exact(10, -1, 4, 2)


def test_pmf_agrees_with_subset_enumeration():
    # independent ground truth: count size-s subsets of a labeled population
    n, m, s = 8, 3, 4
    population = list(range(n))
    successes = set(range(m))
    counts = [0] * (s + 1)
    for subset in combinations(population, s):
        counts[len(successes.intersection(subset))] += 1
    total = math.comb(n, s)
    for j in range(s + 1):
        assert pmf_exact(n, m, s, j) == Fraction(counts[j], total)


def test_left_tail_examples():
    assert left_tail_exact(10, 5, 4, 1) == Fraction(55, 210)
    assert left_tail_exact(10, 5, 4, 4) == 1
    assert left_tail_exact(10, 8, 4, 1) == 0  # m > n - (s - k)


def test_right_tail_examples():
    assert right_exact(10, 5, 4, 0) == 1
    assert right_exact(10, 0, 4, 0) == 1
    assert right_exact(10, 10, 10, 10) == 1
    assert right_exact(10, 5, 4, 2) == Fraction(155, 210)
    assert right_exact(10, 5, 4, 4) == Fraction(5, 210)


def test_right_tail_empty_sum_is_zero():
    # m < k leaves no support at or above k
    assert right_exact(10, 2, 4, 3) == 0
    # nor does k > s, even with m >= k
    assert right_exact(10, 10, 4, 5) == 0
    assert right_exact(10, 5, 4, 9) == 0


def test_pmf_sums_to_one():
    for n in (1, 2, 7, 12, 20):
        for m in range(0, n + 1):
            for s in range(1, n + 1):
                total = sum(pmf_exact(n, m, s, j) for j in range(0, s + 1))
                assert total == 1


def test_left_tail_monotone_shape():
    # flat at 1 while every support point is at or below k, strictly
    # decreasing from m = k through the last positive tail, zero after
    for n, s, k in [(12, 5, 2), (20, 8, 3), (15, 15, 6), (9, 4, 0)]:
        cutoff = n - (s - k)
        tails = [left_tail_exact(n, m, s, k) for m in range(0, n + 1)]
        for m in range(0, min(k, n) + 1):
            assert tails[m] == 1
        for m in range(k, cutoff):
            assert tails[m] > tails[m + 1]
        assert tails[cutoff] > 0
        for m in range(cutoff + 1, n + 1):
            assert tails[m] == 0


def test_complement_identity():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 40)
        m = rng.randrange(0, n + 1)
        s = rng.randrange(1, n + 1)
        k = rng.randrange(1, s + 1)
        assert right_exact(n, m, s, k) == 1 - left_tail_exact(n, m, s, k - 1)


def test_gap_identity_exact():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randrange(2, 120)
        m = rng.randrange(0, n)  # m < n
        s = rng.randrange(1, n + 1)
        k = rng.randrange(0, s + 1)
        lhs = left_tail_exact(n, m, s, k) - left_tail_exact(n, m + 1, s, k)
        rhs = pmf_exact(n, m, s, k) * Fraction(s - k, n - m)
        assert lhs == rhs


def test_upper_bound_examples():
    assert upper_bound(QueryInstance(10, 10, 7, 0.5), EXACT).m_hat == 7
    assert upper_bound(QueryInstance(20, 5, 5, 0.05), EXACT).m_hat == 20
    # frozen from the exhaustive scan over m = 0..20
    assert upper_bound(QueryInstance(20, 5, 2, 0.05), EXACT).m_hat == 15


def test_lower_bound_examples():
    assert lower_bound(QueryInstance(20, 5, 0, 0.05), EXACT).m_hat == 0
    assert lower_bound(QueryInstance(10, 10, 7, 0.5), EXACT).m_hat == 7
    dual = upper_bound(QueryInstance(20, 5, 3, 0.05), EXACT).m_hat
    assert lower_bound(QueryInstance(20, 5, 2, 0.05), EXACT).m_hat == 20 - dual == 2


def test_bisection_matches_exhaustive_scan():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randrange(1, 50)
        s = rng.randrange(1, n + 1)
        k = rng.randrange(0, s + 1)
        delta = rng.choice([Fraction(1, 2), Fraction(1, 10), Fraction(1, 20), Fraction(3, 7)])
        inst = QueryInstance(n, s, k, delta)
        assert upper_bound(inst, EXACT).m_hat == sharp_upper(inst)
        assert lower_bound(inst, EXACT).m_hat == sharp_lower(inst)


def test_duality_on_small_grid():
    for n in (5, 12, 23):
        for s in range(1, n + 1, 3):
            for k in range(0, s + 1):
                for delta in (Fraction(1, 20), Fraction(2, 5)):
                    low = lower_bound(QueryInstance(n, s, k, delta), EXACT).m_hat
                    up_dual = upper_bound(QueryInstance(n, s, s - k, delta), EXACT).m_hat
                    assert low == n - up_dual


def test_bound_definitions_hold():
    # the returned m really is the extreme member of the qualifying set
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randrange(2, 40)
        s = rng.randrange(1, n + 1)
        k = rng.randrange(0, s + 1)
        delta = Fraction(rng.randrange(1, 99), 100)
        inst = QueryInstance(n, s, k, delta)
        mu = upper_bound(inst, EXACT).m_hat
        assert left_tail_exact(n, mu, s, k) >= delta
        if mu < n:
            assert left_tail_exact(n, mu + 1, s, k) < delta
        md = lower_bound(inst, EXACT).m_hat
        assert right_exact(n, md, s, k) >= delta
        if md > 0:
            assert right_exact(n, md - 1, s, k) < delta


def test_knife_edge_delta_is_included():
    # delta exactly equal to a tail value: that m still qualifies
    d_tie = left_tail_exact(30, 14, 8, 3)
    assert upper_bound(QueryInstance(30, 8, 3, d_tie), EXACT).m_hat == 14
    d_tie = right_exact(30, 14, 8, 3)
    assert lower_bound(QueryInstance(30, 8, 3, d_tie), EXACT).m_hat == 14


def test_oracle_size_guard():
    # the guard sits on the exact engine's route, not on the oracle itself
    with pytest.raises(OracleLimitError):
        left_tail(20_001, 10, 5, 2, EXACT, PrecisionContext.for_digits(16))
    assert left_tail_exact(20_001, 10, 5, 2) > 0
    assert pmf_exact(12_000, 6000, 4, 2) > 0


# ---------------------------------------------------------------- kernel
# The tail kernel sums the shorter side of k with an integer ratio step;
# every value must equal the literal sum of binomial products.


def literal_left(n, m, s, k):
    return sum(math.comb(m, i) * math.comb(n - m, s - i) for i in range(0, min(k, s) + 1))


def literal_right(n, m, s, k):
    return sum(math.comb(m, i) * math.comb(n - m, s - i) for i in range(k, min(m, s) + 1))


def assert_kernel_matches(n, m, s, k):
    total = math.comb(n, s)
    assert left_tail_exact(n, m, s, k) == Fraction(literal_left(n, m, s, k), total)
    assert right_exact(n, m, s, k) == Fraction(literal_right(n, m, s, k), total)


@st.composite
def tail_args(draw):
    n = draw(st.integers(1, 120))
    m = draw(st.integers(0, n))
    s = draw(st.integers(1, n))
    k = draw(st.integers(0, s + 2))
    return n, m, s, k


@given(tail_args())
def test_kernel_matches_literal_sum(args):
    assert_kernel_matches(*args)


def test_kernel_support_edges():
    n, m, s = 30, 22, 12  # support 4..12
    assert left_tail_exact(n, m, s, 3) == 0  # k < lo
    assert left_tail_exact(n, m, s, 0) == 0
    assert left_tail_exact(n, m, s, 12) == 1  # k >= hi
    assert left_tail_exact(n, 5, s, 5) == 1  # hi = m < s
    for k in range(0, s + 3):
        assert_kernel_matches(n, m, s, k)


def test_kernel_shorter_side_switch(monkeypatch):
    runs = []
    run_sum = exact._run_sum

    def recording(n_, m_, s_, a, b):
        runs.append((a, b))
        return run_sum(n_, m_, s_, a, b)

    monkeypatch.setattr(exact, "_run_sum", recording)
    # support 0..s: the lower run has k+1 terms, the upper run s-k
    expected_runs = {
        9: {3: (0, 3), 4: (0, 4), 5: (6, 9), 6: (7, 9)},  # k = 4 is the tie, 5 terms each
        10: {4: (0, 4), 5: (6, 10)},  # k = 5: 6 terms below, 5 above
    }
    for s, by_k in expected_runs.items():
        for k, run in by_k.items():
            runs.clear()
            assert_kernel_matches(20, 10, s, k)
            assert runs[0] == run


def test_kernel_degenerate_populations():
    for n in (1, 7, 40):
        for s in range(1, n + 1):
            for k in range(0, s + 2):
                for m in (0, n):
                    assert_kernel_matches(n, m, s, k)
        for m in range(0, n + 1):
            for k in range(0, n + 2):
                assert_kernel_matches(n, m, n, k)  # s = n: K = m surely
    assert left_tail_exact(40, 0, 10, 0) == 1
    assert left_tail_exact(40, 40, 10, 9) == 0


@pytest.mark.parametrize("n, m, s, ks", [
    (2_500, 500, 150, (0, 12, 30, 45, 149)),
    (2_450, 2_150, 154, (110, 140)),
    (4_000, 200, 250, (3, 12, 20, 249)),
    (3_900, 250, 243, (20, 40)),
    (9_000, 36, 600, (0, 2, 10, 35)),
    (9_200, 8_900, 600, (560, 590)),
])
def test_kernel_on_coverage_shaped_instances(n, m, s, ks):
    for k in ks:
        assert_kernel_matches(n, m, s, k)


# ------------------------------------------------------------ orientation
# Both functions evaluate with the sample the least of m, n - m, s and n - s,
# by K's symmetry in m and s and the laws of s - K and m - K; every value must
# still be the literal sum in the caller's orientation.


def literal_pmf(n, m, s, j):
    return Fraction(math.comb(m, j) * math.comb(n - m, s - j), math.comb(n, s))


PLACES = ("s", "m", "n - s", "n - m")


@st.composite
def oriented_args(draw):
    """(n, m, s, k, j) whose least margin is at the drawn place; k from one below the
    support to one past it, j inside it."""
    n = draw(st.integers(1, 90))
    least = draw(st.integers(0, n // 2))
    other = draw(st.integers(least, n - least))
    place = draw(st.sampled_from(PLACES))
    m, s = {"s": (other, least), "m": (least, other),
            "n - s": (other, n - least), "n - m": (n - least, other)}[place]
    assume(s >= 1)
    lo, hi = support(n, m, s)
    return n, m, s, draw(st.integers(max(0, lo - 1), hi + 1)), draw(st.integers(lo, hi))


@given(oriented_args())
@example((40, 0, 10, 0, 0))  # m = 0
@example((40, 40, 10, 9, 10))  # m = n
@example((40, 17, 40, 16, 17))  # s = n
@example((9, 9, 9, 9, 9))
@example((1, 0, 1, 0, 0))
@example((30, 22, 12, 3, 4))  # k just below the support
@example((30, 22, 12, 11, 12))  # k just below its top
@example((20, 8, 17, 6, 7))  # least margin n - s
@example((20, 17, 15, 12, 12))  # least margin n - m
def test_every_orientation_matches_the_literal_sum(args):
    n, m, s, k, j = args
    assert exact._orient(n, m, s)[1] == min(m, n - m, s, n - s)
    total = math.comb(n, s)
    assert left_tail_exact(n, m, s, k) == Fraction(literal_left(n, m, s, k), total)
    assert exact.pmf_exact(n, m, s, j) == literal_pmf(n, m, s, j)


def test_two_reflections_reach_the_least_margin():
    # every (n <= 40, m, s): the oriented sample is the least of m, n - m, s and n - s, and
    # K' there, reflected back through c - K' when c is set, has K's literal pmf
    for n in range(1, 41):
        for m in range(n + 1):
            for s in range(1, n + 1):
                m2, s2, c = exact._orient(n, m, s)
                assert s2 == min(m, n - m, s, n - s), (n, m, s)
                lo, hi = support(n, m, s)
                for j in range(lo, hi + 1):
                    assert literal_pmf(n, m2, s2, j if c is None else c - j) == literal_pmf(
                        n, m, s, j), (n, m, s, j)


def test_a_tail_enters_the_oracle_once(monkeypatch):
    # the benchmark counts calls through the module attribute: an orientation taken by
    # calling it again would double exact.evals_per_op
    calls = []
    real = exact.left_tail_exact
    monkeypatch.setattr(exact, "left_tail_exact", lambda *a: calls.append(a) or real(*a))
    ctx = PrecisionContext.for_digits(16)
    for n, m, s, k in [(9000, 36, 600, 2), (9000, 8900, 600, 598), (2500, 500, 150, 30),
                       (100, 30, 90, 25), (100, 80, 90, 75), (40, 0, 10, 0), (40, 17, 40, 16)]:
        calls.clear()
        assert solver.left_tail(n, m, s, k, EXACT, ctx) == Fraction(
            literal_left(n, m, s, k), math.comb(n, s))
        assert calls == [(n, m, s, k)]
