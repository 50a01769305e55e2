"""Direct engine: interleaved products, ratio walks, truncation."""

import os
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from sketchbound import (
    DomainError,
    PrecisionContext,
    PrecisionInfeasibleError,
    TermBoundaryError,
    balanced_product,
    left_tail_exact,
    log_pmf,
    pmf_direct,
    pmf_exact,
    term_ratio,
)
from sketchbound.direct import left_tail_direct

slow = pytest.mark.skipif(
    not os.environ.get("SKETCHBOUND_SLOW"),
    reason="set SKETCHBOUND_SLOW=1 for full-scale runs",
)

CTX = PrecisionContext.for_terms(30, 64)


def as_frac(value: Decimal) -> Fraction:
    return Fraction(value)


def test_balanced_product_examples():
    assert balanced_product([2, 3], [6], CTX) == 1
    assert balanced_product([], [], CTX) == 1
    assert balanced_product([7], [], CTX) == 7
    assert balanced_product([], [4], CTX) == Decimal("0.25")


def test_balanced_product_rejects_zero_denominator():
    with pytest.raises(DomainError):
        balanced_product([3], [0], CTX)


def test_balanced_product_reproduces_pmf():
    # term lists for p(10, 5, 4, 2): T(5,2) T(5,2) T(4,2) / (2! T(10,4))
    numer = [5, 4, 5, 4, 4, 3]
    denom = [1, 2, 10, 9, 8, 7]
    v = balanced_product(numer, denom, CTX)
    assert abs(as_frac(v) - Fraction(100, 210)) < Fraction(1, 10**25)


def test_balanced_product_running_value_stays_representable():
    # the interleave must keep intermediates far from the context limits
    import math

    cases = [
        (10**6, 700_000, 2_000, 1_400),
        (5_000, 100, 400, 10),
        (97, 42, 31, 13),
    ]
    for n, m, s, j in cases:
        trace: list[Decimal] = []
        p = pmf_direct(n, m, s, j, CTX, _trace=trace)
        assert p > 0
        lo_bound = min(math.log10(float(as_frac(p))) - 15, -15)
        hi_bound = math.log10(n) + 15
        for v in trace:
            assert v.is_finite() and v > 0
            assert lo_bound <= float(v.log10()) <= hi_bound


def test_pmf_direct_matches_exact():
    assert abs(as_frac(pmf_direct(10, 5, 4, 2, CTX)) - Fraction(100, 210)) < Fraction(1, 10**25)
    assert pmf_direct(5, 5, 3, 3, CTX) == 1
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randrange(1, 400)
        m = rng.randrange(0, n + 1)
        s = rng.randrange(1, n + 1)
        j = rng.randrange(0, s + 1)
        expect = pmf_exact(n, m, s, j)
        got = as_frac(pmf_direct(n, m, s, j, CTX))
        if expect == 0:
            assert got == 0
        else:
            assert abs(got - expect) <= expect * Fraction(1, 10**25)


def test_pmf_direct_structural_zeros():
    assert pmf_direct(10, 2, 4, 3, CTX) == 0   # j > m
    assert pmf_direct(10, 8, 4, 0, CTX) == 0   # s - j > n - m
    assert pmf_direct(10, 5, 4, 5, CTX) == 0   # j > s


def test_pmf_direct_rejects_bad_domains():
    with pytest.raises(DomainError):
        pmf_direct(10, 11, 4, 2, CTX)
    with pytest.raises(DomainError):
        pmf_direct(10, 5, 0, 0, CTX)


def test_term_ratio_examples():
    assert term_ratio(10, 5, 4, 2) == Fraction(1, 2)
    assert term_ratio(10, 5, 4, 0) == 10
    # against the exact pmf ratio on random nonzero neighbors
    rng = random.Random(29)
    for _ in range(80):
        n = rng.randrange(2, 60)
        m = rng.randrange(1, n + 1)
        s = rng.randrange(1, n + 1)
        j_lo = max(0, s - (n - m))
        j_hi = min(s, m)
        if j_hi <= j_lo:
            continue
        j = rng.randrange(j_lo, j_hi)
        expect = pmf_exact(n, m, s, j + 1) / pmf_exact(n, m, s, j)
        assert term_ratio(n, m, s, j) == expect


def test_term_ratio_boundary_signals():
    with pytest.raises(TermBoundaryError):
        term_ratio(10, 3, 4, 3)  # j = m, next term zero
    with pytest.raises(TermBoundaryError):
        term_ratio(10, 8, 4, 4)  # j = s
    with pytest.raises(DomainError):
        term_ratio(10, 8, 4, 0)  # current term already structurally zero
    with pytest.raises(DomainError):
        term_ratio(10, 5, 4, -1)


def test_anchor_index_at_largest_term():
    from sketchbound.direct import _anchor_index

    # the anchor really is the largest term of the truncated sum
    for m, k in [(700, 60), (300, 60), (50, 0), (999, 99)]:
        j0 = _anchor_index(1000, m, 100, k)
        assert 0 <= j0 <= k
        peak = pmf_exact(1000, m, 100, j0)
        assert all(peak >= pmf_exact(1000, m, 100, j) for j in range(0, k + 1))
    assert _anchor_index(1000, 700, 100, 60) == 60  # mode above k anchors at k
    assert 0 < _anchor_index(1000, 300, 100, 60) < 60  # mode near 30, both walks live


def test_left_tail_examples():
    t = left_tail_direct(10, 5, 4, 1, CTX)
    assert abs(as_frac(t) - Fraction(55, 210)) < Fraction(1, 10**12)
    assert left_tail_direct(10, 8, 4, 1, CTX) == 0
    assert left_tail_direct(10, 5, 4, 4, CTX) == 1


def test_left_tail_mid_instance_close_to_exact():
    ctx = PrecisionContext.for_terms(30, 61)
    t = left_tail_direct(1000, 700, 100, 60, ctx)
    expect = left_tail_exact(1000, 700, 100, 60, max_n=None)
    assert abs(as_frac(t) - expect) < Fraction(1, 10**20)


def test_left_tail_small_instances_within_target():
    # exhaustive tiny instances, then a seeded sample up to n = 200
    for n in range(1, 13):
        for m in range(0, n + 1):
            for s in range(1, n + 1):
                for k in range(0, s + 1):
                    got = as_frac(left_tail_direct(n, m, s, k, CTX))
                    expect = left_tail_exact(n, m, s, k)
                    assert abs(got - expect) <= Fraction(CTX.abs_error_target)
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randrange(1, 201)
        m = rng.randrange(0, n + 1)
        s = rng.randrange(1, n + 1)
        k = rng.randrange(0, s + 1)
        got = as_frac(left_tail_direct(n, m, s, k, CTX))
        expect = left_tail_exact(n, m, s, k)
        assert abs(got - expect) <= Fraction(CTX.abs_error_target)


def test_truncation_skips_at_most_budget():
    loose = PrecisionContext(digits=30, abs_error_target=Decimal("1e-10"),
                             trunc_threshold=Decimal("1e-13"))
    full = PrecisionContext(digits=50, abs_error_target=Decimal("1e-10"),
                            trunc_threshold=Decimal("1e-45"))
    rng = random.Random(37)
    for _ in range(25):
        n = rng.randrange(50, 2000)
        m = rng.randrange(0, n + 1)
        s = rng.randrange(10, min(n, 200) + 1)
        k = rng.randrange(0, s + 1)
        a = left_tail_direct(n, m, s, k, loose)
        b = left_tail_direct(n, m, s, k, full)
        assert abs(a - b) <= (k + 1) * loose.trunc_threshold
        assert abs(a - b) <= loose.abs_error_target


def test_monotone_in_m_near_crossing():
    # computed tails are non-increasing across consecutive m
    ctx = PrecisionContext.for_terms(30, 40)
    for m in range(340, 348):
        a = left_tail_direct(1000, m, 50, 14, ctx)
        b = left_tail_direct(1000, m + 1, 50, 14, ctx)
        assert a >= b


def test_precision_infeasible_signalled():
    bad = PrecisionContext(digits=16, abs_error_target=Decimal("1e-21"),
                           trunc_threshold=Decimal("1e-29"))
    with pytest.raises(PrecisionInfeasibleError):
        left_tail_direct(100, 50, 20, 8, bad)


@slow
def test_trillion_scale_pmf_finite_and_consistent():
    n, m, s, j = 10**12, 9 * 10**11, 10**7, 9 * 10**6
    ctx = PrecisionContext.for_terms(30, s + 1)
    p = pmf_direct(n, m, s, j, ctx)
    assert p.is_finite() and p > 0
    lp = log_pmf(n, m, s, j, ctx)
    # agreement in log space: direct product vs Stirling approximation
    assert abs(p.ln() - lp) < Decimal("1e-9")
