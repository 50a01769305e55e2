"""Direct engine: falling-product anchors, ratio walks, truncation."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sketchbound import (
    DomainError,
    PrecisionContext,
    PrecisionInfeasibleError,
    QueryInstance,
    TailEngine,
    left_tail,
    left_tail_exact,
    pmf_exact,
    upper_bound,
)
from sketchbound.direct import _falling, pmf_direct
from sketchbound.model import support
from sketchbound.solver import _anchor_index, choose_precision
from sketchbound.stirling import log_pmf

CTX = PrecisionContext.for_digits(30)


def as_frac(value: Decimal) -> Fraction:
    return Fraction(value)


def test_falling_products_exact_then_truncated():
    # falling products T(a, b) as (mantissa, exponent), exact while they fit
    assert _falling(5, 2, 64) == (20, 0)
    assert _falling(7, 0, 64) == (1, 0)
    assert _falling(10, 10, 64) == (math.factorial(10), 0)
    assert _falling(40, 33, 300) == (math.perm(40, 33), 0)  # three chunks
    assert _falling(4, 2, 64, *_falling(5, 2, 64)) == (240, 0)
    # past the width: truncated from below, within chunks * 2**(1-bits)
    exact = math.perm(1000, 200)
    v, e = _falling(1000, 200, 48)
    assert v.bit_length() == 48
    assert v << e <= exact
    assert exact - (v << e) < exact * 13 * Fraction(2, 2**48)


def test_pmf_direct_rejects_sample_larger_than_population():
    # T(n, s) = 0 exactly when s > n, which the domain check rejects
    with pytest.raises(DomainError):
        pmf_direct(3, 1, 4, 1, CTX)


def test_pmf_direct_from_falling_products():
    # p(10, 5, 4, 2) = T(5,2) T(5,2) T(4,2) / (2! T(10,4)) = 4800 / 10080
    v = pmf_direct(10, 5, 4, 2, CTX)
    assert abs(as_frac(v) - Fraction(10, 21)) <= Fraction(10, 21) / 10**29


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


@st.composite
def pmf_args(draw):
    n = draw(st.integers(1, 400))
    m = draw(st.integers(0, n))
    s = draw(st.integers(1, n))
    lo, hi = max(0, s - (n - m)), min(s, m)
    j = draw(st.sampled_from([0, s, lo, hi]) | st.integers(lo, hi))
    return n, m, s, j, draw(st.integers(16, 40))


@given(pmf_args())
def test_pmf_direct_within_one_ulp_of_exact(args):
    n, m, s, j, digits = args
    got = as_frac(pmf_direct(n, m, s, j, PrecisionContext.for_digits(digits)))
    expect = pmf_exact(n, m, s, j)
    assert abs(got - expect) <= expect / 10 ** (digits - 1)


def _exact_pmf(n: int, m: int, s: int, j: int) -> Fraction:
    return Fraction(math.comb(m, j) * math.comb(n - m, s - j), math.comb(n, s))


@pytest.mark.parametrize("n", [10**7, 3 * 10**7, 10**8])
@pytest.mark.parametrize("s", [5000, 7000, 10000])
def test_pmf_direct_batch_shaped_anchors_within_one_ulp(n, s):
    # the anchors of batch-file bounds: j at k = 0.9 s near the upper bound,
    # and at the mode of a population whose mode lies below k
    k = 9 * s // 10
    ctx = choose_precision(n, k, Fraction(1, 20))
    for m, j in [(n * 9 // 10, k), (n // 10, (s + 1) * (n // 10 + 1) // (n + 2))]:
        expect = _exact_pmf(n, m, s, j)
        got = as_frac(pmf_direct(n, m, s, j, ctx))
        assert abs(got - expect) <= expect / 10 ** (ctx.digits - 1), (m, j)


def test_pmf_direct_tiny_anchor_within_one_ulp():
    n, m, s, j = 10**6, 10**5, 10**4, 9000
    ctx = PrecisionContext.for_digits(25)
    expect = _exact_pmf(n, m, s, j)
    assert expect < Fraction(1, 10**1000)
    got = as_frac(pmf_direct(n, m, s, j, ctx))
    assert abs(got - expect) <= expect / 10 ** (ctx.digits - 1)


def anchor_chain(n, s, j, ms, ctx, full_anchors) -> list[tuple[int, Decimal, bool]]:
    """(m, p(j), derived?) for each m in turn, all sharing one solve's memory."""
    anchors = {}
    out = []
    for m in ms:
        before = len(full_anchors)
        p = pmf_direct(n, m, s, j, ctx, anchors=anchors)
        out.append((m, p, len(full_anchors) == before))
    return out


def assert_within_one_ulp(n, m, s, j, got, ctx):
    expect = pmf_exact(n, m, s, j, max_n=None)
    assert abs(as_frac(got) - expect) <= expect / 10 ** (ctx.digits - 1), (n, m, s, j)


def assert_agrees_with_fresh(n, m, s, j, got, ctx):
    # both are within one ulp of the truth and rounded to ctx.digits, so they
    # differ by at most one unit in the last place
    fresh = pmf_direct(n, m, s, j, ctx)
    ulp = Decimal(1).scaleb(max(got.adjusted(), fresh.adjusted()) - ctx.digits + 1)
    assert abs(got - fresh) <= ulp, (n, m, s, j, got, fresh)


def test_derived_anchors_step_both_ways_within_one_ulp(full_anchors):
    n, s, j = 10**6, 40, 12
    ms = [300_000, 300_007, 299_995, 299_990, 300_001]
    chain = anchor_chain(n, s, j, ms, CTX, full_anchors)
    assert [derived for _, _, derived in chain] == [False, True, True, True, True]
    for m, p, _ in chain:
        assert_within_one_ulp(n, m, s, j, p, CTX)
        assert_agrees_with_fresh(n, m, s, j, p, CTX)


@pytest.mark.parametrize("sign", [1, -1])
def test_derive_only_below_the_full_anchor_cost(full_anchors, sign):
    # a full anchor multiplies s + 2 min(j, s - j) = 64 factors, a step 4|D|
    n, s, j, m0 = 10**6, 40, 12, 300_000
    for step, derived in [(15, True), (16, False)]:
        m = m0 + sign * step
        (_, _, first), (_, p, was_derived) = anchor_chain(n, s, j, [m0, m], CTX, full_anchors)
        assert not first and was_derived == derived
        assert_within_one_ulp(n, m, s, j, p, CTX)


def test_derived_chain_stops_at_the_truncation_budget(full_anchors):
    # a full anchor truncates 1 + 2 + 2 + 3 = 8 chunks and each unit step 4
    # more; the chain may reach 8s - 1 = 319 chunks, so steps 1..77 derive,
    # step 78 is computed in full and step 79 derives from it again
    n, s, j, m0 = 10**6, 40, 12, 300_000
    ms = [m0 + i for i in range(80)]
    chain = anchor_chain(n, s, j, ms, CTX, full_anchors)
    assert [i for i, (_, _, derived) in enumerate(chain) if not derived] == [0, 78]
    for m, p, _ in chain:
        assert_within_one_ulp(n, m, s, j, p, CTX)
    for m, p, _ in chain[70:]:
        assert_agrees_with_fresh(n, m, s, j, p, CTX)


@pytest.mark.parametrize("n, s", [(10**7, 5000), (10**8, 10_000)])
def test_derived_batch_shaped_anchors_within_one_ulp(full_anchors, n, s):
    # the anchor indices of batch-file bounds; steps of both signs, the last
    # one just below the break-even 4|D| < s + 2 min(j, s - j)
    ctx = choose_precision(n, 9 * s // 10, Fraction(1, 20))
    for j in (1, 26, s // 2, s - 1):
        m0 = n * j // s + n // (3 * s)
        reach = (s + 2 * min(j, s - j) - 1) // 4
        ms = [m0, m0 + 2, m0 - 255, m0 + 2 + reach]
        chain = anchor_chain(n, s, j, ms, ctx, full_anchors)
        assert [derived for _, _, derived in chain] == [False, True, True, True], j
        for m, p, _ in chain:
            assert_within_one_ulp(n, m, s, j, p, ctx)
            assert_agrees_with_fresh(n, m, s, j, p, ctx)


@pytest.mark.slow
def test_derived_flagship_anchor_agrees_with_fresh(full_anchors):
    # the step the flagship upper bound's search takes into its last evaluations
    n, s, j = 10**12, 10**7, 9 * 10**6
    ctx = choose_precision(n, j, Fraction(1, 20))
    m = 900_156_008_220
    chain = anchor_chain(n, s, j, [m - 2697, m], ctx, full_anchors)
    assert chain[1][2]
    assert_agrees_with_fresh(n, m, s, j, chain[1][1], ctx)


def test_left_tail_direct_within_target_against_mpmath(mp_left_tail):
    import mpmath

    n, s, k, delta = 10**9, 10**5, 9 * 10**4, Fraction(1, 20)
    ctx = choose_precision(n, k, delta)
    result = upper_bound(QueryInstance(n, s, k, delta), "direct")
    digits = 2 * ctx.digits + 20
    with mpmath.workdps(digits):
        target = mpmath.mpf(str(ctx.abs_error_target))
        for m, tail in ((result.m_hat, result.tail_at_m_hat),
                        (result.m_hat + 1, result.tail_at_m_hat_plus_1)):
            ref = mp_left_tail(n, m, s, k, digits)
            assert abs(mpmath.mpf(str(tail)) - ref) <= target, (m, tail, ref)


def test_anchor_index_at_largest_term():
    # the anchor really is the largest term of the truncated sum
    for m, k in [(700, 60), (300, 60), (50, 0), (999, 99)]:
        j0 = _anchor_index(1000, m, 100, k, support(1000, m, 100)[0])
        assert 0 <= j0 <= k
        peak = pmf_exact(1000, m, 100, j0)
        assert all(peak >= pmf_exact(1000, m, 100, j) for j in range(0, k + 1))
    assert _anchor_index(1000, 700, 100, 60, 0) == 60  # mode above k anchors at k
    assert 0 < _anchor_index(1000, 300, 100, 60, 0) < 60  # mode near 30, both walks live


def test_left_tail_examples():
    t = left_tail(10, 5, 4, 1, TailEngine.DIRECT, CTX)
    assert abs(as_frac(t) - Fraction(55, 210)) < Fraction(1, 10**12)
    assert left_tail(10, 8, 4, 1, TailEngine.DIRECT, CTX) == 0
    assert left_tail(10, 5, 4, 4, TailEngine.DIRECT, CTX) == 1


def test_left_tail_mid_instance_close_to_exact():
    ctx = PrecisionContext.for_digits(30)
    t = left_tail(1000, 700, 100, 60, TailEngine.DIRECT, ctx)
    expect = left_tail_exact(1000, 700, 100, 60, max_n=None)
    assert abs(as_frac(t) - expect) < Fraction(1, 10**20)


def test_left_tail_small_instances_within_target():
    # exhaustive tiny instances, then a seeded sample up to n = 200
    for n in range(1, 13):
        for m in range(0, n + 1):
            for s in range(1, n + 1):
                for k in range(0, s + 1):
                    got = as_frac(left_tail(n, m, s, k, TailEngine.DIRECT, CTX))
                    expect = left_tail_exact(n, m, s, k)
                    assert abs(got - expect) <= Fraction(CTX.abs_error_target)
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randrange(1, 201)
        m = rng.randrange(0, n + 1)
        s = rng.randrange(1, n + 1)
        k = rng.randrange(0, s + 1)
        got = as_frac(left_tail(n, m, s, k, TailEngine.DIRECT, CTX))
        expect = left_tail_exact(n, m, s, k)
        assert abs(got - expect) <= Fraction(CTX.abs_error_target)


def test_truncation_skips_at_most_budget():
    # the walk drops at most a tenth of the target relative to the tail
    loose = PrecisionContext(digits=30, abs_error_target=Decimal("1e-10"))
    full = PrecisionContext(digits=50, abs_error_target=Decimal("1e-40"))
    rng = random.Random(37)
    for _ in range(25):
        n = rng.randrange(50, 2000)
        m = rng.randrange(0, n + 1)
        s = rng.randrange(10, min(n, 200) + 1)
        k = rng.randrange(0, s + 1)
        a = left_tail(n, m, s, k, TailEngine.DIRECT, loose)
        b = left_tail(n, m, s, k, TailEngine.DIRECT, full)
        # plus the 30-digit roundings of up to s + 1 terms
        assert abs(a - b) <= a * loose.abs_error_target / 10 + (s + 1) * Decimal("1e-29")


def test_monotone_in_m_near_crossing():
    # computed tails are non-increasing across consecutive m
    ctx = PrecisionContext.for_digits(30)
    for m in range(340, 348):
        a = left_tail(1000, m, 50, 14, TailEngine.DIRECT, ctx)
        b = left_tail(1000, m + 1, 50, 14, TailEngine.DIRECT, ctx)
        assert a >= b


def test_precision_infeasible_signalled():
    bad = PrecisionContext(digits=16, abs_error_target=Decimal("1e-21"))
    with pytest.raises(PrecisionInfeasibleError):
        left_tail(100, 50, 20, 8, TailEngine.DIRECT, bad)


@pytest.mark.slow
def test_trillion_scale_pmf_finite_and_consistent():
    n, m, s, j = 10**12, 9 * 10**11, 10**7, 9 * 10**6
    ctx = PrecisionContext.for_digits(30)
    p = pmf_direct(n, m, s, j, ctx)
    assert p.is_finite() and p > 0
    lp = log_pmf(n, m, s, j, ctx)
    # agreement in log space: direct product vs Stirling approximation
    assert abs(p.ln() - lp) < Decimal("1e-9")
