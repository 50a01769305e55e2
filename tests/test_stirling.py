"""Stirling engine: series accuracy, log recurrences, tail agreement."""

import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from sketchbound import (
    DomainError,
    LogFactorialTable,
    PrecisionContext,
    StructuralZeroError,
    left_tail_exact,
    left_tail_stirling,
    log_factorial,
    log_pmf,
    pmf_exact,
)
from sketchbound.direct import left_tail_direct
from sketchbound.model import decimal_context
from sketchbound.stirling import _ln2pi

CTX = PrecisionContext.for_terms(30, 64)
CTX16 = PrecisionContext.for_terms(16, 64)


def log_sum_oracle(h: int, digits: int = 45) -> Decimal:
    """ln h! by direct log summation at comfortably higher precision."""
    with localcontext(decimal_context(digits)):
        acc = Decimal(0)
        for i in range(2, h + 1):
            acc += Decimal(i).ln()
        return acc


def test_log_factorial_small_values():
    assert log_factorial(0, CTX) == 0
    assert log_factorial(1, CTX) == 0
    ten = log_factorial(10, CTX)
    with localcontext(decimal_context(30)):
        expect = Decimal(3628800).ln()
    assert abs(ten - expect) < Decimal("1e-27")


def test_log_factorial_across_the_cutoff():
    # both paths, against the summation oracle
    for h in (2, 5, 29, 30, 31, 100, 1000):
        got = log_factorial(h, CTX)
        expect = log_sum_oracle(h)
        with localcontext(decimal_context(45)):
            rel = abs(got - expect) / expect
        assert rel < Decimal("1e-14"), h


def test_log_factorial_series_grows_with_digits():
    # at 80 digits four correction terms leave 1/(1188 h^9) = 1e-17 at h = 40
    import math

    ctx = PrecisionContext.for_terms(80, 64)
    for h in (39, 40, 41, 100, 2000):
        with localcontext(decimal_context(100)):
            expect = Decimal(math.factorial(h)).ln()
            assert abs(log_factorial(h, ctx) - expect) < Decimal("1e-72"), h


def test_log_factorial_negative_rejected():
    with pytest.raises(DomainError):
        log_factorial(-1, CTX)


def test_reverse_order_summation_not_worse_than_forward():
    # force the series below the usual cutoff and compare orderings at 16 digits
    table = LogFactorialTable(exact_cutoff=2)
    for h in (10, 100, 1000):
        rev = table.value(h, CTX16)
        with localcontext(decimal_context(16)):
            hd = Decimal(h)
            lnh = hd.ln()
            fwd = hd * lnh - hd + (_ln2pi(16) + lnh) / 2
            fwd += 1 / Decimal(12 * h)
            fwd -= 1 / Decimal(360 * h**3)
            fwd += 1 / Decimal(1260 * h**5)
            fwd -= 1 / Decimal(1680 * h**7)
        oracle = log_sum_oracle(h)
        with localcontext(decimal_context(45)):
            assert abs(rev - oracle) <= abs(fwd - oracle), h


def test_cached_values_match_fresh_computation():
    warm = LogFactorialTable()
    warm.value(500, CTX)
    assert warm.value(500, CTX) == LogFactorialTable().value(500, CTX)
    assert (500, CTX.digits) in warm.cached_values


def test_log_pmf_examples():
    got = log_pmf(10, 5, 4, 2, CTX)
    with localcontext(decimal_context(30)):
        expect = (Decimal(100) / Decimal(210)).ln()
    assert abs(got - expect) < Decimal("1e-25")
    assert log_pmf(5, 5, 3, 3, CTX) == 0


def test_log_pmf_structural_zero_raises():
    with pytest.raises(StructuralZeroError):
        log_pmf(10, 2, 4, 3, CTX)
    with pytest.raises(StructuralZeroError):
        log_pmf(10, 8, 4, 0, CTX)


def test_exp_log_pmf_matches_exact():
    rng = random.Random(41)
    checked = 0
    while checked < 250:
        n = rng.randrange(2, 201)
        m = rng.randrange(0, n + 1)
        s = rng.randrange(1, n + 1)
        j_lo = max(0, s - (n - m))
        j_hi = min(s, m)
        if j_hi < j_lo:
            continue
        j = rng.randrange(j_lo, j_hi + 1)
        got = log_pmf(n, m, s, j, CTX)
        with localcontext(decimal_context(30)):
            approx = Fraction(got.exp())
        expect = pmf_exact(n, m, s, j)
        assert abs(approx - expect) <= expect * Fraction(1, 10**12)
        checked += 1


def test_left_tail_examples():
    t = left_tail_stirling(10, 5, 4, 1, CTX)
    assert abs(Fraction(t) - Fraction(55, 210)) < Fraction(1, 10**10)
    assert left_tail_stirling(10, 8, 4, 1, CTX) == 0
    assert left_tail_stirling(10, 5, 4, 4, CTX) == 1


def test_left_tail_mid_instance_close_to_exact():
    ctx = PrecisionContext.for_terms(30, 61)
    t = left_tail_stirling(1000, 700, 100, 60, ctx)
    expect = left_tail_exact(1000, 700, 100, 60, max_n=None)
    assert abs(Fraction(t) - expect) < Fraction(1, 10**18)


def test_left_tail_small_instances():
    # error target sized from the instance, the way the solver does it
    from sketchbound import choose_precision

    rng = random.Random(43)
    for _ in range(250):
        n = rng.randrange(1, 201)
        m = rng.randrange(0, n + 1)
        s = rng.randrange(1, n + 1)
        k = rng.randrange(0, s + 1)
        ctx = choose_precision(n, k, Fraction(1, 20))
        got = Fraction(left_tail_stirling(n, m, s, k, ctx))
        expect = left_tail_exact(n, m, s, k)
        assert abs(got - expect) <= Fraction(ctx.abs_error_target)


def test_engines_agree_on_mid_size_instances():
    from sketchbound import choose_precision

    rng = random.Random(47)
    for _ in range(40):
        n = rng.randrange(10**3, 10**6)
        m = rng.randrange(0, n + 1)
        s = rng.randrange(2, min(n, 3000) + 1)
        k = rng.randrange(0, s + 1)
        ctx = choose_precision(n, k, Fraction(1, 20))
        a = left_tail_stirling(n, m, s, k, ctx)
        b = left_tail_direct(n, m, s, k, ctx)
        assert abs(a - b) <= 2 * ctx.abs_error_target


def test_correctness_does_not_depend_on_memo():
    fresh = LogFactorialTable()
    a = left_tail_stirling(500, 200, 60, 22, CTX, table=fresh)
    b = left_tail_stirling(500, 200, 60, 22, CTX, table=LogFactorialTable())
    c = left_tail_stirling(500, 200, 60, 22, CTX)
    assert a == b == c


def test_default_table_cache_is_bounded():
    from sketchbound import QueryInstance, stirling, upper_bound

    cap = LogFactorialTable.MAX_CACHED
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randrange(10**6, 10**8)
        s = rng.randrange(500, 2000)
        k = rng.randrange(0, s)
        upper_bound(QueryInstance(n, s, k, Fraction(1, 20)), "stirling")
    # 60 bounds make more distinct values than the cap holds
    assert len(stirling._default_table.cached_values) == cap

    table = LogFactorialTable()
    for h in range(10**6, 10**6 + cap + 1):
        table.value(h, CTX)
    assert len(table.cached_values) == cap
    assert (10**6, CTX.digits) not in table.cached_values
    assert (10**6 + cap, CTX.digits) in table.cached_values


@pytest.mark.parametrize("n, s, k", [
    (10**9, 10**5, 9 * 10**4),
    (10**12, 10**5, 10**5 - 30),   # a factorial argument near the old fixed cutoff of 30
    (10**12, 10**6, 100),
])
def test_certificate_tails_within_target_against_mpmath(n, s, k, mp_left_tail):
    from sketchbound import QueryInstance, choose_precision, upper_bound

    mpmath = pytest.importorskip("mpmath")
    delta = Fraction(1, 20)
    ctx = choose_precision(n, k, delta)
    result = upper_bound(QueryInstance(n, s, k, delta), "stirling")
    # the log pmf cancels about as many digits as n log2(n) has
    digits = max(60, 2 * ctx.digits) + len(str(n * n.bit_length()))
    with mpmath.workdps(digits):
        target = mpmath.mpf(str(ctx.abs_error_target))
        for m, tail in ((result.m_hat, result.tail_at_m_hat),
                        (result.m_hat + 1, result.tail_at_m_hat_plus_1)):
            ref = mp_left_tail(n, m, s, k, digits)
            assert abs(mpmath.mpf(str(tail)) - ref) <= target, (m, tail, ref)
