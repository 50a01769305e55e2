"""Stirling engine: series accuracy, log recurrences, tail agreement."""

import math
import random
import sys
import threading
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from oracle import pmf_exact
from sketchbound import DomainError, PrecisionContext, TailEngine, left_tail, stirling
from sketchbound.direct import pmf_direct
from sketchbound.exact import left_tail_exact
from sketchbound.model import decimal_context
from sketchbound.solver import choose_precision, pmf
from sketchbound.stirling import _ln2pi, _series, log_factorial, log_pmf

CTX = PrecisionContext.for_digits(30)


def log_sum_oracle(h: int, digits: int = 45) -> Decimal:
    """ln h! by direct log summation at comfortably higher precision."""
    with localcontext(decimal_context(digits)):
        acc = Decimal(0)
        for i in range(2, h + 1):
            acc += Decimal(i).ln()
        return acc


def test_log_factorial_small_values():
    assert log_factorial(0, 30) == 0
    assert log_factorial(1, 30) == 0
    ten = log_factorial(10, 30)
    with localcontext(decimal_context(30)):
        expect = Decimal(3628800).ln()
    assert abs(ten - expect) < Decimal("1e-27")


def test_log_factorial_across_the_cutoff():
    # both paths, against the summation oracle
    for h in (2, 5, 29, 30, 31, 100, 1000):
        got = log_factorial(h, 30)
        expect = log_sum_oracle(h)
        with localcontext(decimal_context(45)):
            rel = abs(got - expect) / expect
        assert rel < Decimal("1e-14"), h


def test_log_factorial_series_grows_with_digits():
    # at 80 digits four correction terms leave 1/(1188 h^9) = 1e-17 at h = 40
    for h in (39, 40, 41, 100, 2000):
        with localcontext(decimal_context(100)):
            expect = Decimal(math.factorial(h)).ln()
            assert abs(log_factorial(h, 80) - expect) < Decimal("1e-72"), h


def test_bernoulli_numbers_match_the_recurrence(monkeypatch):
    # B_2i from the tangent numbers equals the Fraction recurrence
    # sum_{j <= r} C(r + 1, j) B_j = 0, which also makes every odd B_r past B_1 zero
    b = [Fraction(1)]
    for r in range(1, 301):
        b.append(-sum(math.comb(r + 1, j) * x for j, x in enumerate(b)) / (r + 1))
    assert not any(b[3::2])
    # from an empty memo, threads extending it at once still fill it in order
    monkeypatch.setattr(stirling, "_bernoulli_memo", [])
    monkeypatch.setattr(stirling, "_bernoulli_row", [1])
    got = {}
    threads = [threading.Thread(target=lambda i=i: got.update({i: stirling._bernoulli(i)}))
               for i in range(150, 0, -10)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == {i: b[2 * i] for i in range(150, 0, -10)}
    assert stirling._bernoulli_memo == b[2::2]


def test_log_factorial_negative_rejected():
    with pytest.raises(DomainError):
        log_factorial(-1, 30)


def test_reverse_order_summation_not_worse_than_forward():
    # the series below the usual cutoff, orderings compared at 16 digits
    for h in (10, 100, 1000):
        rev = _series(h, 16)
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
    log_factorial(500, 30)
    hits = log_factorial.cache_info().hits
    assert log_factorial(500, 30) == _series(500, 30)
    assert log_factorial.cache_info().hits == hits + 1


def test_log_pmf_examples():
    got = log_pmf(10, 5, 4, 2, CTX)
    with localcontext(decimal_context(30)):
        expect = (Decimal(100) / Decimal(210)).ln()
    assert abs(got - expect) < Decimal("1e-25")
    assert log_pmf(5, 5, 3, 3, CTX) == 0


def test_log_pmf_outside_support_is_minus_infinity():
    for n, m, s, j in [(10, 2, 4, 3), (10, 8, 4, 0)]:
        assert log_pmf(n, m, s, j, CTX) == Decimal("-Infinity")
        assert pmf(n, m, s, j, TailEngine.STIRLING, CTX) == 0 == pmf_direct(n, m, s, j, CTX)


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
    t = left_tail(10, 5, 4, 1, TailEngine.STIRLING, CTX)
    assert abs(Fraction(t) - Fraction(55, 210)) < Fraction(1, 10**10)
    assert left_tail(10, 8, 4, 1, TailEngine.STIRLING, CTX) == 0
    assert left_tail(10, 5, 4, 4, TailEngine.STIRLING, CTX) == 1


def test_left_tail_mid_instance_close_to_exact():
    ctx = PrecisionContext.for_digits(30)
    t = left_tail(1000, 700, 100, 60, TailEngine.STIRLING, ctx)
    expect = left_tail_exact(1000, 700, 100, 60)
    assert abs(Fraction(t) - expect) < Fraction(1, 10**18)


def test_left_tail_small_instances():
    # error target sized from the instance, the way the solver does it
    rng = random.Random(43)
    for _ in range(250):
        n = rng.randrange(1, 201)
        m = rng.randrange(0, n + 1)
        s = rng.randrange(1, n + 1)
        k = rng.randrange(0, s + 1)
        ctx = choose_precision(n, k, Fraction(1, 20))
        got = Fraction(left_tail(n, m, s, k, TailEngine.STIRLING, ctx))
        expect = left_tail_exact(n, m, s, k)
        assert abs(got - expect) <= Fraction(ctx.abs_error_target)


def test_engines_agree_on_mid_size_instances():
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randrange(10**3, 10**6)
        m = rng.randrange(0, n + 1)
        s = rng.randrange(2, min(n, 3000) + 1)
        k = rng.randrange(0, s + 1)
        ctx = choose_precision(n, k, Fraction(1, 20))
        a = left_tail(n, m, s, k, TailEngine.STIRLING, ctx)
        b = left_tail(n, m, s, k, TailEngine.DIRECT, ctx)
        assert abs(a - b) <= 2 * ctx.abs_error_target


def test_correctness_does_not_depend_on_memo():
    log_factorial.cache_clear()
    cold = left_tail(500, 200, 60, 22, TailEngine.STIRLING, CTX)
    warm = left_tail(500, 200, 60, 22, TailEngine.STIRLING, CTX)
    assert log_factorial.cache_info().hits > 0
    assert cold == warm


def test_default_table_cache_is_bounded():
    from sketchbound import QueryInstance, upper_bound

    cap = log_factorial.cache_info().maxsize
    assert cap == 4096
    log_factorial.cache_clear()
    rng = random.Random(53)
    # bounds at fresh populations until they have made more distinct values
    # than the cap holds (about 110 bounds)
    for _ in range(400):
        n = rng.randrange(10**6, 10**8)
        s = rng.randrange(500, 2000)
        k = rng.randrange(0, s)
        upper_bound(QueryInstance(n, s, k, Fraction(1, 20)), "stirling")
        if log_factorial.cache_info().currsize == cap:
            break
    assert log_factorial.cache_info().currsize == cap

    for h in range(10**6, 10**6 + cap + 1):
        log_factorial(h, 30)
    assert log_factorial.cache_info().currsize == cap
    # the least recently used value went first: computing it again is a miss
    misses = log_factorial.cache_info().misses
    log_factorial(10**6 + cap, 30)
    assert log_factorial.cache_info().misses == misses
    log_factorial(10**6, 30)
    assert log_factorial.cache_info().misses == misses + 1


@pytest.mark.parametrize("n, s, k", [
    (10**9, 10**5, 9 * 10**4),
    (10**12, 10**5, 10**5 - 30),   # a factorial argument near the old fixed cutoff of 30
    (10**12, 10**6, 100),
])
def test_certificate_tails_within_target_against_mpmath(n, s, k, mp_left_tail):
    from sketchbound import QueryInstance, upper_bound

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
