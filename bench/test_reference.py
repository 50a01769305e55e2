"""Tests of the benchmark's own reference and checks.

    python3 -m pytest bench/test_reference.py

The mpmath tails are compared with exact rationals from math.comb for
n <= 2000, and the checks are shown to reject a bound that is off by two.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import checks
import reference

DIGITS = 60


def _close(value, exact: Fraction) -> bool:
    man, exp = value.man_exp
    return abs(Fraction(man) * Fraction(2) ** exp - exact) <= Fraction(1, 10**50)


@pytest.mark.parametrize("seed", range(40))
def test_left_tail_matches_rationals(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 2000)
    m = rng.randint(0, n)
    s = rng.randint(1, n)
    k = rng.randint(0, s)
    assert _close(reference.left_tail(n, m, s, k, DIGITS),
                  reference.exact_left_tail(n, m, s, k))


@pytest.mark.parametrize("seed", range(20))
def test_right_tail_matches_rationals(seed):
    rng = random.Random(1000 + seed)
    n = rng.randint(1, 2000)
    m = rng.randint(0, n)
    s = rng.randint(1, n)
    k = rng.randint(0, s)
    exact = 1 - reference.exact_left_tail(n, m, s, k - 1) if k > 0 else Fraction(1)
    assert _close(reference.right_tail(n, m, s, k, DIGITS), exact)


@pytest.mark.parametrize("n, m, s, k", [
    (2000, 0, 100, 0),       # empty success set
    (2000, 2000, 100, 99),   # every item a success, tail structurally 0
    (2000, 1950, 100, 49),   # support starts above 0
    (2000, 1000, 2000, 999), # the sample is the population
    (2000, 700, 1, 0),
    (1999, 1000, 400, 5),    # far tail, about 1e-140
])
def test_edges_match_rationals(n, m, s, k):
    assert _close(reference.left_tail(n, m, s, k, DIGITS),
                  reference.exact_left_tail(n, m, s, k))


def test_exact_pmf_sums_to_one():
    assert sum(reference.exact_pmf(1500, 400, 120).values()) == 1


@pytest.mark.parametrize("text, value, close", [
    ("0.95", Fraction(19, 20), True),
    ("0.96", Fraction(19, 20), False),
    ("8.333333333333333333333333E-7", Fraction(1, 1200000), True),
    ("8.333333333333333333333334E-7", Fraction(1, 1200000), False),
])
def test_decimal_close_allows_rounding_only(text, value, close):
    assert checks.decimal_close(text, value) is close


def _sharp_upper(n: int, s: int, k: int, delta: Fraction) -> int:
    return max(m for m in range(n + 1) if reference.exact_left_tail(n, m, s, k) >= delta)


def test_sharp_upper_bounds_match_a_scan():
    n, s, delta = 300, 40, Fraction(1, 20)
    ks = [0, 3, 4, 10, 39, 40]
    found = checks.sharp_upper_bounds(reference, n, s, ks, delta, DIGITS)
    assert found == {k: _sharp_upper(n, s, k, delta) for k in ks}


def _check(side, m_hat, hi, lo, iterations=5):
    n, s, k, delta = 400, 50, 12, Fraction(1, 100)
    v = checks.Verdict()
    checks.check_bound(v, reference, n, s, k, delta, side, m_hat, hi, lo, iterations, 20,
                       "direct", detailed=True)
    return v


@pytest.mark.parametrize("side", ["upper", "lower"])
def test_check_bound_accepts_the_sharp_bound_with_its_certificate(side):
    n, s, k, delta = 400, 50, 12, Fraction(1, 100)
    if side == "upper":
        m_hat = _sharp_upper(n, s, k, delta)
        tail, past = (lambda m: reference.exact_left_tail(n, m, s, k)), m_hat + 1
    else:
        m_hat = n - _sharp_upper(n, s, s - k, delta)
        tail, past = (lambda m: 1 - reference.exact_left_tail(n, m, s, k - 1)), m_hat - 1
    v = _check(side, m_hat, str(float(tail(m_hat))), str(float(tail(past))))
    assert v.ok and v.off_by_one == 0, v.failures
    assert v.err_over_target["direct"] < 1e-3
    v = _check(side, m_hat, str(float(tail(m_hat))), str(float(tail(past))), iterations=12)
    assert not v.ok  # ceil(log2 400) + 2 = 11


@pytest.mark.parametrize("side, shift, off_by_one, ok", [
    ("upper", 1, 1, True), ("upper", -1, 1, True), ("upper", 2, 1, False), ("upper", -2, 1, False),
    ("lower", 1, 1, True), ("lower", -1, 1, True), ("lower", 2, 1, False), ("lower", -2, 1, False),
])
def test_check_bound_allows_one_off_sharp_and_no_more(side, shift, off_by_one, ok):
    n, s, k, delta = 400, 50, 12, Fraction(1, 100)
    sharp = (_sharp_upper(n, s, k, delta) if side == "upper"
             else n - _sharp_upper(n, s, s - k, delta))
    v = _check(side, sharp + shift, "0.5", "0")  # a certificate that straddles delta
    assert v.ok == ok, v.failures
    assert v.off_by_one == off_by_one


def test_check_bound_rejects_a_certificate_that_does_not_straddle():
    n, s, k, delta = 400, 50, 12, Fraction(1, 100)
    v = _check("upper", _sharp_upper(n, s, k, delta), "0.009", "0")
    assert any("straddle" in f for f in v.failures)


def test_check_coverage_accepts_the_exact_rates_and_rejects_a_wrong_count():
    n, m, s, delta, trials = 600, 150, 40, Fraction(1, 20), 4000
    # the sharp bounds here miss m with probability 0.0383 (upper) and 0.0484 (lower)
    v = checks.Verdict()
    checks.check_coverage(v, reference, n, m, s, delta, trials, 150, 200, 150 / trials, 200 / trials)
    assert v.ok, v.failures
    v = checks.Verdict()
    checks.check_coverage(v, reference, n, m, s, delta, trials, 250, 200, 250 / trials, 200 / trials)
    assert len(v.failures) == 1 and v.failures[0].startswith("upper:")
    v = checks.Verdict()
    checks.check_coverage(v, reference, n, m, s, delta, trials, 150, 200, 0.5, 200 / trials)
    assert len(v.failures) == 1 and "rate" in v.failures[0]
