"""Exact-rational hypergeometric pmf, tails, and sharp bounds.

Everything here is computed with arbitrary-precision integers and reduced
fractions, and serves as the ground truth the floating tail engines are
tested against.  A size guard keeps the oracle honest about what it is for:
fast, trustworthy answers on instances small enough to verify.

A tail numerator sums C(m, i) * C(n-m, s-i) over whichever side of k has
fewer support points; the other side follows from Vandermonde's identity,
the full sum being C(n, s).  Each run of terms takes one pair of `math.comb`
calls for its first term and steps to the next with the exact two-term
ratio in integers, so every tail is the same exact rational as the literal
sum.  Right tails are left tails of the complementary count,
P(K >= k) = P(s - K <= s - k) with s - K hypergeometric(n, n-m, s).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .model import DomainError, OracleLimitError, QueryInstance

# Exact rationals are plain stdlib fractions; binomials stay plain ints.
ExactRational = Fraction

DEFAULT_ORACLE_LIMIT = 10_000


def _check_limit(n: int, max_n: int | None) -> None:
    if max_n is not None and n > max_n:
        raise OracleLimitError(
            f"exact oracle refuses n={n} (limit {max_n}); "
            f"raise max_n explicitly if you really want factorial-scale rationals"
        )


def _check_pmf_domain(n: int, m: int, s: int) -> None:
    if not 0 <= m <= n:
        raise DomainError(f"success count must satisfy 0 <= m <= n, got m={m}, n={n}")
    if not 1 <= s <= n:
        raise DomainError(f"sample size must satisfy 1 <= s <= n, got s={s}, n={n}")


def binom(i: int, j: int) -> int:
    """Binomial coefficient C(i, j), zero when j < 0, j > i, or i < 0."""
    if j < 0 or i < 0 or j > i:
        return 0
    return math.comb(i, j)


def pmf_exact(n: int, m: int, s: int, j: int,
              max_n: int | None = DEFAULT_ORACLE_LIMIT) -> Fraction:
    """P(K = j) for K hypergeometric(n, m, s), as an exact fraction."""
    _check_pmf_domain(n, m, s)
    _check_limit(n, max_n)
    return Fraction(binom(m, j) * binom(n - m, s - j), binom(n, s))


def _run_sum(n: int, m: int, s: int, a: int, b: int) -> int:
    """Sum of C(m,i) * C(n-m, s-i) for i = a..b, every i inside the support."""
    t = math.comb(m, a) * math.comb(n - m, s - a)
    total = t
    r = n - m - s + 1
    for i in range(a, b):
        # exact: t and the next term are both integers
        t = t * (m - i) * (s - i) // ((i + 1) * (r + i))
        total += t
    return total


def _tail_numerator(n: int, m: int, s: int, k: int, total: int) -> int:
    """Sum of C(m,i) * C(n-m, s-i) for i = 0..k, given total = C(n, s).

    Sums the side of k with fewer support points; the upper side is
    subtracted from the full sum.
    """
    lo = max(0, s - (n - m))
    hi = min(m, s)
    if k < lo:
        return 0
    if k >= hi:
        return total
    if k - lo < hi - k:
        return _run_sum(n, m, s, lo, k)
    return total - _run_sum(n, m, s, k + 1, hi)


def left_tail_exact(n: int, m: int, s: int, k: int,
                    max_n: int | None = DEFAULT_ORACLE_LIMIT) -> Fraction:
    """P(K <= k), exact."""
    _check_pmf_domain(n, m, s)
    if k < 0:
        raise DomainError(f"tail index must be >= 0, got k={k}")
    _check_limit(n, max_n)
    total = math.comb(n, s)
    return Fraction(_tail_numerator(n, m, s, k, total), total)


def right_tail_exact(n: int, m: int, s: int, k: int,
                     max_n: int | None = DEFAULT_ORACLE_LIMIT) -> Fraction:
    """P(K >= k), exact, as P(s - K <= s - k).  Empty sums (k > min(s, m)) are zero."""
    _check_pmf_domain(n, m, s)
    if k < 0:
        raise DomainError(f"tail index must be >= 0, got k={k}")
    _check_limit(n, max_n)
    if k > s:
        return Fraction(0)
    return left_tail_exact(n, n - m, s, s - k, max_n=None)


def upper_bound_exact(instance: QueryInstance,
                      max_n: int | None = DEFAULT_ORACLE_LIMIT,
                      exhaustive: bool = False) -> int:
    """Largest m with P(K <= k) >= delta, by exact binary search.

    The left tail is strictly decreasing in m until it hits zero, so a
    bisection over [0, n] is exact.  `exhaustive` switches to a linear scan
    for debugging the search itself.
    """
    n, s, k, delta = instance.n, instance.s, instance.k, instance.delta
    _check_limit(n, max_n)
    if k == s:
        # left tail is identically 1, no m is excluded
        return n
    dn, dd = delta.numerator, delta.denominator
    total = math.comb(n, s)
    if exhaustive:
        for m in range(n, -1, -1):
            if _tail_numerator(n, m, s, k, total) * dd >= dn * total:
                return m
        raise AssertionError("left tail at m=0 is 1, which always qualifies")
    lo, hi = 0, n  # tail(0) = 1 >= delta; tail(n) = 0 < delta since k < s
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _tail_numerator(n, mid, s, k, total) * dd >= dn * total:
            lo = mid
        else:
            hi = mid
    return lo


def lower_bound_exact(instance: QueryInstance,
                      max_n: int | None = DEFAULT_ORACLE_LIMIT,
                      exhaustive: bool = False) -> int:
    """Smallest m with P(K >= k) >= delta, through the dual upper bound."""
    n, s, k, delta = instance.n, instance.s, instance.k, instance.delta
    if k == 0:
        # right tail is identically 1
        return 0
    dual = QueryInstance(n, s, s - k, delta)
    return n - upper_bound_exact(dual, max_n=max_n, exhaustive=exhaustive)
