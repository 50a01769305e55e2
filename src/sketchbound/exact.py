"""Exact-rational hypergeometric pmf and tails.

Everything here is computed with arbitrary-precision integers and reduced
fractions.  The solver's exact engine evaluates its tails here, and they are
the ground truth the floating tail engines are tested against.  A size
guard keeps the oracle honest about what it is for: fast, trustworthy
answers on instances small enough to verify.

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
from functools import lru_cache

from .model import DomainError, OracleLimitError, check_tail_domain, support

DEFAULT_ORACLE_LIMIT = 10_000


def check_limit(n: int, max_n: int | None = DEFAULT_ORACLE_LIMIT) -> None:
    """Refuse a population above the oracle's size guard (max_n=None lifts it)."""
    if max_n is not None and n > max_n:
        raise OracleLimitError(
            f"exact oracle refuses n={n} (limit {max_n}); "
            f"raise max_n explicitly if you really want factorial-scale rationals"
        )


def pmf_exact(n: int, m: int, s: int, j: int,
              max_n: int | None = DEFAULT_ORACLE_LIMIT) -> Fraction:
    """P(K = j) for K hypergeometric(n, m, s), as an exact fraction."""
    check_tail_domain(n, m, s)
    check_limit(n, max_n)
    lo, hi = support(n, m, s)
    if not lo <= j <= hi:
        return Fraction(0)
    return Fraction(math.comb(m, j) * math.comb(n - m, s - j), math.comb(n, s))


# every tail of a solve shares C(n, s), as costly as a short tail near the guard
@lru_cache(maxsize=32)
def _total(n: int, s: int) -> int:
    return math.comb(n, s)


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


def left_tail_exact(n: int, m: int, s: int, k: int,
                    max_n: int | None = DEFAULT_ORACLE_LIMIT) -> Fraction:
    """P(K <= k), exact.

    Sums the side of k with fewer support points; the upper side is
    subtracted from the full sum C(n, s).
    """
    check_tail_domain(n, m, s)
    if k < 0:
        raise DomainError(f"tail index must be >= 0, got k={k}")
    check_limit(n, max_n)
    lo, hi = support(n, m, s)
    if k < lo:
        return Fraction(0)
    if k >= hi:
        return Fraction(1)
    total = _total(n, s)
    if k - lo < hi - k:
        return Fraction(_run_sum(n, m, s, lo, k), total)
    return Fraction(total - _run_sum(n, m, s, k + 1, hi), total)


def right_tail_exact(n: int, m: int, s: int, k: int,
                     max_n: int | None = DEFAULT_ORACLE_LIMIT) -> Fraction:
    """P(K >= k), exact, as P(s - K <= s - k).  Empty sums (k > min(s, m)) are zero."""
    check_tail_domain(n, m, s)
    if k < 0:
        raise DomainError(f"tail index must be >= 0, got k={k}")
    check_limit(n, max_n)
    if k > s:
        return Fraction(0)
    return left_tail_exact(n, n - m, s, s - k, max_n=None)
