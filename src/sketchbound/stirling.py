"""The anchor term of a tail from the Stirling series.

ln h! is approximated by the Stirling series

    h ln h - h + ln(2 pi h)/2 + sum_i B_2i / (2i (2i-1) h^(2i-1))
      = h ln h - h + ln(2 pi h)/2 + 1/(12h) - 1/(360h^3) + 1/(1260h^5) - ...

for h at or above a cutoff, with the correction terms accumulated
smallest-first so they are not lost to roundoff, and with as many of them
as the digit count needs; below the cutoff ln h! is the log of the exact
factorial.  The anchor term of a tail is the exponential of a signed sum of
nine such values; the solver's ratio walk sums the rest of the tail from it.
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

from .model import (
    DomainError,
    PrecisionContext,
    check_tail_domain,
    decimal_context,
    support,
)

_ZERO = Decimal(0)

_bernoulli_memo: list[Fraction] = [Fraction(1)]


@lru_cache(maxsize=64)
def _ln2pi(digits: int) -> Decimal:
    """ln(2 pi) at the requested precision, pi by the classic converging series."""
    with localcontext(decimal_context(digits + 8)):
        three = Decimal(3)
        lasts, t, s, n, na, d, da = Decimal(0), three, three, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    with localcontext(decimal_context(digits + 4)):
        value = (2 * (+s)).ln()
    with localcontext(decimal_context(digits)):
        return +value


def _bernoulli(i: int) -> Fraction:
    """B_i (with B_1 = -1/2), from sum_{j <= i} C(i+1, j) B_j = 0."""
    while len(_bernoulli_memo) <= i:
        r = len(_bernoulli_memo)
        _bernoulli_memo.append(
            -sum(math.comb(r + 1, j) * b for j, b in enumerate(_bernoulli_memo)) / (r + 1))
    return _bernoulli_memo[i]


@lru_cache(maxsize=4096)
def log_factorial(h: int, digits: int) -> Decimal:
    """ln h! at `digits` digits, by the Stirling series above the cutoff and exactly below.

    Below max(30, digits // 2), ln h! is the log of the exact factorial;
    from there on it is _series(h, digits).  At most 4096 values are kept,
    the least recently used evicted first.  The cache is an optimization
    only.
    """
    if h < 0:
        raise DomainError(f"factorial argument must be >= 0, got {h}")
    if h < max(30, digits // 2):
        with localcontext(decimal_context(digits)):
            return Decimal(math.factorial(h)).ln()
    return _series(h, digits)


def _series(h: int, digits: int) -> Decimal:
    """ln h! by the Stirling series, with every correction term it needs.

    After the first four correction terms, more are summed until the first
    one left out, which bounds the remainder, is below 10^-(digits-8)/9
    (nine values make up one log pmf).
    """
    with localcontext(decimal_context(digits)):
        tol = Decimal(1).scaleb(8 - digits) / 9
        terms = []
        for i in itertools.count(1):
            b = _bernoulli(2 * i)
            t = Decimal(b.numerator) / (b.denominator * 2 * i * (2 * i - 1) * h ** (2 * i - 1))
            if i > 4 and abs(t) < tol:
                break
            terms.append(t)
        # smallest terms first
        acc = _ZERO
        for t in reversed(terms):
            acc += t
        hd = Decimal(h)
        lnh = hd.ln()
        acc += (_ln2pi(digits) + lnh) / 2
        acc -= hd
        acc += hd * lnh
        return acc


def log_pmf(n: int, m: int, s: int, j: int, ctx: PrecisionContext) -> Decimal:
    """ln P(K = j) as a signed sum of nine log factorials.

    The log factorials, of size up to n ln n, cancel down to a value of a
    few units, so they and their sum are evaluated with as many extra
    digits as n log2(n) has; the result is rounded to ctx.digits.  Outside
    the support the pmf is zero and the result is -Infinity, whose exp() is
    exactly 0.
    """
    check_tail_domain(n, m, s)
    j_lo, j_hi = support(n, m, s)
    if j < j_lo or j > j_hi:
        return Decimal("-Infinity")
    if j_lo == j_hi:
        # single-point support: the probability is exactly 1
        return _ZERO
    lnf = log_factorial
    wide = ctx.digits + len(str(n * n.bit_length()))
    with localcontext(decimal_context(wide)):
        lnp = (
            lnf(m, wide) - lnf(m - j, wide)
            + lnf(n - m, wide) - lnf(n - m - s + j, wide)
            + lnf(s, wide) - lnf(s - j, wide)
            - lnf(j, wide) - lnf(n, wide) + lnf(n - s, wide)
        )
    with localcontext(ctx.context):
        return +lnp

