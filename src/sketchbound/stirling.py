"""Left-tail evaluation with its anchor term taken from the Stirling series.

ln h! is approximated by the Stirling series

    h ln h - h + ln(2 pi h)/2 + sum_i B_2i / (2i (2i-1) h^(2i-1))
      = h ln h - h + ln(2 pi h)/2 + 1/(12h) - 1/(360h^3) + 1/(1260h^5) - ...

for h at or above a cutoff, with the correction terms accumulated
smallest-first so they are not lost to roundoff, and with as many of them
as the digit count needs; below the cutoff ln h! is the log of the exact
factorial.  The anchor term of a tail is the exponential of a signed sum of
nine such values, and the rest of the tail follows from it by the exact
two-term ratio walk the direct engine uses.
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional

from .direct import _anchor_index, _check_tail_domain, _support, _trivial_tail, _walk_sum
from .model import DomainError, PrecisionContext, StructuralZeroError, decimal_context

_ZERO = Decimal(0)

_pi_memo: dict[int, Decimal] = {}
_ln2pi_memo: dict[int, Decimal] = {}
_bernoulli_memo: list[Fraction] = [Fraction(1)]


def _pi(digits: int) -> Decimal:
    """pi at the requested precision, by the classic converging series."""
    if digits in _pi_memo:
        return _pi_memo[digits]
    with localcontext(decimal_context(digits + 4)):
        three = Decimal(3)
        lasts, t, s, n, na, d, da = Decimal(0), three, three, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    with localcontext(decimal_context(digits)):
        result = +s
    _pi_memo[digits] = result
    return result


def _ln2pi(digits: int) -> Decimal:
    """ln(2 pi) at the requested precision, never a fixed-width literal."""
    if digits in _ln2pi_memo:
        return _ln2pi_memo[digits]
    with localcontext(decimal_context(digits + 4)):
        value = (2 * _pi(digits + 4)).ln()
    with localcontext(decimal_context(digits)):
        result = +value
    _ln2pi_memo[digits] = result
    return result


def _bernoulli(i: int) -> Fraction:
    """B_i (with B_1 = -1/2), from sum_{j <= i} C(i+1, j) B_j = 0."""
    while len(_bernoulli_memo) <= i:
        r = len(_bernoulli_memo)
        _bernoulli_memo.append(
            -sum(math.comb(r + 1, j) * b for j, b in enumerate(_bernoulli_memo)) / (r + 1))
    return _bernoulli_memo[i]


class LogFactorialTable:
    """Memoized ln h! with a small-argument exact path.

    Below the cutoff, ln h! is the log of the exact factorial.  The cutoff
    is `exact_cutoff` or half the digit count, whichever is larger; from
    there on the series terms fall fast enough that, after the first four
    correction terms, more are summed until the first one left out, which
    bounds the remainder, is below 10^-(digits-8)/9 (nine values make up
    one log pmf).  Cached values are keyed by (h, digits); at most
    MAX_CACHED are kept, the oldest evicted first.  The cache is an
    optimization only.
    """

    MAX_CACHED = 4096

    def __init__(self, exact_cutoff: int = 30):
        if exact_cutoff < 1:
            raise DomainError("exact_cutoff must be >= 1")
        self.exact_cutoff = exact_cutoff
        self.cached_values: dict[tuple[int, int], Decimal] = {}

    def value(self, h: int, ctx: PrecisionContext) -> Decimal:
        return self._value(h, ctx.digits)

    def _value(self, h: int, digits: int) -> Decimal:
        if h < 0:
            raise DomainError(f"factorial argument must be >= 0, got {h}")
        key = (h, digits)
        cached = self.cached_values.get(key)
        if cached is None:
            cached = self._compute(h, digits)
            if len(self.cached_values) >= self.MAX_CACHED:
                del self.cached_values[next(iter(self.cached_values))]
            self.cached_values[key] = cached
        return cached

    def _compute(self, h: int, digits: int) -> Decimal:
        with localcontext(decimal_context(digits)):
            if h < max(self.exact_cutoff, digits // 2):
                return Decimal(math.factorial(h)).ln()
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


_default_table = LogFactorialTable()


def log_factorial(h: int, ctx: PrecisionContext,
                  table: Optional[LogFactorialTable] = None) -> Decimal:
    """ln h!, by Stirling series above the table's cutoff and exactly below."""
    return (table or _default_table).value(h, ctx)


def log_pmf(n: int, m: int, s: int, j: int, ctx: PrecisionContext,
            table: Optional[LogFactorialTable] = None) -> Decimal:
    """ln P(K = j) as a signed sum of nine log factorials.

    The log factorials, of size up to n ln n, cancel down to a value of a
    few units, so they and their sum are evaluated with as many extra
    digits as n log2(n) has; the result is rounded to ctx.digits.
    Raises StructuralZeroError when the pmf is zero; callers must screen.
    """
    _check_tail_domain(n, m, s)
    j_lo, j_hi = _support(n, m, s)
    if j < j_lo or j > j_hi:
        raise StructuralZeroError(f"pmf(n={n}, m={m}, s={s}, j={j}) is zero")
    if j_lo == j_hi:
        # single-point support: the probability is exactly 1
        return _ZERO
    lnf = (table or _default_table)._value
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


def left_tail_stirling(n: int, m: int, s: int, k: int, ctx: PrecisionContext,
                       table: Optional[LogFactorialTable] = None) -> Decimal:
    """P(K <= k) with absolute error within ctx.abs_error_target.

    The anchor term, at the same index as the direct engine's, is the
    exponential of log_pmf; the shared ratio walk sums the rest.
    """
    trivial = _trivial_tail(n, m, s, k, ctx)
    if trivial is not None:
        return trivial
    j0 = _anchor_index(n, m, s, k)
    lnp0 = log_pmf(n, m, s, j0, ctx, table=table)
    with localcontext(ctx.context):
        anchor = lnp0.exp()
    return _walk_sum(n, m, s, k, j0, anchor, ctx)
