"""Left-tail evaluation by direct combinatorial products.

The anchor term p(j) = T(m, j) T(n-m, s-j) C(s, j) / T(n, s), with T(a, b)
the falling factorial a(a-1)...(a-b+1), is built from exact integer chunks
folded into binary mantissas that are truncated to a fixed width after each
chunk.  One integer division of the two mantissas and one rounding into the
caller's decimal context finish it, so the anchor is within one unit in the
last place at any s.  Neighboring terms follow from the anchor through the
two-term ratio recurrence, and terms too small to matter are dropped.

Nothing here ever falls back to binary floats.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from functools import lru_cache

from .model import (
    DomainError,
    PrecisionContext,
    PrecisionInfeasibleError,
    decimal_context,
)

_ONE = Decimal(1)
_ZERO = Decimal(0)
_CHUNK = 16  # factors per exact integer chunk of a falling product
_GUARD_DIGITS = 5  # extra digits for the power of two that scales the quotient


def _check_tail_domain(n: int, m: int, s: int) -> None:
    if not 0 <= m <= n:
        raise DomainError(f"success count must satisfy 0 <= m <= n, got m={m}, n={n}")
    if not 1 <= s <= n:
        raise DomainError(f"sample size must satisfy 1 <= s <= n, got s={s}, n={n}")


def _check_feasible(ctx: PrecisionContext) -> None:
    # A term at the truncation threshold must still move a sum of order 1.
    if Decimal(1).scaleb(-ctx.digits) > ctx.trunc_threshold:
        raise PrecisionInfeasibleError(
            f"{ctx.digits} digits cannot resolve terms at {ctx.trunc_threshold} "
            f"inside a tail sum; raise the digit count"
        )


def _falling(a: int, b: int, bits: int, v: int = 1, e: int = 0) -> tuple[int, int]:
    """(v * 2**e) * T(a, b) as a mantissa of at most `bits` bits and an exponent.

    T(a, b) is multiplied in exact chunks of _CHUNK factors; the mantissa is
    truncated after each chunk, which loses less than 2**(1-bits) relative
    (nothing while the product still fits).
    """
    stop = a - b
    for hi in range(a, stop, -_CHUNK):
        v *= math.perm(hi, min(_CHUNK, hi - stop))
        x = v.bit_length() - bits
        if x > 0:
            v >>= x
            e += x
    return v, e


# T(n, s) depends only on (n, s, bits): every tail evaluation of a solve and
# every condition of a batch file at one digit count shares it.
_falling_cached = lru_cache(maxsize=16)(_falling)


def pmf_direct(n: int, m: int, s: int, j: int, ctx: PrecisionContext) -> Decimal:
    """P(K = j) = T(m, j) T(n-m, s-j) C(s, j) / T(n, s), rounded once into ctx.

    C(s, j) is T(s, c) / c! with c = min(j, s-j).  Numerator and denominator
    are mantissas of B = 4 (digits + 2) + bitlen(s) + 4 bits.  At most
    3s/16 + 5 chunks truncate and the integer division floors once more;
    together they lose less than 8s * 2**(1-B) <= 16**-(digits+2) relative.
    The power of two is taken at ctx.digits + 5 digits, which adds at most
    10**-(digits+4).  The result is therefore within one unit in the last
    place at ctx.digits (half a unit from the final rounding plus under a
    hundredth), independent of s.
    """
    _check_tail_domain(n, m, s)
    if j < 0 or j > s or j > m or s - j > n - m:
        return _ZERO
    bits = 4 * (ctx.digits + 2) + s.bit_length() + 4
    c = min(j, s - j)
    v, e = _falling(m, j, bits)
    v, e = _falling(n - m, s - j, bits, v, e)
    v, e = _falling(s, c, bits, v, e)
    d, f = _falling(c, c, bits, *_falling_cached(n, s, bits))
    shift = bits + d.bit_length()
    scale = decimal_context(ctx.digits + _GUARD_DIGITS).power(2, e - f - shift)
    return ctx.context.multiply((v << shift) // d, scale)


def _support(n: int, m: int, s: int) -> tuple[int, int]:
    return max(0, s - (n - m)), min(s, m)


def _anchor_index(n: int, m: int, s: int, k: int) -> int:
    # Anchor at the largest term of the truncated sum: the distribution mode
    # when it lies at or below k, otherwise k itself.
    j_lo, j_hi = _support(n, m, s)
    mode = (s + 1) * (m + 1) // (n + 2)
    return max(j_lo, min(k, mode, j_hi))


def left_tail_direct(n: int, m: int, s: int, k: int, ctx: PrecisionContext) -> Decimal:
    """P(K <= k) with absolute error within ctx.abs_error_target.

    Evaluates the anchor term from scratch and hands it to the ratio walk.
    """
    trivial = _trivial_tail(n, m, s, k, ctx)
    if trivial is not None:
        return trivial
    j0 = _anchor_index(n, m, s, k)
    return _walk_sum(n, m, s, k, j0, pmf_direct(n, m, s, j0, ctx), ctx)


def _trivial_tail(n: int, m: int, s: int, k: int, ctx: PrecisionContext) -> Decimal | None:
    """Check a floating tail's arguments; return the tail if it is 0 or 1."""
    _check_tail_domain(n, m, s)
    if k < 0:
        raise DomainError(f"tail index must be >= 0, got k={k}")
    _check_feasible(ctx)
    if m > n - (s - k):
        return _ZERO
    if k >= _support(n, m, s)[1]:
        # the sum covers the entire support
        return _ONE
    return None


def _walk_sum(n: int, m: int, s: int, k: int, j0: int, anchor: Decimal,
              ctx: PrecisionContext) -> Decimal:
    """Sum of the tail terms p(j_lo..k) given the anchor term p(j0).

    Walks outward from the anchor with the exact two-term ratio until terms
    drop below ctx.trunc_threshold, and accumulates each directional run
    smallest-first.
    """
    j_lo = _support(n, m, s)[0]
    thr = ctx.trunc_threshold
    with localcontext(ctx.context):
        down: list[Decimal] = []
        t, j = anchor, j0
        while j > j_lo:
            t = t * (j * (n - m - s + j)) / ((m - j + 1) * (s - j + 1))
            if t < thr:
                break
            down.append(t)
            j -= 1
        up: list[Decimal] = []
        t, j = anchor, j0
        while j < k:
            t = t * ((m - j) * (s - j)) / ((j + 1) * (n - m - s + j + 1))
            if t < thr:
                break
            up.append(t)
            j += 1
        total = _ZERO
        for t in reversed(down):
            total += t
        total += anchor
        for t in reversed(up):
            total += t
        return total
