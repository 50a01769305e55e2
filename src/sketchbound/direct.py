"""The anchor term of a tail by direct combinatorial products.

The anchor term p(j) = T(m, j) T(n-m, s-j) C(s, j) / T(n, s), with T(a, b)
the falling factorial a(a-1)...(a-b+1), is built from exact integer chunks
folded into binary mantissas that are truncated to a fixed width after each
chunk.  One integer division of the two mantissas and one rounding into the
caller's decimal context finish it, so the anchor is within one unit in the
last place at any s.  The solver's ratio walk sums the rest of the tail from
it.

Nothing here ever falls back to binary floats.
"""

from __future__ import annotations

import math
from decimal import Decimal
from functools import lru_cache

from .model import PrecisionContext, check_tail_domain, decimal_context, support

_ZERO = Decimal(0)
_CHUNK = 16  # factors per exact integer chunk of a falling product
_GUARD_DIGITS = 5  # extra digits for the power of two that scales the quotient


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
    check_tail_domain(n, m, s)
    j_lo, j_hi = support(n, m, s)
    if j < j_lo or j > j_hi:
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
