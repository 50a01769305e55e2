"""Left-tail evaluation by direct combinatorial products.

The anchor term is evaluated as one big ratio of integer factor lists with
an interleaved multiply/divide schedule that keeps the running value near 1,
so no intermediate ever approaches overflow or underflow.  Neighboring terms
follow from the anchor through the two-term ratio recurrence, and terms too
small to matter are dropped.

All arithmetic runs in the caller's decimal context; nothing here ever
falls back to binary floats.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import chain
from typing import Iterable

from .model import (
    DomainError,
    PrecisionContext,
    PrecisionInfeasibleError,
    TermBoundaryError,
)

_ONE = Decimal(1)
_ZERO = Decimal(0)


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


def balanced_product(numer_terms: Iterable[int], denom_terms: Iterable[int],
                     ctx: PrecisionContext, _trace: list | None = None) -> Decimal:
    """Product of numerator terms over product of denominator terms.

    Multiplies by a numerator term while the running value is below 1 (or
    once denominators run out), divides by a denominator term otherwise.
    `_trace` collects every intermediate value for the range-safety tests.
    """
    with localcontext(ctx.context):
        v = _ONE
        den = iter(denom_terms)
        d = next(den, None)
        if _trace is None:
            for t in numer_terms:
                while v >= _ONE and d is not None:
                    if d == 0:
                        raise DomainError("zero denominator term")
                    v /= d
                    d = next(den, None)
                v *= t
            while d is not None:
                if d == 0:
                    raise DomainError("zero denominator term")
                v /= d
                d = next(den, None)
        else:
            for t in numer_terms:
                while v >= _ONE and d is not None:
                    if d == 0:
                        raise DomainError("zero denominator term")
                    v /= d
                    _trace.append(v)
                    d = next(den, None)
                v *= t
                _trace.append(v)
            while d is not None:
                if d == 0:
                    raise DomainError("zero denominator term")
                v /= d
                _trace.append(v)
                d = next(den, None)
        return v


def pmf_direct(n: int, m: int, s: int, j: int, ctx: PrecisionContext,
               _trace: list | None = None) -> Decimal:
    """P(K = j) via the falling-factorial expansion and the interleaved product.

    Numerator factors: the j factors of T(m, j), the s-j factors of
    T(n-m, s-j), the j factors of T(s, j).  Denominator factors: the j
    factors of j!, the s factors of T(n, s).
    """
    _check_tail_domain(n, m, s)
    if j < 0 or j > s or j > m or s - j > n - m:
        return _ZERO
    numer = chain(
        range(m, m - j, -1),
        range(n - m, n - m - (s - j), -1),
        range(s, s - j, -1),
    )
    denom = chain(range(1, j + 1), range(n, n - s, -1))
    return balanced_product(numer, denom, ctx, _trace=_trace)


def term_ratio(n: int, m: int, s: int, j: int) -> Fraction:
    """p(n, m, s, j+1) / p(n, m, s, j), exact.

    Raises TermBoundaryError when the next term is structurally zero, and
    DomainError when the current term already is.
    """
    if j + 1 > m or j + 1 > s:
        raise TermBoundaryError(f"term after j={j} is structurally zero")
    if j < 0 or n - m - s + j + 1 <= 0:
        raise DomainError(
            f"ratio undefined at j={j}: term j is structurally zero"
        )
    return Fraction((m - j) * (s - j), (j + 1) * (n - m - s + j + 1))


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
