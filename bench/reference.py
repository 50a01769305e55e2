"""Hypergeometric tails computed with mpmath, apart from the sketchbound code.

K ~ hypergeometric(n, m, s) counts successes in a uniform sample of s items
drawn without replacement from n items of which m are successes.  A left
tail P(K <= k) is anchored at its largest term, whose logarithm comes from
`loggamma`, and walked outward with the exact two-term ratio

    p(j + 1) / p(j) = (m - j)(s - j) / ((j + 1)(n - m - s + j + 1)),

whose numerator and denominator are exact integers.  Right tails use the
symmetry right(n, m, s, k) = left(n, n - m, s, s - k).  Nothing here imports
sketchbound, so a fault in the program cannot hide in its reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import mpmath

MIN_DIGITS = 60


def reference_digits(program_digits: int, n: int) -> int:
    """Working precision: at least 60 digits and twice the program's.

    The log of the anchor term is a difference of log-gammas of size about
    n ln n, so that many leading digits cancel; they are added on top.
    """
    return max(MIN_DIGITS, 2 * program_digits) + len(str(n * max(1, n.bit_length())))


def _support(n: int, m: int, s: int) -> tuple[int, int]:
    return max(0, s - (n - m)), min(s, m)


def left_tail(n: int, m: int, s: int, k: int, digits: int) -> mpmath.mpf:
    """P(K <= k), computed at `digits` digits, with absolute error near 10**-digits."""
    if not (0 <= m <= n and 1 <= s <= n):
        raise ValueError(f"need 0 <= m <= n and 1 <= s <= n, got n={n}, m={m}, s={s}")
    lo, hi = _support(n, m, s)
    with mpmath.workdps(digits):
        if k < lo:
            return mpmath.mpf(0)
        if k >= hi:
            return mpmath.mpf(1)
        mode = (s + 1) * (m + 1) // (n + 2)
        j0 = max(lo, min(k, mode))
        lg = mpmath.loggamma
        log_p0 = (lg(m + 1) - lg(j0 + 1) - lg(m - j0 + 1)
                  + lg(n - m + 1) - lg(s - j0 + 1) - lg(n - m - s + j0 + 1)
                  - lg(n + 1) + lg(s + 1) + lg(n - s + 1))
        p0 = mpmath.exp(log_p0)
        # Terms fall away from the anchor with ratios that shrink as they go
        # (the pmf is log-concave), so once a term is below eps and its ratio
        # below one half, everything left sums to less than eps.
        eps = mpmath.mpf(10) ** (-digits - 5)
        total = p0
        t, j = p0, j0
        while j > lo:
            num = j * (n - m - s + j)
            den = (m - j + 1) * (s - j + 1)
            t = t * num / den
            total += t
            j -= 1
            if t < eps and 2 * num < den:
                break
        t, j = p0, j0
        while j < k:
            num = (m - j) * (s - j)
            den = (j + 1) * (n - m - s + j + 1)
            t = t * num / den
            total += t
            j += 1
            if t < eps and 2 * num < den:
                break
        return +total


def right_tail(n: int, m: int, s: int, k: int, digits: int) -> mpmath.mpf:
    """P(K >= k), through the symmetry with the complemented condition."""
    if k <= 0:
        with mpmath.workdps(digits):
            return mpmath.mpf(1)
    return left_tail(n, n - m, s, s - k, digits)


def to_mpf(value: Fraction, digits: int) -> mpmath.mpf:
    """A rational as an mpf at `digits` digits."""
    value = Fraction(value)
    with mpmath.workdps(digits):
        return mpmath.mpf(value.numerator) / value.denominator


def exact_pmf(n: int, m: int, s: int) -> dict[int, Fraction]:
    """P(K = j) over the whole support, as rationals from math.comb."""
    lo, hi = _support(n, m, s)
    total = comb(n, s)
    return {j: Fraction(comb(m, j) * comb(n - m, s - j), total) for j in range(lo, hi + 1)}


def exact_left_tail(n: int, m: int, s: int, k: int) -> Fraction:
    """P(K <= k) as a rational from math.comb; for small n only."""
    lo, hi = _support(n, m, s)
    num = sum(comb(m, j) * comb(n - m, s - j) for j in range(lo, min(k, hi) + 1))
    return Fraction(num, comb(n, s))
