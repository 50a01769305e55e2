"""Exact-rational hypergeometric left tails, the solver's exact engine.

Computed with arbitrary-precision integers and reduced fractions, they are
the ground truth the floating engines are tested against.  The solver
reaches them with engine "exact", after checking the arguments and the size
guard below; `left_tail_exact` itself checks neither.  Right tails are the
solver's mirrored left tails, as for every engine.

Tails and the pmf are evaluated in the orientation whose sample is the
least of m, n - m, s and n - s, reached by two reflections: K's law is
symmetric in m and s, and m - K, the successes left out of the sample, is
hypergeometric(n, m, n - s), so left(n, m, s, k) = left(n, s, m, k)
= 1 - left(n, m, n - s, m - k - 1).  There the support is 0..s and the
integers are those of C(n, s) at the least s, a few hundred bits where the
caller's orientation can take thousands.  A tail numerator sums
C(m, i) * C(n-m, s-i) over whichever side of k has fewer support points; the
other side follows from Vandermonde's identity, the full sum being C(n, s).
A run of terms takes one pair of `math.comb` calls for its first term and
`run`, the package's one term walker, for the rest, exactly: every tail is
the same rational as the literal sum in the caller's orientation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .model import OracleLimitError, support

ORACLE_LIMIT = 10_000


def check_limit(n: int) -> None:
    """Refuse a population above the exact engine's size guard."""
    if n > ORACLE_LIMIT:
        raise OracleLimitError(f"exact oracle refuses n={n} (limit {ORACLE_LIMIT}); "
                               "use the direct or stirling engine")


# C(n, s) at the oriented sample s, shared by a solve's tails while s stays their
# least margin: as costly as a short tail near the guard
@lru_cache(maxsize=32)
def _total(n: int, s: int) -> int:
    return math.comb(n, s)


def run(n: int, m: int, s: int, j: int, stop: int, t: int, cut: int) -> list[int]:
    """Terms j+1..stop stepped up from the integer term t at j, until the mass left is below cut.

    The step t * a // b, a/b = p(i+1)/p(i), is exact on C(m, i) C(n-m, s-i) and rounds
    scaled terms down.  Steps leave the mode, so by log-concavity the terms from t on
    sum to at most t / (1 - a/b), compared with cut exactly; a cut of 0 never stops.
    """
    terms = []
    r = n - m - s + 1
    # m - i, s - i, i + 1 and r + i for i = j..stop-1; stepping them is cheaper than recomputing
    for mi, si, i1, ri in zip(range(m - j, m - stop, -1), range(s - j, s - stop, -1),
                              range(j + 1, stop + 1), range(r + j, r + stop)):
        a = mi * si
        b = i1 * ri
        t = t * a // b
        if t < cut and t * b < cut * (b - a):
            break
        terms.append(t)
    return terms


def _run_sum(n: int, m: int, s: int, a: int, b: int) -> int:
    """Sum of C(m,i) * C(n-m, s-i) for i = a..b, every i inside the support."""
    t = math.comb(m, a) * math.comb(n - m, s - a)
    return t + sum(run(n, m, s, a, b, t, 0))


def _orient(n: int, m: int, s: int) -> tuple[int, int, int | None]:
    """(m', s', c): K is distributed as K' of hypergeometric(n, m', s'), or as c - K'
    when c is not None, with s' the least of m, n - m, s and n - s, so K' has support 0..s'."""
    if min(m, n - m) < min(s, n - s):
        m, s = s, m
    if n - s < s:
        return m, n - s, m
    return m, s, None


def pmf_exact(n: int, m: int, s: int, j: int) -> Fraction:
    """P(K = j), exact, for j inside the support."""
    m, s, c = _orient(n, m, s)
    if c is not None:
        j = c - j
    return Fraction(math.comb(m, j) * math.comb(n - m, s - j), _total(n, s))


def left_tail_exact(n: int, m: int, s: int, k: int) -> Fraction:
    """P(K <= k), exact, for 0 <= m <= n, 1 <= s <= n and k >= 0.

    Evaluated in the orientation of `_orient`, whose support is 0..s, as
    P(K' <= k) or 1 - P(K' <= c - k - 1); sums the side of that point with
    fewer support points, the upper side subtracted from the full sum C(n, s).
    """
    lo, hi = support(n, m, s)
    if k < lo:
        return Fraction(0)
    if k >= hi:
        return Fraction(1)
    m, s, c = _orient(n, m, s)
    total = _total(n, s)
    if c is not None:  # P(K <= k) = P(K' >= c - k)
        k = c - k - 1
    if k < s - k:
        below = _run_sum(n, m, s, 0, k)
    else:
        below = total - _run_sum(n, m, s, k + 1, s)
    return Fraction(below if c is None else total - below, total)
