"""Reference values the engines and the solver's search are checked against.

The exact pmf, and exact right tails through the solver's exact engine.
The sharp bounds by their definitions, independent of the solver's search:
the upper bound is the first m, down from n, whose exact left tail meets
delta; the lower bound is the first m, up from 0, whose exact right tail
does.  And the computed bounds by plain bisection over the solver's own
tails, from the structural bracket [0, n - (s - k) + 1]: any search that
keeps a verified bracket must end at the same m and the same two tails.
"""

import math
from fractions import Fraction

from sketchbound import PrecisionContext, QueryInstance, TailEngine, right_tail
from sketchbound import solver
from sketchbound.exact import left_tail_exact
from sketchbound.model import check_tail_domain, support

# the exact engine ignores the precision contract
_EXACT_CTX = PrecisionContext.for_digits(16)


def pmf_exact(n: int, m: int, s: int, j: int) -> Fraction:
    """P(K = j) for K hypergeometric(n, m, s), as an exact fraction, at any n."""
    check_tail_domain(n, m, s)
    lo, hi = support(n, m, s)
    if not lo <= j <= hi:
        return Fraction(0)
    return Fraction(math.comb(m, j) * math.comb(n - m, s - j), math.comb(n, s))


def right_exact(n: int, m: int, s: int, k: int) -> Fraction:
    """P(K >= k), exact: the solver's mirrored left tail on the exact engine (n <= 10^4)."""
    return right_tail(n, m, s, k, TailEngine.EXACT, _EXACT_CTX)


def sharp_upper(inst: QueryInstance) -> int:
    """Largest m with P(K <= k) >= delta."""
    n, s, k, delta = inst.n, inst.s, inst.k, inst.delta
    return next(m for m in range(n, -1, -1) if left_tail_exact(n, m, s, k) >= delta)


def sharp_lower(inst: QueryInstance) -> int:
    """Smallest m with P(K >= k) >= delta."""
    n, s, k, delta = inst.n, inst.s, inst.k, inst.delta
    return next(m for m in range(n + 1) if right_exact(n, m, s, k) >= delta)


def bisect_upper(inst: QueryInstance, engine: TailEngine | str) -> tuple[int, object, object]:
    """(m_hat, tail at m_hat, tail at m_hat + 1) by bisection on solver.left_tail."""
    n, s, k, delta = inst.n, inst.s, inst.k, inst.delta
    if k == s:
        return n, 1, 0
    eng = solver.resolve_engine(engine, n)
    ctx = solver.choose_precision(n, k, delta)
    lo, t_lo, hi, t_hi = 0, 1, n - (s - k) + 1, 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        t = solver.left_tail(n, mid, s, k, eng, ctx)
        if t >= delta:
            lo, t_lo = mid, t
        else:
            hi, t_hi = mid, t
    return lo, t_lo, t_hi


def bisect_lower(inst: QueryInstance, engine: TailEngine | str) -> tuple[int, object, object]:
    """The dual of bisect_upper: m_hat and the right tails at m_hat and m_hat - 1."""
    m, t_at, t_next = bisect_upper(QueryInstance(inst.n, inst.s, inst.s - inst.k, inst.delta),
                                   engine)
    return inst.n - m, t_at, t_next
