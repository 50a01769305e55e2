"""The sharp bounds by their definitions, scanned over every m.

Independent of the solver's bisection: the upper bound is the first m, down
from n, whose exact left tail meets delta; the lower bound is the first m,
up from 0, whose exact right tail does.
"""

from sketchbound import QueryInstance, left_tail_exact, right_tail_exact


def sharp_upper(inst: QueryInstance) -> int:
    """Largest m with P(K <= k) >= delta."""
    n, s, k, delta = inst.n, inst.s, inst.k, inst.delta
    return next(m for m in range(n, -1, -1) if left_tail_exact(n, m, s, k) >= delta)


def sharp_lower(inst: QueryInstance) -> int:
    """Smallest m with P(K >= k) >= delta."""
    n, s, k, delta = inst.n, inst.s, inst.k, inst.delta
    return next(m for m in range(n + 1) if right_tail_exact(n, m, s, k) >= delta)
