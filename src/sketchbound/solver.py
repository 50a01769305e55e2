"""Sharp bounds from tail evaluations.

Binary search over m with a verified bracket: the low endpoint's computed
tail is at or above the failure budget, the high endpoint's below it.  Seeds
(the sample proportion for low, a Hoeffding bound for high) are hints only;
they enter the bracket solely after their tails check out.  Lower bounds
come from the upper bound of the complemented condition, and every bound
takes its digit count from the precision chooser, which keeps tail errors
inside the tail gaps.
"""

from __future__ import annotations

import math
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Union

from . import direct, exact, stirling
from .model import (
    BoundResult,
    DomainError,
    PrecisionContext,
    Probability,
    QueryInstance,
    StructuralZeroError,
    TailEngine,
    as_fraction,
    decimal_context,
)

TailValue = Union[Decimal, Fraction]

_ONE = Decimal(1)
_ZERO = Decimal(0)

# Above this population size the exact oracle stops being "fast ground
# truth", so auto picks the O(k lg n) Stirling engine instead.
AUTO_EXACT_LIMIT = exact.DEFAULT_ORACLE_LIMIT


def resolve_engine(engine: Union[TailEngine, str], n: int) -> TailEngine:
    """Map an engine request ('auto' allowed) to a concrete engine for size n."""
    if isinstance(engine, TailEngine):
        return engine
    if engine == "auto":
        return TailEngine.EXACT if n <= AUTO_EXACT_LIMIT else TailEngine.STIRLING
    try:
        return TailEngine(engine)
    except ValueError:
        raise DomainError(f"unknown engine {engine!r}") from None


def left_tail(n: int, m: int, s: int, k: int, engine: TailEngine,
              ctx: PrecisionContext) -> TailValue:
    """P(K <= k) under the chosen engine."""
    if engine is TailEngine.DIRECT:
        return direct.left_tail_direct(n, m, s, k, ctx)
    if engine is TailEngine.STIRLING:
        return stirling.left_tail_stirling(n, m, s, k, ctx)
    return exact.left_tail_exact(n, m, s, k)


def right_tail(n: int, m: int, s: int, k: int, engine: TailEngine,
               ctx: PrecisionContext) -> TailValue:
    """P(K >= k): exact directly, floating engines via 1 - left(k-1)."""
    if engine is TailEngine.EXACT:
        return exact.right_tail_exact(n, m, s, k)
    if k == 0:
        return _ONE
    with localcontext(ctx.context):
        return _ONE - left_tail(n, m, s, k - 1, engine, ctx)


def pmf(n: int, m: int, s: int, j: int, engine: TailEngine,
        ctx: PrecisionContext) -> TailValue:
    """P(K = j) under the chosen engine."""
    if engine is TailEngine.DIRECT:
        return direct.pmf_direct(n, m, s, j, ctx)
    if engine is TailEngine.STIRLING:
        try:
            lp = stirling.log_pmf(n, m, s, j, ctx)
        except StructuralZeroError:
            return _ZERO
        with localcontext(ctx.context):
            return lp.exp()
    return exact.pmf_exact(n, m, s, j)


def choose_precision(n: int, k: int, delta: Probability,
                     digits: int | None = None) -> PrecisionContext:
    """Precision sufficient to place the bound within one of the sharp value.

    The absolute error target is delta/(4nk), half the conservative
    half-gap between consecutive tails near the bound; the digit count
    covers that target with nine digits to spare, never below 16, unless
    overridden.  The truncation threshold splits a tenth of the target
    across the k+1 terms.
    """
    d = as_fraction(delta)
    if n < 1 or k < 0:
        raise DomainError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    if not 0 < d < 1:
        raise DomainError(f"delta must lie strictly in (0, 1), got {d}")
    target = d / (4 * n * max(k, 1))
    if digits is None:
        # digits of the integer part of 1/target; equals ceil(log10(1/target))
        # except at exact powers of ten, where it adds one conservative digit
        scale = (4 * n * max(k, 1) * d.denominator) // d.numerator
        digits = max(16, len(str(scale)) + 9)
    with localcontext(decimal_context(max(digits, 16))):
        target_dec = Decimal(target.numerator) / Decimal(target.denominator)
        thr = target_dec / (10 * (k + 1))
    return PrecisionContext(digits=digits, abs_error_target=target_dec,
                            trunc_threshold=thr)


def start_high(n: int, s: int, k: int, delta: Probability) -> int:
    """Hoeffding seed for the high endpoint; the caller verifies its tail."""
    d = as_fraction(delta)
    if not 0 < d < 1:
        raise DomainError(f"delta must lie strictly in (0, 1), got {d}")
    # ln(1/delta) from the integer parts, safe for arbitrarily small delta
    log_inv = math.log(d.denominator) - math.log(d.numerator)
    radical = math.sqrt(log_inv / (2 * s))
    return min(math.ceil(n * (k / s + radical)), n)


def upper_bound(instance: QueryInstance, engine: Union[TailEngine, str] = "auto",
                digits: int | None = None) -> BoundResult:
    """Largest m whose computed left tail still meets the failure budget.

    The result's two recorded tails straddle the budget: tail(m_hat) >=
    delta > tail(m_hat + 1) as computed.  The digit count comes from
    choose_precision(n, k, delta, digits), so tail errors stay inside the
    consecutive-tail gaps and m_hat is within one of the sharp bound.
    """
    n, s, k, delta = instance.n, instance.s, instance.k, instance.delta
    eng = resolve_engine(engine, n)
    ctx = choose_precision(n, k, delta, digits)
    if eng is TailEngine.EXACT:
        one: TailValue = Fraction(1)
        zero: TailValue = Fraction(0)
        threshold: TailValue = delta
    else:
        one, zero = _ONE, _ZERO
        with localcontext(ctx.context):
            threshold = Decimal(delta.numerator) / Decimal(delta.denominator)
    if k == s:
        # left tail is identically 1; nothing to search
        return BoundResult(n, "upper", delta, eng, one, zero, 0, ctx.digits)

    # low seed: the sample proportion if its tail qualifies, else 0, whose
    # tail is exactly 1 (the sample cannot contain a success)
    lo, t_lo, evals = 0, one, 0
    seed = (k * n) // s
    if seed > 0:
        t = left_tail(n, seed, s, k, eng, ctx)
        evals += 1
        if t >= threshold:
            lo, t_lo = seed, t
    # first m whose tail is structurally zero; always a valid high endpoint
    zero_m = n - (s - k) + 1
    hi = start_high(n, s, k, delta)
    if hi <= lo:
        hi, t_hi = zero_m, zero
    else:
        t_hi = left_tail(n, hi, s, k, eng, ctx)
        evals += 1
        if not t_hi < threshold:
            hi, t_hi = zero_m, zero

    while hi - lo > 1:
        mid = (lo + hi) // 2
        t = left_tail(n, mid, s, k, eng, ctx)
        evals += 1
        if t >= threshold:
            lo, t_lo = mid, t
        else:
            hi, t_hi = mid, t
    return BoundResult(lo, "upper", delta, eng, t_lo, t_hi, evals, ctx.digits)


def lower_bound(instance: QueryInstance, engine: Union[TailEngine, str] = "auto",
                digits: int | None = None) -> BoundResult:
    """Smallest m whose computed right tail meets the failure budget.

    Computed as n minus the upper bound for the complemented condition
    (s - k observed failures), at that search's digit count; the recorded
    tails are the right tails at m_hat and m_hat - 1, which are the dual
    search's left tails.
    """
    n, s, k, delta = instance.n, instance.s, instance.k, instance.delta
    dual = upper_bound(QueryInstance(n, s, s - k, delta), engine, digits)
    return replace(dual, m_hat=n - dual.m_hat, side="lower")


def gap(n: int, m: int, s: int, k: int, engine: Union[TailEngine, str] = "exact",
        ctx: PrecisionContext | None = None) -> TailValue:
    """Difference between consecutive left tails: p(n, m, s, k) (s-k)/(n-m)."""
    if m >= n:
        raise DomainError(f"gap needs m < n, got m={m}, n={n}")
    eng = resolve_engine(engine, n)
    if eng is TailEngine.EXACT:
        return exact.pmf_exact(n, m, s, k) * Fraction(s - k, n - m)
    if ctx is None:
        ctx = PrecisionContext.for_terms(30, k + 1)
    p = pmf(n, m, s, k, eng, ctx)
    with localcontext(ctx.context):
        return p * (s - k) / (n - m)
