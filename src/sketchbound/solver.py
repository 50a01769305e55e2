"""Sharp bounds from tail evaluations.

A safeguarded secant search over m with a verified bracket: the low
endpoint's computed tail is at or above the failure budget, the high
endpoint's below it.  Each step takes the secant of ln tail(m) - ln delta
through the last two points and bisects instead when that leaves the
bracket, meets a zero tail, or could overrun the ceil(log2 n) + 2
evaluation budget; only a computed tail moves an endpoint.  Seeds (the
sample proportion for low, a Hoeffding bound for high) are hints only;
they enter the bracket solely after their tails check out.  Lower bounds
come from the upper bound of the complemented condition, and every bound
takes its digit count from the precision chooser, which keeps tail errors
inside the tail gaps.  A floating tail sums outward from one anchor term and
stops each side on a bound of the mass it drops, relative to the anchor, so
its error is relative to the tail; right tails are mirrored left tails.
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
    PrecisionInfeasibleError,
    Probability,
    QueryInstance,
    TailEngine,
    as_fraction,
    check_tail_domain,
    decimal_context,
    support,
)

TailValue = Union[Decimal, Fraction]

_ONE = Decimal(1)
_ZERO = Decimal(0)

# Above this population size the exact oracle stops being "fast ground
# truth", so auto picks the O(k lg n) Stirling engine instead.
AUTO_EXACT_LIMIT = exact.DEFAULT_ORACLE_LIMIT


def resolve_engine(engine: Union[TailEngine, str], n: int) -> TailEngine:
    """Map an engine request ('auto' allowed) to a concrete engine for size n.

    An explicit exact request passes the oracle's size guard here, before
    any short cut of a solve could skip it.
    """
    if engine == "auto":
        return TailEngine.EXACT if n <= AUTO_EXACT_LIMIT else TailEngine.STIRLING
    try:
        eng = TailEngine(engine)
    except ValueError:
        raise DomainError(f"unknown engine {engine!r}") from None
    if eng is TailEngine.EXACT:
        exact.check_limit(n)
    return eng


def left_tail(n: int, m: int, s: int, k: int, engine: Union[TailEngine, str],
              ctx: PrecisionContext, *, anchors: dict | None = None) -> TailValue:
    """P(K <= k) under the chosen engine ('auto' allowed).

    The floating engines differ only in the anchor term, p(j0) at the
    largest term of the truncated sum, which pmf takes from the engine's
    module; the ratio walk sums the rest and drops at most a tenth of
    ctx.abs_error_target relative to the tail.  `anchors` is one solve's
    memory of direct anchors (see direct.pmf_direct); the other engines
    ignore it.
    """
    if not isinstance(engine, TailEngine):
        engine = resolve_engine(engine, n)
    if engine not in (TailEngine.DIRECT, TailEngine.STIRLING):
        return exact.left_tail_exact(n, m, s, k)
    check_tail_domain(n, m, s)
    if k < 0:
        raise DomainError(f"tail index must be >= 0, got k={k}")
    # A term at the walk's cut, target/20 of the anchor, must still move the sum.
    if Decimal(20).scaleb(-ctx.digits) > ctx.abs_error_target:
        raise PrecisionInfeasibleError(
            f"{ctx.digits} digits cannot resolve terms at {ctx.abs_error_target}/20 "
            f"of a tail sum; raise the digit count"
        )
    j_lo, j_hi = support(n, m, s)
    if k < j_lo:
        return _ZERO
    if k >= j_hi:
        # the sum covers the entire support
        return _ONE
    j0 = _anchor_index(n, m, s, k, j_lo)
    anchor = pmf(n, m, s, j0, engine, ctx, anchors=anchors)
    return _walk_sum(n, m, s, k, j0, j_lo, anchor, ctx)


def _anchor_index(n: int, m: int, s: int, k: int, j_lo: int) -> int:
    # Anchor at the largest term of the truncated sum: the distribution mode
    # when it lies at or below k, otherwise k itself (k is inside the support).
    mode = (s + 1) * (m + 1) // (n + 2)
    return max(j_lo, min(k, mode))


def _walk_sum(n: int, m: int, s: int, k: int, j0: int, j_lo: int, anchor: Decimal,
              ctx: PrecisionContext) -> Decimal:
    """Sum of the tail terms p(j_lo..k) given the anchor term p(j0).

    Walks up to k, and down to j_lo as the upward run of s - K in the
    mirrored population (n, n - m, s); each run drops at most anchor *
    target / 20, so at most target / 10 relative to the tail.  The terms are
    added smallest-first.
    """
    with localcontext(ctx.context):
        cut = anchor * ctx.abs_error_target / 20
        down = _run(n, n - m, s, s - j0, s - j_lo, anchor, cut)
        up = _run(n, m, s, j0, k, anchor, cut)
        total = _ZERO
        for t in down[::-1] + [anchor] + up[::-1]:
            total += t
        return total


def _run(n: int, m: int, s: int, j: int, stop: int, t: Decimal, cut: Decimal) -> list[Decimal]:
    """Terms p(j+1..stop) stepped up from t = p(j), until the mass left is below cut.

    Steps move away from the mode, so by log-concavity the terms from the
    current one on sum to at most t / (1 - a/b); the cheap t < cut test is first.
    """
    terms: list[Decimal] = []
    r = n - m - s + 1
    for i in range(j, stop):
        a = (m - i) * (s - i)
        b = (i + 1) * (r + i)
        t = t * a / b
        if t < cut and t * b < cut * (b - a):
            break
        terms.append(t)
    return terms


def right_tail(n: int, m: int, s: int, k: int, engine: Union[TailEngine, str],
               ctx: PrecisionContext) -> TailValue:
    """P(K >= k) = P(s - K <= s - k), the left tail of the mirrored population (n, n - m, s)."""
    if not isinstance(engine, TailEngine):
        engine = resolve_engine(engine, n)
    if engine is TailEngine.EXACT:
        return exact.right_tail_exact(n, m, s, k)
    check_tail_domain(n, m, s)
    if k < 0:
        raise DomainError(f"tail index must be >= 0, got k={k}")
    if k > s:
        return _ZERO
    return left_tail(n, n - m, s, s - k, engine, ctx)


def pmf(n: int, m: int, s: int, j: int, engine: TailEngine,
        ctx: PrecisionContext, *, anchors: dict | None = None) -> Decimal:
    """P(K = j) under a floating engine: the anchor term of a tail."""
    if engine is TailEngine.DIRECT:
        return direct.pmf_direct(n, m, s, j, ctx, anchors=anchors)
    return ctx.context.exp(stirling.log_pmf(n, m, s, j, ctx))


def choose_precision(n: int, k: int, delta: Probability,
                     digits: int | None = None) -> PrecisionContext:
    """Precision sufficient to place the bound within one of the sharp value.

    The absolute error target is delta/(4nk), half the conservative
    half-gap between consecutive tails near the bound; the digit count
    covers that target with nine digits to spare, never below 16, unless
    overridden.  The arguments come from a validated QueryInstance and are
    not checked again.
    """
    d = as_fraction(delta)
    denominator = 4 * n * max(k, 1) * d.denominator
    if digits is None:
        # digits of the integer part of 1/target; equals ceil(log10(1/target))
        # except at exact powers of ten, where it adds one conservative digit
        digits = max(16, len(str(denominator // d.numerator)) + 9)
    target = decimal_context(max(digits, 16)).divide(d.numerator, denominator)
    return PrecisionContext(digits=digits, abs_error_target=target)


def start_high(n: int, s: int, k: int, delta: Probability) -> int:
    """Hoeffding seed for the high endpoint; the caller verifies its tail."""
    radical = math.sqrt(-_ln(as_fraction(delta)) / (2 * s))
    return min(math.ceil(n * (k / s + radical)), n)


def upper_bound(instance: QueryInstance, engine: Union[TailEngine, str] = "auto",
                digits: int | None = None) -> BoundResult:
    """Largest m whose computed left tail still meets the failure budget.

    The result's two recorded tails straddle the budget: tail(m_hat) >=
    delta > tail(m_hat + 1) as computed, against the exact rational delta.
    The digit count comes from choose_precision(n, k, delta, digits), so
    tail errors stay inside the consecutive-tail gaps and m_hat is within
    one of the sharp bound.
    """
    n, s, k, delta = instance.n, instance.s, instance.k, instance.delta
    eng = resolve_engine(engine, n)
    ctx = choose_precision(n, k, delta, digits)
    one, zero = (Fraction(1), Fraction(0)) if eng is TailEngine.EXACT else (_ONE, _ZERO)
    if k == s:
        # left tail is identically 1; nothing to search
        return BoundResult(n, "upper", delta, eng, one, zero, 0, ctx.digits)

    # this solve's direct anchors, from which later ones are derived in
    # O(|m - m0|); it lives for this call only, so no request reuses another's
    anchors: dict = {}
    # low seed: the sample proportion if its tail qualifies, else 0, whose
    # tail is exactly 1 (the sample cannot contain a success)
    lo, t_lo, evals = 0, one, 0
    seed = (k * n) // s
    if seed > 0:
        t = left_tail(n, seed, s, k, eng, ctx, anchors=anchors)
        evals += 1
        if t >= delta:
            lo, t_lo = seed, t
    # first m whose tail is structurally zero: a valid high endpoint with no
    # evaluation, taken whenever the Hoeffding seed reaches it
    zero_m = n - (s - k) + 1
    hi = start_high(n, s, k, delta)
    if hi <= lo or hi >= zero_m:
        hi, t_hi = zero_m, zero
    else:
        t_hi = left_tail(n, hi, s, k, eng, ctx, anchors=anchors)
        evals += 1
        if not t_hi < delta:
            hi, t_hi = zero_m, zero

    # secant on f(m) = ln tail(m) - ln delta through the last two points
    # (first the bracket's ends); bisect when it leaves the bracket, meets a
    # zero tail, has at most one m to choose from, or could not finish
    # bisecting inside ceil(log2 n) + 2 evaluations
    budget = (n - 1).bit_length() + 2
    ln_delta = _ln(delta)
    a, t_a, b, t_b = lo, t_lo, hi, t_hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if hi - lo > 2 and t_a and t_b and evals + (hi - lo - 1).bit_length() < budget:
            f_a, f_b = _ln(t_a) - ln_delta, _ln(t_b) - ln_delta
            if f_a != f_b:
                x = b - f_b * (b - a) / (f_b - f_a)
                if lo - 1 <= x <= hi + 1:
                    mid = min(max(math.floor(x), lo + 1), hi - 1)
        t = left_tail(n, mid, s, k, eng, ctx, anchors=anchors)
        evals += 1
        if t >= delta:
            lo, t_lo = mid, t
        else:
            hi, t_hi = mid, t
        a, t_a, b, t_b = b, t_b, mid, t
    return BoundResult(lo, "upper", delta, eng, t_lo, t_hi, evals, ctx.digits)


def _ln(x: TailValue) -> float:
    """ln x in float for x > 0, from the decimal exponent and mantissa or the
    integer parts, so that neither a tail of 1e-400 nor a huge Fraction underflows."""
    if isinstance(x, Decimal):
        e = x.adjusted()
        return math.log(float(x.scaleb(-e))) + e * math.log(10)
    return math.log(x.numerator) - math.log(x.denominator)


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
