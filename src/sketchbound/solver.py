"""Sharp bounds from tail evaluations.

A safeguarded secant search over m with a verified bracket: the low
endpoint's computed tail is at or above the failure budget, the high
endpoint's below it.  The bracket starts structural (tail 1 at m = 0, 0
from m = n - (s - k) + 1 on); its first points are the seeds, the sample
proportion and the relative-entropy form of Hoeffding's bound, each
evaluated only while strictly inside it.  Then each step takes the secant
through the last two points in coordinates where the tail's far end is a
power law: ln tail(m) - ln delta against ln(z - m), z = n - (s - k) + 1 the
structural zero, next to which the tail falls like a power of z - m (far
from z, to first order a secant in m); or, for delta > 1/2,
ln(1 - delta) - ln(1 - tail(m)) against ln(m - k), since 1 - tail rises
like a power of m - k from m = k.  It bisects when the root leaves the
bracket, meets a tail of 0 (1 for delta > 1/2), or could overrun the
ceil(log2 n) + 2 evaluation budget; every computed tail moves an
endpoint.  Once the next point lies within one standard deviation of K of
the tail just evaluated, the gap identity left(m) - left(m + 1) =
p_m(k) (s - k) / (n - m) steps tails from that one, with one more pmf term,
until they cross delta.  Lower bounds come from the upper bound of the
complemented condition, and every bound takes its digit count from the
precision chooser, which keeps tail errors inside the tail gaps.  A
floating tail sums outward from one anchor term, in integers, and stops
each side on a bound of the mass it drops, relative to the anchor, so its
error is relative to the tail; right tails are mirrored.
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


def resolve_engine(engine: Union[TailEngine, str], n: int) -> TailEngine:
    """Map an engine request ('auto' allowed) to a concrete engine for size n.

    Auto picks the exact oracle up to its size guard, Stirling above it.
    Every route to the exact engine passes the guard here, before any
    short cut of a solve could skip it.
    """
    if engine == "auto":
        return TailEngine.EXACT if n <= exact.ORACLE_LIMIT else TailEngine.STIRLING
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
    ignore it.  The exact engine returns the oracle's Fraction.
    """
    _check_counts(n, m, s, k)
    # a floating member skips the resolver, which every evaluation would pay
    if engine is TailEngine.EXACT or not isinstance(engine, TailEngine):
        engine = resolve_engine(engine, n)
    check_tail_domain(n, m, s)
    if engine is TailEngine.EXACT:
        return exact.left_tail_exact(n, m, s, k)
    # Besides the walk's error, far below 10^-digits of the tail, the target must
    # hold the anchor's last-place error and the final rounding: 20 units of 10^-digits.
    if Decimal(20).scaleb(-ctx.digits) > ctx.abs_error_target:
        raise PrecisionInfeasibleError(
            f"{ctx.digits} digits: the anchor's last-place error and the final rounding, "
            f"20 units of 1E-{ctx.digits}, exceed the target {ctx.abs_error_target}; add digits")
    j_lo, j_hi = support(n, m, s)
    if k < j_lo:
        return _ZERO
    if k >= j_hi:
        return _ONE  # the sum covers the entire support
    j0 = _anchor_index(n, m, s, k, j_lo)
    anchor = pmf(n, m, s, j0, engine, ctx, anchors=anchors)
    return _walk_sum(n, m, s, k, j0, j_lo, anchor, ctx)


def _check_counts(n: int, m: int, s: int, k: int) -> None:
    """Reject a tail's count that is not an int, or a negative tail index."""
    # every evaluation runs this: all ints pass in one chained comparison
    if not type(n) is type(m) is type(s) is type(k) is int:
        for name, value in zip("nmsk", (n, m, s, k)):
            if not isinstance(value, int):
                raise DomainError(f"{name} must be an integer, got {value!r}")
    if k < 0:
        raise DomainError(f"tail index must be >= 0, got k={k}")


def _anchor_index(n: int, m: int, s: int, k: int, j_lo: int) -> int:
    # Anchor at the largest term of the truncated sum: the distribution mode
    # when it lies at or below k, otherwise k itself (k is inside the support).
    mode = (s + 1) * (m + 1) // (n + 2)
    return max(j_lo, min(k, mode))


def _walk_sum(n: int, m: int, s: int, k: int, j0: int, j_lo: int, anchor: Decimal,
              ctx: PrecisionContext) -> Decimal:
    """Sum of the tail terms p(j_lo..k) given the anchor term p(j0).

    Walks up to k, and down to j_lo as the upward run of s - K in the
    mirrored population (n, n - m, s), by exact.run from the anchor scaled to
    2^B, B = ceil(digits log2 10) + 2 bitlen(s) + 8.  Each run drops at most
    target / 20 of the anchor, each floor under 2^-B of it, and steps have
    ratio at most 1, so the N <= s terms are off by under N(N+1)/2 units of
    2^-B, below 2^-8 * 10^-digits of the tail.  One rounding scales the exact
    sum by the anchor's mantissa (an integer 10^e would cost time quadratic in
    |e|), so a tail with no walked term is the anchor.
    """
    one = 1 << ((10 ** ctx.digits).bit_length() + 2 * s.bit_length() + 8)
    p, q = ctx.abs_error_target.as_integer_ratio()
    cut = one * p // (20 * q)
    total = (one + sum(exact.run(n, n - m, s, s - j0, s - j_lo, one, cut))
             + sum(exact.run(n, m, s, j0, k, one, cut)))
    e = anchor.adjusted()
    p, q = anchor.scaleb(-e, ctx.context).as_integer_ratio()
    return ctx.context.divide(p * total, q * one).scaleb(e, ctx.context)


def right_tail(n: int, m: int, s: int, k: int, engine: Union[TailEngine, str],
               ctx: PrecisionContext) -> TailValue:
    """P(K >= k) = P(s - K <= s - k), the left tail of the mirrored population
    (n, n - m, s) under every engine; an empty sum, zero, for k > s."""
    _check_counts(n, m, s, k)
    if k <= s:
        return left_tail(n, n - m, s, s - k, engine, ctx)
    check_tail_domain(n, m, s)
    return Fraction(0) if resolve_engine(engine, n) is TailEngine.EXACT else _ZERO


def pmf(n: int, m: int, s: int, j: int, engine: TailEngine,
        ctx: PrecisionContext, *, anchors: dict | None = None) -> TailValue:
    """P(K = j) under a concrete engine: the anchor term of a floating tail,
    or the exact engine's rational."""
    if engine is TailEngine.EXACT:
        return exact.pmf_exact(n, m, s, j)
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
    """Relative-entropy seed for the high endpoint, for k < s; upper_bound evaluates its tail.

    ceil(n p) for the root p > q = k/s of KL(q || p) = c = ln(1/delta) / s,
    where Hoeffding's (1963) bound exp(-s KL(q || p)) on the binomial left
    tail, which also bounds the hypergeometric one, reaches delta:
    1 - delta^(1/s) at k = 0.  Newton's method on the convex, increasing
    KL(q || p) starts right of the root, at the smaller of Hoeffding's
    radical q + sqrt(c/2) and the root of q ln q + (1 - q) ln((1 - q)/(1 - p))
    = c, a lower bound of KL, and stays right of it until rounding stops the
    descent.
    """
    q, c = k / s, -_ln(as_fraction(delta)) / s
    if q == 1:  # k = s - 1 past 2^53: the seed's limit, at the structural zero
        return n
    q_ln_q = q * math.log(q) if q else 0.0
    p = min(q + math.sqrt(c / 2), q - (1 - q) * math.expm1((q_ln_q - c) / (1 - q)))
    while p < 1:
        f = (q * math.log(q / p) if q else 0.0) + (1 - q) * math.log((1 - q) / (1 - p)) - c
        if not f > 0:
            break
        step = p - f * p * (1 - p) / (p - q)
        if not step < p:
            break
        p = step
    return min(math.ceil(n * p), n)


def upper_bound(instance: QueryInstance, engine: Union[TailEngine, str] = "auto",
                digits: int | None = None) -> BoundResult:
    """Largest m whose computed left tail still meets the failure budget.

    The result's two recorded tails straddle the budget: tail(m_hat) >=
    delta > tail(m_hat + 1) as computed, against the exact rational delta.
    The digit count comes from choose_precision(n, k, delta, digits), so
    tail errors stay inside the consecutive-tail gaps and m_hat is within
    one of the sharp bound.  A recorded tail is an evaluated one, a
    structural one (1 at m = 0, 0 from n - (s - k) + 1 on), or one
    gap-stepped from an evaluated one (see _gap_steps, which states what the
    steps add to its error); iterations counts the evaluations.
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
    # the structural bracket: tail 1 at 0 (the sample cannot contain a
    # success) and 0 from n - (s - k) + 1 on; its first points are the seeds,
    # each evaluated only while strictly inside it
    lo, t_lo, hi, t_hi = 0, one, n - (s - k) + 1, zero
    seeds = iter(((k * n) // s, start_high(n, s, k, delta)))
    # then the secant through the last two points (before the first
    # evaluation, lo's) of ln w(m) - ln w(root) against ln|m - c|: w = tail
    # and c = hi, the structural zero, or for delta > 1/2, w = 1 - tail and
    # c = k; bisect when the root leaves the bracket, w is not positive, or
    # the search could not finish bisecting inside ceil(log2 n) + 2 evaluations
    budget = (n - 1).bit_length() + 2
    rising = 2 * delta > 1
    c, ln_w = (k, _ln(1 - delta)) if rising else (hi, _ln(delta))
    # the most gap steps N whose 3N + 2 half-units of 10^(1 - digits), as
    # _gap_steps charges them, stay under target / 20
    room = (int(ctx.abs_error_target.scaleb(ctx.digits - 2)) - 2) // 3
    a, t_a, b, t_b = hi, t_hi, lo, t_lo
    # evaluated: whether b is a tail just evaluated, not structural or a step
    evals, evaluated = 0, False
    while hi - lo > 1:
        mid = next((m for m in seeds if lo < m < hi), None)
        if mid is None:
            mid = (lo + hi) // 2
            w_a, w_b = (one - t_a, one - t_b) if rising else (t_a, t_b)
            if w_a > 0 < w_b and evals + (hi - lo - 1).bit_length() < budget:
                f_a, f_b = _ln(w_a) - ln_w, _ln(w_b) - ln_w
                if f_a != f_b:
                    u_a, u_b = math.log(abs(a - c)), math.log(abs(b - c))
                    # the root's distance from c, capped short of exp's overflow (any
                    # root that far lies outside the bracket), then its floor in m
                    y = math.exp(min(u_b - f_b * (u_b - u_a) / (f_b - f_a), 709.0))
                    x = c + math.floor(y) if rising else c - math.ceil(y)
                    if lo - 1 <= x <= hi + 1:
                        mid = min(max(x, lo + 1), hi - 1)
        if evaluated and b >= k:
            cap = min(_step_cap(n, s, b), room)
            if abs(mid - b) <= cap:
                p = pmf(n, b, s, k, eng, ctx, anchors=anchors)
                lo, t_lo, hi, t_hi = _gap_steps(n, s, k, lo, t_lo, hi, t_hi, b, p, cap, delta,
                                                ctx)
                # a capped run hands the narrowed bracket back to the secant
                a, t_a, b, t_b = (hi, t_hi, lo, t_lo) if b == lo else (lo, t_lo, hi, t_hi)
                evaluated = False
                continue
        t = left_tail(n, mid, s, k, eng, ctx, anchors=anchors)
        evals += 1
        if t >= delta:
            lo, t_lo = mid, t
        else:
            hi, t_hi = mid, t
        a, t_a, b, t_b = b, t_b, mid, t
        evaluated = True
    return BoundResult(lo, "upper", delta, eng, t_lo, t_hi, evals, ctx.digits)


def _step_cap(n: int, s: int, m: int) -> int:
    """The most gap steps worth taking from m: floor of K's standard deviation there.

    An evaluation at m walks its terms down to target / 20 of the anchor,
    several standard deviations of K (6-9 on the ladder's rungs), at about a
    fifth of a gap step's cost per term, before its anchor: so up to one
    standard deviation of steps costs less than the evaluation it replaces.
    """
    return math.isqrt(s * m * (n - m) * (n - s) // (n * n * (n - 1)))


def _gap_steps(n: int, s: int, k: int, lo: int, t_lo: TailValue, hi: int, t_hi: TailValue,
               b: int, p: TailValue, cap: int, delta: Fraction,
               ctx: PrecisionContext) -> tuple[int, TailValue, int, TailValue]:
    """Narrow the bracket from its endpoint b, k <= b, by the gap identity.

    left(m) - left(m + 1) = g(m) = p_m(k) (s - k) / (n - m), with p = p_b(k),
    and g(m + 1) / g(m) = (m + 1)(n - m - s + k) / ((m + 1 - k)(n - m - 1)).
    From b = lo the tails step up while they meet delta, from b = hi down
    until they do (down only to k + 1: every tail at m <= k is 1), at most
    cap steps and never onto the other endpoint; returns the new bracket,
    closed unless the cap or k stopped the steps.  Decimal steps round at
    ctx.digits: each g twice per step and each tail once, so N steps leave a
    tail off by its start's error, p's relative error times the distance
    stepped, and under 3N + 2 half-units in the last place of the larger of
    the two tails, below target / 20 for N <= room in upper_bound.  The exact
    engine's Fractions step exactly.
    """
    with localcontext(ctx.context):
        if b == lo:
            g = p * (s - k) / (n - lo)
            for m in range(lo + 1, min(hi, lo + cap + 1)):
                t = t_lo - g
                if t < delta:
                    return lo, t_lo, m, t
                lo, t_lo = m, t
                g = g * (m * (n - m - s + k + 1)) / ((m - k) * (n - m))
        else:
            g = p * ((s - k) * (hi - k)) / (hi * (n - hi - s + k + 1))
            for m in range(hi - 1, max(lo, k, hi - cap - 1), -1):
                t = t_hi + g
                if t >= delta:
                    return m, t, hi, t_hi
                hi, t_hi = m, t
                g = g * ((m - k) * (n - m)) / (m * (n - m - s + k + 1))
    return lo, t_lo, hi, t_hi


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
