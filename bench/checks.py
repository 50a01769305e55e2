"""Checks of sketchbound's outputs against the mpmath reference.

A bound is checked against the paper's guarantee, not against the
program's own precision target: the sharp bound (largest m whose true left
tail is at least delta) must lie within one of the computed m_hat, the
computed certificate must straddle delta, and the search must stay within
ceil(log2 n) + 2 tail evaluations.  The module `reference` is passed in
rather than imported, so that mpmath is loaded only after the timed phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction


@dataclass
class Verdict:
    """Outcome of the checks on one operation's output."""

    failures: list[str] = field(default_factory=list)
    off_by_one: int = 0
    # engine -> largest |certificate tail - reference| / abs_error_target
    err_over_target: dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    @property
    def ok(self) -> bool:
        return not self.failures


def documented_digits(n: int, k: int, delta: Fraction) -> int:
    """The digit count the README documents for a bound: the digits of
    4nk/delta plus nine guard digits, at least 16.  It only sizes the
    reference's own precision."""
    return max(16, len(str(4 * n * max(k, 1) * delta.denominator // delta.numerator)) + 9)


def decimal_close(text: str, value: Fraction) -> bool:
    """A decimal string that is `value` rounded to its own last digit."""
    printed = Decimal(text)
    return 2 * abs(Fraction(printed) - value) <= Fraction(10) ** printed.as_tuple().exponent


def check_bound(verdict: Verdict, ref, n: int, s: int, k: int, delta: Fraction,
                side: str, m_hat: int, tail_hi: str, tail_lo: str, iterations: int,
                digits: int, engine: str, detailed: bool) -> None:
    """Check one bound; `detailed` also measures sharpness and tail error.

    A lower bound is the upper bound of the complemented condition mirrored
    (right(n, m, s, k) = left(n, n - m, s, s - k)), so both sides are
    checked as an upper bound on the left tail of (n, s, k_eff).
    """
    what = f"{side} n={n} s={s} k={k} delta={delta}"
    if side == "upper":
        k_eff, m_eff = k, m_hat
    else:
        k_eff, m_eff = s - k, n - m_hat
    if not 0 <= m_eff <= n:
        verdict.fail(f"{what}: m_hat={m_hat} outside [0, n]")
        return
    hi, lo = Fraction(Decimal(tail_hi)), Fraction(Decimal(tail_lo))
    if not hi >= delta > lo:
        verdict.fail(f"{what}: certificate {tail_hi}, {tail_lo} does not straddle delta")
    budget = (n - 1).bit_length() + 2
    if iterations > budget:
        verdict.fail(f"{what}: {iterations} tail evaluations, over ceil(log2 n)+2 = {budget}")
    if k_eff == s:
        # the left tail is identically 1, so the sharp bound is n itself
        if m_eff != n:
            verdict.fail(f"{what}: m_hat={m_hat}, sharp value is {n if side == 'upper' else 0}")
        return

    digits = ref.reference_digits(digits, n)
    d = ref.to_mpf(delta, digits)

    def left(m: int):
        return ref.left_tail(n, m, s, k_eff, digits)

    if m_eff >= 1 and not left(m_eff - 1) >= d:
        verdict.fail(f"{what}: m_hat={m_hat} is more than one past the sharp bound")
    if m_eff + 2 <= n and not left(m_eff + 2) < d:
        verdict.fail(f"{what}: m_hat={m_hat} is more than one short of the sharp bound")
    if not detailed:
        return
    at, past = left(m_eff), left(m_eff + 1) if m_eff < n else None
    if not (at >= d and (past is None or past < d)):
        verdict.off_by_one += 1
    if iterations:
        target = delta / (4 * n * max(k_eff, 1))
        err = abs(ref.to_mpf(hi, digits) - at)
        if past is not None:
            err = max(err, abs(ref.to_mpf(lo, digits) - past))
        ratio = float(err / ref.to_mpf(target, digits))
        verdict.err_over_target[engine] = max(ratio, verdict.err_over_target.get(engine, 0.0))


def sharp_upper_bounds(ref, n: int, s: int, ks: list[int], delta: Fraction,
                       digits: int) -> dict[int, int]:
    """Largest m with reference left tail >= delta, for each k in ks.

    The sharp bound grows with k, so each search starts from the previous
    k's answer, gallops upward until the tail drops below delta, and then
    bisects the verified bracket.
    """
    d = ref.to_mpf(delta, digits)
    out: dict[int, int] = {}
    lo = 0  # the left tail at m = 0 is 1
    step = max(1, n // s)
    for k in sorted(ks):
        if k >= s:
            out[k] = n
            continue

        def qualifies(m: int) -> bool:
            return ref.left_tail(n, m, s, k, digits) >= d

        hi = lo + step
        while hi <= n and qualifies(hi):
            lo, hi = hi, hi + 2 * (hi - lo)
        hi = min(hi, n + 1)  # for k < s the tail at m = n is 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if qualifies(mid):
                lo = mid
            else:
                hi = mid
        out[k] = lo
    return out


def check_coverage(verdict: Verdict, ref, n: int, m: int, s: int, delta: Fraction,
                   trials: int, upper_failures: int, lower_failures: int,
                   upper_rate: float, lower_rate: float) -> None:
    """Check one coverage report against the sharp bounds' exact failure odds.

    Every k with pmf above 1e-15 gets its sharp upper and lower bound from
    the reference; the exact probability that the bound misses the true m
    must be at most delta, and the reported failure count must lie within
    six binomial standard deviations of trials times that probability.
    """
    pmf = ref.exact_pmf(n, m, s)
    ks = [k for k, p in pmf.items() if p > Fraction(1, 10**15)]
    digits = ref.reference_digits(0, n)
    upper = sharp_upper_bounds(ref, n, s, ks, delta, digits)
    dual = sharp_upper_bounds(ref, n, s, [s - k for k in ks], delta, digits)
    p_upper = sum((pmf[k] for k in ks if upper[k] < m), Fraction(0))
    p_lower = sum((pmf[k] for k in ks if n - dual[s - k] > m), Fraction(0))
    for side, p, count, rate in (("upper", p_upper, upper_failures, upper_rate),
                                 ("lower", p_lower, lower_failures, lower_rate)):
        if p > delta:
            verdict.fail(f"{side}: sharp bounds fail with probability {float(p):.3g} > delta")
        mean = trials * float(p)
        band = 6 * math.sqrt(mean * (1 - float(p)))
        if abs(count - mean) > band:
            verdict.fail(f"{side}: {count} failures in {trials} trials, "
                         f"expected {mean:.2f} +- {band:.2f}")
        if rate != count / trials:
            verdict.fail(f"{side}: rate {rate} is not {count}/{trials}")
