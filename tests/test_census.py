"""The evaluation census on a subset, and the within-one audit past the sweep."""

import math
import random
from fractions import Fraction

from census import DELTAS, LADDER, draw_k, instances, ladder, solves, summary
from oracle import right_exact
from sketchbound import QueryInstance, TailEngine, lower_bound, upper_bound
from sketchbound.exact import left_tail_exact


def test_census_subset_stays_within_its_evaluation_counts():
    # the first 150 census instances, both sides, and the ladder rows: 308 solves
    stats = summary(solves(instances(7, 150), ladder()))
    assert stats["solves"] == 308
    assert stats["over_budget"] == 0
    # the subset's figures with the secant in the tail's structural coordinates;
    # lower them as the search improves, never raise them
    assert stats["total"] <= 1698
    assert stats["p90"] <= 8
    assert stats["p99"] <= 36
    assert stats["max"] <= 39


def audit_instances(seed: int, count: int) -> list[QueryInstance]:
    """120 <= n <= 10^4, s half uniform and half log-uniform, k and delta as in the census."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(120, 10**4)
        s = rng.randint(1, n) if i % 2 else max(1, int(10 ** rng.uniform(0, math.log10(n))))
        out.append(QueryInstance(n, s, draw_k(rng, s), rng.choice(DELTAS)))
    return out


def test_floating_engines_within_one_of_sharp_past_the_sweep():
    ties = 0
    for inst in audit_instances(13, 400):
        n, s, k, delta = inst.n, inst.s, inst.k, inst.delta
        # the exact engine's bounds, checked sharp against exact tails on both sides
        up = upper_bound(inst, TailEngine.EXACT).m_hat
        tail = left_tail_exact(n, up, s, k)
        assert tail >= delta and (up == n or left_tail_exact(n, up + 1, s, k) < delta), inst
        up_tie = tail == delta
        low = lower_bound(inst, TailEngine.EXACT).m_hat
        tail = right_exact(n, low, s, k)
        assert tail >= delta and (low == 0 or right_exact(n, low - 1, s, k) < delta), inst
        low_tie = tail == delta
        ties += up_tie + low_tie
        for engine in (TailEngine.DIRECT, TailEngine.STIRLING):
            # off by one only inward of the sharp m, at an exact tie
            got = upper_bound(inst, engine).m_hat
            assert got == up or (got == up - 1 and up_tie), (inst, engine, got, up)
            got = lower_bound(inst, engine).m_hat
            assert got == low or (got == low + 1 and low_tie), (inst, engine, got, low)
    assert ties > 0


def sharp_past_the_oracle(inst: QueryInstance, engine: str, mp_left_tail) -> None:
    """Both bounds sharp against mpmath tails at twice the solve's digits: the upper
    bound's left tail meets delta and the next m's does not, and likewise the lower
    bound's right tail P(K >= k) = P(s - K <= s - k), s - K of population n - m."""
    import mpmath

    n, s, k = inst.n, inst.s, inst.k
    up, low = upper_bound(inst, engine), lower_bound(inst, engine)
    for r, tail, beyond in ((up, lambda m, d: mp_left_tail(n, m, s, k, d), up.m_hat + 1),
                            (low, lambda m, d: mp_left_tail(n, n - m, s, s - k, d),
                             low.m_hat - 1)):
        digits = 2 * r.digits
        with mpmath.workdps(digits):
            delta = mpmath.mpf(inst.delta.numerator) / inst.delta.denominator
            assert tail(r.m_hat, digits) >= delta, (inst, engine, r.side)
            if 0 <= beyond <= n:
                assert tail(beyond, digits) < delta, (inst, engine, r.side)


def test_bounds_are_sharp_past_the_oracle(mp_left_tail):
    # the benchmark's three ladder rungs at k = 0.9 s and k = 100 on both engines
    # (direct only on the first two), then the first ten census rows past n = 10^4
    for n, s in LADDER[:3]:
        for k in (9 * s // 10, 100):
            inst = QueryInstance(n, s, k, Fraction(1, 20))
            for engine in ("stirling", "direct")[:2 if n < 10**12 else 1]:
                sharp_past_the_oracle(inst, engine, mp_left_tail)
    for inst in [i for i in instances(7, 40) if i.n > 10**4][:10]:
        sharp_past_the_oracle(inst, "stirling", mp_left_tail)
