"""Bound solver: seeds, brackets, the secant search, duality, precision selection."""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracle import bisect_lower, bisect_upper, pmf_exact, right_exact, sharp_lower, sharp_upper
from sketchbound import (
    DomainError,
    OracleLimitError,
    PrecisionContext,
    QueryInstance,
    TailEngine,
    coverage_run,
    left_tail,
    lower_bound,
    right_tail,
    upper_bound,
)
from sketchbound import cli, coverage, direct, exact, solver, stirling
from sketchbound.exact import left_tail_exact
from sketchbound.model import support
from sketchbound.solver import choose_precision, resolve_engine, start_high

ENGINES = (TailEngine.DIRECT, TailEngine.STIRLING, TailEngine.EXACT)


def spy_on(monkeypatch, module, attr) -> list:
    """Arguments of every call made through module.attr."""
    calls = []
    real = getattr(module, attr)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, attr, spy)
    return calls


def record_tail_calls(monkeypatch) -> list[tuple[int, object]]:
    """(m, tail) of every tail the solver evaluates, in order."""
    calls = []
    real = solver.left_tail

    def spy(n, m, s, k, engine, ctx, **kwargs):
        t = real(n, m, s, k, engine, ctx, **kwargs)
        calls.append((m, t))
        return t

    monkeypatch.setattr(solver, "left_tail", spy)
    return calls


def assert_certificate_computed(calls, inst, r):
    """Both certificate tails are tails the solver computed, or structural:
    1 at m = 0 and 0 from m = n - (s - k) + 1 on, neither evaluated."""
    tails = dict(calls)
    zero_m = inst.n - (inst.s - inst.k) + 1
    assert r.tail_at_m_hat == (tails[r.m_hat] if r.m_hat else 1)
    assert r.tail_at_m_hat_plus_1 == (tails[r.m_hat + 1] if r.m_hat + 1 < zero_m else 0)
    assert r.iterations == len(calls)


def test_resolve_engine_policy():
    assert resolve_engine("auto", 10_000) is TailEngine.EXACT
    assert resolve_engine("auto", 10_001) is TailEngine.STIRLING
    assert resolve_engine("direct", 5) is TailEngine.DIRECT
    assert resolve_engine(TailEngine.STIRLING, 5) is TailEngine.STIRLING
    with pytest.raises(DomainError):
        resolve_engine("fast", 5)


@pytest.mark.parametrize("name", ["direct", "stirling", "exact", "auto"])
def test_public_tails_resolve_engine_names(name):
    ctx = PrecisionContext.for_digits(30)
    for n in (100, 10_001, 10**6):
        if name == "exact" and n > 10_000:
            # the guard holds on every route to the exact engine, name or member
            for engine in (name, TailEngine.EXACT):
                with pytest.raises(OracleLimitError):
                    left_tail(n, 40, 10, 3, engine, ctx)
                with pytest.raises(OracleLimitError):
                    right_tail(n, 40, 10, 3, engine, ctx)
            continue
        engine = resolve_engine(name, n)
        if name == "auto":
            assert engine is (TailEngine.EXACT if n <= 10_000 else TailEngine.STIRLING)
        left = left_tail(n, 40, 10, 3, name, ctx)
        right = right_tail(n, 40, 10, 3, name, ctx)
        assert left == left_tail(n, 40, 10, 3, engine, ctx)
        assert right == right_tail(n, 40, 10, 3, engine, ctx)
        # a floating engine computes in Decimal, the oracle in Fraction
        assert isinstance(left, Fraction) == (engine is TailEngine.EXACT)
        if n <= 10_000:
            assert abs(Fraction(left) - left_tail_exact(n, 40, 10, 3)) < Fraction(1, 10**12)
            assert abs(Fraction(right) - right_exact(n, 40, 10, 3)) < Fraction(1, 10**12)


@pytest.mark.parametrize("engine", ENGINES)
def test_right_tail_edges(engine):
    ctx = PrecisionContext.for_digits(30)
    with pytest.raises(DomainError):
        right_tail(100, 40, 10, -1, engine, ctx)
    assert right_tail(100, 40, 10, 11, engine, ctx) == 0
    assert right_tail(100, 40, 10, 0, engine, ctx) == 1
    # the short cuts still check the domain
    for k in (0, 21):
        with pytest.raises(DomainError):
            right_tail(10, 5, 20, k, engine, ctx)


@pytest.mark.parametrize("tail", [left_tail, right_tail])
@pytest.mark.parametrize("engine", ENGINES)
def test_tail_counts_must_be_ints(engine, tail):
    ctx = PrecisionContext.for_digits(30)
    counts = (100, 40, 10, 3)
    for i, name in enumerate("nmsk"):
        for bad in (float(counts[i]), counts[i] + 0.5, str(counts[i]), Fraction(counts[i])):
            args = counts[:i] + (bad,) + counts[i + 1:]
            with pytest.raises(DomainError, match=f"^{name} must be an integer"):
                tail(*args, engine, ctx)
    # the k > s short cut of the right tail checks them too
    with pytest.raises(DomainError, match="^k must be an integer"):
        right_tail(100, 40, 10, 11.0, engine, ctx)
    with pytest.raises(DomainError, match="^m must be an integer"):
        right_tail(100, 40.5, 10, 11, engine, ctx)


@pytest.mark.parametrize("engine", [TailEngine.DIRECT, TailEngine.STIRLING])
def test_right_tail_is_the_mirrored_left_tail(engine):
    ctx = PrecisionContext.for_digits(30)
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randrange(1, 10**6)
        m = rng.randrange(0, n + 1)
        s = rng.randrange(1, min(n, 300) + 1)
        k = rng.randrange(0, s + 1)
        assert right_tail(n, m, s, k, engine, ctx) == left_tail(n, n - m, s, s - k, engine, ctx)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(log_n=st.floats(4, 9), s=st.integers(20, 2000), k_frac=st.floats(0, 1),
       shift=st.floats(-20, 20), engine=st.sampled_from(["direct", "stirling"]),
       which=st.sampled_from(["left", "right"]))
# long walks at s = 10^5..10^6, where the 2 bitlen(s) guard bits of the walk are tightest
@example(log_n=9.0, s=10**6, k_frac=0.5, shift=0.0, engine="stirling", which="left")
@example(log_n=9.0, s=10**6, k_frac=0.9, shift=3.0, engine="direct", which="right")
@example(log_n=8.0, s=10**5, k_frac=0.1, shift=-4.0, engine="stirling", which="right")
@example(log_n=8.5, s=300_000, k_frac=0.5, shift=10.0, engine="direct", which="left")
# tails near 1e-9963302 and 1e-99916: the walk scales by the anchor's mantissa,
# as 10^e in integers would take minutes
@example(log_n=12.0, s=10**7, k_frac=1e-5, shift=137.3, engine="stirling", which="left")
@example(log_n=9.0, s=10**5, k_frac=1e-4, shift=36.8, engine="direct", which="left")
def test_floating_tails_within_target_against_mpmath(log_n, s, k_frac, shift, engine, which,
                                                     mp_left_tail):
    """Both error measures, absolute and relative to the tail, within the target."""
    import mpmath

    n = round(10**log_n)
    k = round(k_frac * s)
    # m/n sits about `shift` standard deviations from the sample proportion,
    # measured in log-odds, so tails run from near 1 down to tiny values
    p = (k + 0.5) / (s + 1)
    logit = math.log(p / (1 - p)) + shift / math.sqrt(s * p * (1 - p))
    m = round(n / (1 + math.exp(-logit)))
    ctx = PrecisionContext.for_digits(30)
    if which == "left":
        got = left_tail(n, m, s, k, engine, ctx)
        ref = mp_left_tail(n, m, s, k, 60)
    else:
        got = right_tail(n, m, s, k, engine, ctx)
        ref = mp_left_tail(n, n - m, s, s - k, 60)
    with mpmath.workdps(60):
        target = mpmath.mpf(str(ctx.abs_error_target))
        err = abs(mpmath.mpf(str(got)) - ref)
        assert err <= target, (got, ref)
        assert err <= target * ref, (got, ref)


def certificate(r, inst) -> list[tuple[int, object, int]]:
    """(m, tail, k) of a result's two certificate tails as left tails of the
    upper-bound search that made them: a lower bound's are its dual's."""
    n, s, k = inst.n, inst.s, inst.k
    if r.side == "lower":
        m, k = n - r.m_hat, s - k
    else:
        m = r.m_hat
    return [(m, r.tail_at_m_hat, k), (m + 1, r.tail_at_m_hat_plus_1, k)]


@pytest.mark.parametrize("n, s, k, engine", [
    (10**6, 10**4, 9000, "stirling"), (10**6, 10**4, 9000, "direct"),
    (10**9, 10**5, 90_000, "stirling"), (10**9, 10**5, 90_000, "direct"),
    (10**12, 10**6, 900_000, "stirling"), (10**12, 10**6, 104, "stirling"),
    (10**12, 10**7, 9 * 10**6, "stirling"),
])
def test_certificate_tails_within_target_against_mpmath(monkeypatch, mp_left_tail, n, s, k, engine):
    """A solve's certificate, gap-stepped tails included, at the ladder's
    rungs and the flagship: both error measures within the target."""
    import mpmath

    calls = record_tail_calls(monkeypatch)
    inst = QueryInstance(n, s, k, Fraction(1, 20))
    stepped = 0
    for solve in (upper_bound, lower_bound):
        calls.clear()
        r = solve(inst, engine)
        evaluated = {m for m, _ in calls}
        for m, t, k_eff in certificate(r, inst):
            stepped += m not in evaluated
            ref = mp_left_tail(n, m, s, k_eff, 60)
            with mpmath.workdps(60):
                target = mpmath.mpf(str(choose_precision(n, k_eff, inst.delta).abs_error_target))
                err = abs(mpmath.mpf(str(t)) - ref)
                assert err <= target and err <= target * ref, (r.side, m, t, ref)
    assert stepped


def walk_error(n: int, m: int, s: int, k: int, ctx: PrecisionContext) -> tuple:
    """(error, allowed) of the walk from the exact anchor term rounded into ctx.

    The error is measured against the exact tail scaled by the anchor's
    rounding; allowed is the floor bound of _walk_sum's docstring, 2^-8 *
    10^-digits of the tail, plus the truncation rule's target / 10 of the
    anchor and half a unit in the last place of the one final rounding.
    """
    j_lo = support(n, m, s)[0]
    j0 = solver._anchor_index(n, m, s, k, j_lo)
    p0 = pmf_exact(n, m, s, j0)
    anchor = ctx.context.divide(p0.numerator, p0.denominator)
    got = solver._walk_sum(n, m, s, k, j0, j_lo, anchor, ctx)
    ref = left_tail_exact(n, m, s, k) * Fraction(anchor) / p0
    allowed = (ref / (2**8 * 10**ctx.digits)
               + Fraction(anchor) * Fraction(ctx.abs_error_target) / 10
               + Fraction(10) ** (got.adjusted() - ctx.digits + 1) / 2)
    return abs(Fraction(got) - ref), allowed


def assert_walk_within_bound(n: int, m: int, s: int, k: int) -> None:
    """At the sweep's precision, and with a target so small that nothing is
    dropped, which leaves the floor bound and the final rounding."""
    ctx = choose_precision(n, k, Fraction(1, 20))
    for c in (ctx, PrecisionContext(ctx.digits, Decimal(1).scaleb(-10 * ctx.digits))):
        err, allowed = walk_error(n, m, s, k, c)
        assert err <= allowed, (n, m, s, k, c.digits, float(err / allowed))


def test_walk_from_exact_anchor_on_small_grid():
    # every tail the walk sums at n <= 15, and a fixed sample of the rest of
    # the criterion-2 grid (all 557,845 points at n <= 60 pass, too slowly for here)
    rng = random.Random(61)
    points = [(n, m, s, k) for n in range(1, 16) for s in range(1, n + 1)
              for m in range(n + 1) for k in range(*support(n, m, s))]
    while len(points) < 12_000:
        n = rng.randrange(16, 61)
        m, s = rng.randrange(n + 1), rng.randrange(1, n + 1)
        lo, hi = support(n, m, s)
        if lo < hi:
            points.append((n, m, s, rng.randrange(lo, hi)))
    for point in points:
        assert_walk_within_bound(*point)


@pytest.mark.parametrize("n, m, s, ks", [
    (2_500, 500, 150, (12, 30, 45, 149)),
    (4_000, 200, 250, (3, 12, 20)),
    (9_000, 36, 600, (0, 2, 10)),
    (9_200, 8_900, 600, (560, 590)),
    (10_000, 3_000, 2_000, (450, 600, 640, 1_999)),
    (10_000, 9_990, 2_000, (1_990, 1_995, 1_999)),
])
def test_walk_from_exact_anchor_on_coverage_shapes(n, m, s, ks):
    for k in ks:
        assert_walk_within_bound(n, m, s, k)
    # each floored term of a run from the mode, i steps out, is under i units
    # of the scaled exact term below it: the floor bound, term by term
    mode = (s + 1) * (m + 1) // (n + 2)
    lo, hi = support(n, m, s)
    one = 1 << 100
    for mm, j, stop in ((m, mode, hi), (n - m, s - mode, s - lo)):
        exact_t = math.comb(mm, j) * math.comb(n - mm, s - j)
        floored = exact.run(n, mm, s, j, stop, one, 0)
        for i, t in enumerate(floored[:400], start=1):
            scaled = one * math.comb(mm, j + i) * math.comb(n - mm, s - j - i)
            assert 0 <= scaled - t * exact_t < i * exact_t, (mm, j, i)


def test_start_low_uses_sample_proportion_when_it_qualifies(monkeypatch):
    calls = record_tail_calls(monkeypatch)
    # L(20, 8, 5, 2) = 682/969 >= 0.45, so the seed floor(kn/s) = 8 stands
    assert left_tail_exact(20, 8, 5, 2) >= Fraction(9, 20)
    inst = QueryInstance(20, 5, 2, Fraction(9, 20))
    r = upper_bound(inst, TailEngine.EXACT)
    # evaluated first, then kept as the low endpoint: nothing at or below it
    # is evaluated again
    ms = [m for m, _ in calls]
    assert ms[0] == 8
    assert min(ms[1:]) > 8
    assert r.m_hat == sharp_upper(inst) >= 8
    assert_certificate_computed(calls, inst, r)


def test_start_low_falls_back_to_zero(monkeypatch):
    calls = record_tail_calls(monkeypatch)
    # delta close to 1 disqualifies the proportion seed: its tail makes 8 the
    # high endpoint, the low one stays 0, and the relative-entropy seed, past 8,
    # lies outside the bracket and is never evaluated
    big_delta = Fraction(99, 100)
    assert left_tail_exact(20, 8, 5, 2) < big_delta
    assert start_high(20, 5, 2, big_delta) > 8
    inst = QueryInstance(20, 5, 2, big_delta)
    r = upper_bound(inst, TailEngine.EXACT)
    ms = [m for m, _ in calls]
    assert ms[0] == 8
    assert 0 < min(ms) and max(ms[1:]) < 8
    assert r.m_hat == sharp_upper(inst) < 8
    assert_certificate_computed(calls, inst, r)
    # k = 0 seeds at zero without any evaluation: the first tail is the high seed
    calls.clear()
    inst = QueryInstance(20, 5, 0, Fraction(1, 20))
    r = upper_bound(inst, TailEngine.EXACT)
    ms = [m for m, _ in calls]
    assert ms[0] == start_high(20, 5, 0, Fraction(1, 20))
    assert 0 not in ms
    assert_certificate_computed(calls, inst, r)


@pytest.mark.parametrize("engine", ENGINES)
def test_every_evaluation_moves_an_endpoint(monkeypatch, engine):
    """Each evaluated m, seeds included, lies strictly inside the bracket of
    its moment and becomes lo or hi, so none is evaluated twice: the brackets
    gap steps start from, and the result's, are those the evaluations made."""
    events = []
    real_tail, real_steps = solver.left_tail, solver._gap_steps

    def tail(n, m, s, k, engine, ctx, **kwargs):
        t = real_tail(n, m, s, k, engine, ctx, **kwargs)
        events.append((m, t))
        return t

    def steps(n, s, k, lo, t_lo, hi, t_hi, *rest):
        bracket = real_steps(n, s, k, lo, t_lo, hi, t_hi, *rest)
        events.append(((lo, t_lo, hi, t_hi), bracket))
        return bracket

    monkeypatch.setattr(solver, "left_tail", tail)
    monkeypatch.setattr(solver, "_gap_steps", steps)
    rng = random.Random(113)
    deltas = (Fraction(1, 2), Fraction(1, 20), Fraction(1, 10**6), Fraction(99, 100))
    for _ in range(300):
        n = rng.randrange(2, 400)
        s = rng.randrange(1, n + 1)
        inst = QueryInstance(n, s, rng.randrange(s), rng.choice(deltas))
        events.clear()
        r = upper_bound(inst, engine)
        lo, t_lo, hi, t_hi = 0, 1, n - (s - inst.k) + 1, 0
        evaluated = set()
        for event in events:
            if isinstance(event[0], int):
                m, t = event
                assert lo < m < hi and m not in evaluated, (inst, m)
                evaluated.add(m)
                lo, t_lo, hi, t_hi = (m, t, hi, t_hi) if t >= inst.delta else (lo, t_lo, m, t)
            else:
                assert event[0] == (lo, t_lo, hi, t_hi), inst
                lo, t_lo, hi, t_hi = event[1]
        assert (r.m_hat, r.tail_at_m_hat, r.m_hat + 1, r.tail_at_m_hat_plus_1) == (
            lo, t_lo, hi, t_hi), inst
        assert r.iterations == len(evaluated)


def test_structurally_zero_high_seed_is_not_evaluated(monkeypatch):
    calls = record_tail_calls(monkeypatch)
    # the relative-entropy seed reaches n, where no m from n - (s - k) + 1 = n
    # on can have a tail above 0: that m is the high endpoint, unevaluated
    inst = QueryInstance(10**6, 100, 99, Fraction(1, 10**8))
    assert start_high(10**6, 100, 99, inst.delta) == 10**6
    r = upper_bound(inst, TailEngine.STIRLING)
    assert 10**6 not in [m for m, _ in calls]
    assert r.m_hat == 999_999
    assert_certificate_computed(calls, inst, r)


def test_start_high_where_the_proportion_rounds_to_one():
    # k = s - 1 with s past 2^53: k / s is 1.0 in floats, and the seed is its limit n,
    # at the structural zero, so neither side divides by 1 - k / s or evaluates it
    n, s, delta = 10**18, 10**17, Fraction(1, 20)
    assert start_high(n, s, s - 1, delta) == n
    up = upper_bound(QueryInstance(n, s, s - 1, delta), TailEngine.STIRLING)
    low = lower_bound(QueryInstance(n, s, 1, delta), TailEngine.STIRLING)
    # P(K <= s - 1) at m = n - 1, and P(K >= 1) at m = 1, are both s / n
    assert (up.m_hat, low.m_hat) == (n - 1, 1)
    for r in (up, low):
        assert abs(r.tail_at_m_hat - Decimal("0.1")) < Decimal(10) ** -30
        assert r.tail_at_m_hat_plus_1 == 0 and r.iterations <= 3


def kl(q, p):
    """Relative entropy KL(q || p) of two Bernoulli laws, in mpmath."""
    import mpmath

    q, p = mpmath.mpf(q), mpmath.mpf(p)
    return (q * mpmath.log(q / p) if q else 0) + (1 - q) * mpmath.log((1 - q) / (1 - p))


def test_start_high_formula():
    """ceil(n p) for the root p > k/s of s KL(k/s || p) = ln(1/delta)."""
    mpmath = pytest.importorskip("mpmath")
    cases = [(100, 10, 5, Fraction(1, 20), 84), (10**6, 10**4, 9000, Fraction(1, 20), 907_184),
             (10**12, 10**6, 104, Fraction(1, 100), 138_090_498),
             (10**12, 10**7, 9 * 10**6, Fraction(1, 20), 900_232_053_874)]
    with mpmath.workdps(50):
        for n, s, k, delta, seed in cases:
            assert start_high(n, s, k, delta) == seed
            q, target = mpmath.mpf(k) / s, -mpmath.log(mpmath.mpf(delta.numerator) / delta.denominator)
            assert s * kl(q, mpmath.mpf(seed) / n) >= target > s * kl(q, mpmath.mpf(seed - 1) / n)
        # at k = 0 the root is 1 - delta^(1/s)
        for n, s, delta in [(20, 5, Fraction(1, 20)), (1000, 30, Fraction(1, 100)),
                            (10**6, 100, Fraction(1, 20)), (10**12, 10**7, Fraction(1, 10**6))]:
            root = 1 - (mpmath.mpf(delta.numerator) / delta.denominator) ** (mpmath.mpf(1) / s)
            assert start_high(n, s, 0, delta) == int(mpmath.ceil(n * root))
    # a root within rounding of 1 clamps at n
    assert start_high(50, 1, 0, Fraction(1, 10**20)) == 50


def test_start_high_tail_is_below_delta():
    # Hoeffding's bound holds for the hypergeometric tail, so wherever the seed
    # is short of the structural zero its exact tail is already below delta;
    # a sample of one is a single Bernoulli draw, where the bound is exact
    seen = 0
    for n in range(2, 41):
        for s in range(1, n + 1):
            for k in range(s):
                for delta in (Fraction(1, 2), Fraction(1, 20), Fraction(1, 100), Fraction(1, 10**6)):
                    m = start_high(n, s, k, delta)
                    if m < n - (s - k) + 1:
                        tail = left_tail_exact(n, m, s, k)
                        assert tail < delta or (tail == delta and s == 1), (n, s, k, delta, m)
                        seen += 1
    assert seen > 10_000


def test_upper_bound_degenerate_k_equals_s():
    for engine in ENGINES:
        r = upper_bound(QueryInstance(20, 5, 5, 0.05), engine)
        assert r.m_hat == 20
        assert r.iterations == 0
        assert r.side == "upper"


def test_lower_bound_degenerate_k_zero():
    for engine in ENGINES:
        r = lower_bound(QueryInstance(20, 5, 0, 0.05), engine)
        assert r.m_hat == 0
        assert r.iterations == 0


def test_sample_is_population():
    for engine in ENGINES:
        assert upper_bound(QueryInstance(10, 10, 7, 0.5), engine).m_hat == 7
        assert lower_bound(QueryInstance(10, 10, 7, 0.5), engine).m_hat == 7


def test_exact_engine_reproduces_oracle():
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randrange(1, 800)
        s = rng.randrange(1, n + 1)
        k = rng.randrange(0, s + 1)
        delta = Fraction(rng.randrange(1, 999), 1000)
        inst = QueryInstance(n, s, k, delta)
        assert upper_bound(inst, TailEngine.EXACT).m_hat == sharp_upper(inst)
        assert lower_bound(inst, TailEngine.EXACT).m_hat == sharp_lower(inst)


def test_floating_engines_within_one_of_oracle():
    rng = random.Random(59)
    for _ in range(120):
        n = rng.randrange(1, 120)
        s = rng.randrange(1, n + 1)
        k = rng.randrange(0, s + 1)
        delta = rng.choice([Fraction(1, 2), Fraction(1, 10), Fraction(1, 20), Fraction(1, 100)])
        inst = QueryInstance(n, s, k, delta)
        mu = sharp_upper(inst)
        for engine in (TailEngine.DIRECT, TailEngine.STIRLING):
            assert abs(upper_bound(inst, engine).m_hat - mu) <= 1


def test_result_tails_straddle_threshold():
    for engine in ENGINES:
        for n, s, k, d in [(500, 60, 11, Fraction(1, 20)), (1000, 30, 29, Fraction(1, 10)),
                           (77, 20, 4, Fraction(2, 5))]:
            r = upper_bound(QueryInstance(n, s, k, d), engine)
            assert Fraction(r.tail_at_m_hat) >= d > Fraction(r.tail_at_m_hat_plus_1)
            rl = lower_bound(QueryInstance(n, s, k, d), engine)
            assert Fraction(rl.tail_at_m_hat) >= d > Fraction(rl.tail_at_m_hat_plus_1)


def test_certificate_straddles_the_exact_delta(monkeypatch):
    # 16 digits of 1/3 lie just below it: a tail that equals them fails the budget
    def fake_tail(n, m, s, k, engine, ctx, **kwargs):
        return Decimal("0.3333333333333333") if m <= 50 else Decimal("0.1")

    monkeypatch.setattr(solver, "left_tail", fake_tail)
    d = Fraction(1, 3)
    r = upper_bound(QueryInstance(100, 10, 5, d), TailEngine.STIRLING, digits=16)
    assert Fraction(r.tail_at_m_hat) >= d > Fraction(r.tail_at_m_hat_plus_1)


def test_lower_bound_tails_are_right_tails():
    inst = QueryInstance(400, 50, 12, Fraction(1, 20))
    r = lower_bound(inst, TailEngine.EXACT)
    assert r.tail_at_m_hat == right_exact(400, r.m_hat, 50, 12)
    assert r.tail_at_m_hat_plus_1 == right_exact(400, r.m_hat - 1, 50, 12)


def test_duality_is_structural():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randrange(1, 600)
        s = rng.randrange(1, n + 1)
        k = rng.randrange(0, s + 1)
        delta = Fraction(rng.randrange(1, 99), 100)
        for engine in ENGINES:
            low = lower_bound(QueryInstance(n, s, k, delta), engine).m_hat
            up = upper_bound(QueryInstance(n, s, s - k, delta), engine).m_hat
            assert low + up == n
    # floating engines at populations the oracle refuses
    for engine in (TailEngine.DIRECT, TailEngine.STIRLING):
        n, s, k = 10**7, 2000, 331
        delta = Fraction(1, 20)
        low = lower_bound(QueryInstance(n, s, k, delta), engine).m_hat
        up = upper_bound(QueryInstance(n, s, s - k, delta), engine).m_hat
        assert low + up == n


def test_lower_bound_is_dual_upper_bound_field_by_field():
    for engine in ENGINES:
        for n, s, k, d in [(500, 60, 11, Fraction(1, 20)), (20, 5, 0, Fraction(1, 20)),
                           (20, 5, 5, Fraction(1, 20)), (77, 20, 4, Fraction(2, 5))]:
            low = lower_bound(QueryInstance(n, s, k, d), engine)
            up = upper_bound(QueryInstance(n, s, s - k, d), engine)
            assert low.m_hat == n - up.m_hat
            assert low.side == "lower"
            assert (low.delta_used, low.engine, low.iterations, low.digits) == (
                up.delta_used, up.engine, up.iterations, up.digits)
            assert low.tail_at_m_hat == up.tail_at_m_hat
            assert low.tail_at_m_hat_plus_1 == up.tail_at_m_hat_plus_1


def test_result_digits_come_from_choose_precision():
    # k = 0 and k = s take the short cuts on one side each
    for engine in ENGINES:
        for n, s, k, d in [(500, 60, 11, Fraction(1, 20)), (20, 5, 0, Fraction(1, 20)),
                           (20, 5, 5, Fraction(1, 20)), (9000, 700, 3, Fraction(1, 10**9))]:
            inst = QueryInstance(n, s, k, d)
            assert upper_bound(inst, engine).digits == choose_precision(n, k, d).digits
            assert lower_bound(inst, engine).digits == choose_precision(n, s - k, d).digits
            assert upper_bound(inst, engine, 44).digits == 44
            assert lower_bound(inst, engine, 44).digits == 44
    with pytest.raises(DomainError):
        upper_bound(QueryInstance(20, 5, 5, Fraction(1, 20)), "exact", digits=8)


def test_iteration_budget():
    cases = [
        (QueryInstance(10**6, 5000, 600, 0.05), TailEngine.STIRLING),
        (QueryInstance(10**6, 5000, 600, 0.05), TailEngine.DIRECT),
        (QueryInstance(9999, 700, 100, 0.01), TailEngine.EXACT),
        (QueryInstance(12, 5, 2, 0.4), TailEngine.DIRECT),
        (QueryInstance(10**5, 300, 0, 0.05), TailEngine.STIRLING),
    ]
    for inst, engine in cases:
        budget = math.ceil(math.log2(inst.n)) + 2
        assert upper_bound(inst, engine).iterations <= budget
        assert lower_bound(inst, engine).iterations <= budget


def test_structural_zero_searches():
    # Next to the structural zero n - (s - k) + 1 the tail falls like a power
    # of its distance from it, and for delta > 1/2, 1 - tail rises like a
    # power of m - k: a secant in m leaves the bracket there and bisects, one
    # in the log of that distance does not.  A walk there sums a few terms and
    # K's standard deviation is under one, so no gap steps cut these short.
    tiny = Fraction(1, 10**300)
    for solve, inst, m_hat, evals in [
            (lower_bound, QueryInstance(10**12, 10**6, 1, Fraction(1, 10**8)), 1, 2),
            (lower_bound, QueryInstance(10**9, 10**4, 1, Fraction(1, 10**8)), 1, 2),
            (upper_bound, QueryInstance(10**6, 100, 99, Fraction(1, 10**8)), 999_999, 2),
            (upper_bound, QueryInstance(10**18, 3, 1, tiny), 10**18 - 2, 2),
            (lower_bound, QueryInstance(10**18, 3, 1, tiny), 1, 2),
            # a census row at delta = 99/100
            (upper_bound, QueryInstance(416551823076, 2, 1, Fraction(99, 100)), 41655182308, 4),
            (lower_bound, QueryInstance(416551823076, 2, 1, Fraction(99, 100)), 374896640768, 4)]:
        r = solve(inst, TailEngine.STIRLING)
        assert (r.m_hat, r.iterations) == (m_hat, evals), inst


SEARCH_CASES = [
    (n, s, k, delta)
    for n, s in [(10**7, 1000), (10**9, 2000), (10**12, 4000)]
    for k in (0, 1, 100, s // 2, s - 100, s - 1)
    for delta in (Fraction(1, 20), Fraction(1, 10**8))
]


@pytest.mark.parametrize("engine", [TailEngine.STIRLING, TailEngine.DIRECT])
def test_search_agrees_with_plain_bisection(engine):
    """The search keeps a verified bracket, so it must end where bisection
    over the same computed tails ends: same m_hat, inside the ceil(log2 n) + 2
    budget.  A gap-stepped certificate tail is not bit-equal to the tail
    bisection evaluates at the same m, but within the target of it."""
    for n, s, k, delta in SEARCH_CASES:
        inst = QueryInstance(n, s, k, delta)
        budget = math.ceil(math.log2(n)) + 2
        for r, (m_hat, t_at, t_next), k_eff in [
                (upper_bound(inst, engine), bisect_upper(inst, engine), k),
                (lower_bound(inst, engine), bisect_lower(inst, engine), s - k)]:
            case = (n, s, k, delta, r.side)
            target = Fraction(choose_precision(n, k_eff, delta).abs_error_target)
            assert r.m_hat == m_hat, case
            assert abs(Fraction(r.tail_at_m_hat) - Fraction(t_at)) <= target, case
            assert abs(Fraction(r.tail_at_m_hat_plus_1) - Fraction(t_next)) <= target, case
            assert r.iterations <= budget, case


@pytest.mark.parametrize("engine", [TailEngine.DIRECT, TailEngine.STIRLING])
def test_gap_stepped_tails_against_exact_oracle(monkeypatch, engine):
    """Every certificate tail that gap steps made, not an evaluation, is
    within the target of the exact tail, absolutely and relative to it: at
    every bound with n <= 16 and a fixed sample of the rest of the n <= 60 grid."""
    calls = record_tail_calls(monkeypatch)
    rng = random.Random(67)
    points = [(n, s, k) for n in range(2, 17) for s in range(1, n + 1) for k in range(s)]
    while len(points) < 4000:
        n = rng.randrange(17, 61)
        s = rng.randrange(1, n + 1)
        points.append((n, s, rng.randrange(s)))
    stepped = 0
    for n, s, k in points:
        for delta in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 20), Fraction(1, 100)):
            calls.clear()
            inst = QueryInstance(n, s, k, delta)
            r = upper_bound(inst, engine)
            evaluated = {m for m, _ in calls}
            target = Fraction(choose_precision(n, k, delta).abs_error_target)
            for m, t, _ in certificate(r, inst):
                if m in evaluated or m == 0 or m > n - (s - k):
                    continue
                stepped += 1
                exact_tail = left_tail_exact(n, m, s, k)
                err = abs(Fraction(t) - exact_tail)
                assert err <= target and err <= target * exact_tail, (n, s, k, delta, m)
    assert stepped > 5000


@pytest.mark.parametrize("cap", [0, 1])
def test_forced_step_cap_keeps_m_hat_inside_budget(monkeypatch, cap):
    """With no gap steps, or runs of one, the search ends at the same m_hat
    inside criterion 8's ceil(log2 n) + 2 evaluations."""
    rng = random.Random(109)
    cases = []
    for _ in range(40):
        n = rng.randrange(2, 5000)
        s = rng.randrange(1, n + 1)
        cases.append((QueryInstance(n, s, rng.randrange(s + 1), Fraction(rng.randrange(1, 99), 100)),
                      rng.choice(ENGINES)))
    cases += [(QueryInstance(n, s, k, delta), TailEngine.STIRLING)
              for n, s, k, delta in SEARCH_CASES if delta == Fraction(1, 20)]
    cases.append((QueryInstance(10**12, 10**6, 900_000, Fraction(1, 20)), TailEngine.STIRLING))
    expected = [(upper_bound(inst, e).m_hat, lower_bound(inst, e).m_hat) for inst, e in cases]
    monkeypatch.setattr(solver, "_step_cap", lambda n, s, m: cap)
    for (inst, engine), want in zip(cases, expected):
        budget = math.ceil(math.log2(inst.n)) + 2 if inst.n > 1 else 2
        up, down = upper_bound(inst, engine), lower_bound(inst, engine)
        assert (up.m_hat, down.m_hat) == want, (inst, engine)
        assert max(up.iterations, down.iterations) <= budget, (inst, engine)


def test_flagship_upper_bound_takes_few_evaluations():
    inst = QueryInstance(10**12, 10**7, 9 * 10**6, Fraction(1, 20))
    r = upper_bound(inst, TailEngine.STIRLING)
    assert r.m_hat == 900_156_008_220
    # bisection from the same seeds took 31
    assert r.iterations <= 12


def test_direct_anchor_memory_lives_for_one_solve(full_anchors):
    # later anchors of a solve derive from earlier ones, but a repeated
    # request derives nothing from the first: it computes as many in full
    inst = QueryInstance(10**7, 5000, 4500, Fraction(1, 20))
    first = upper_bound(inst, TailEngine.DIRECT)
    in_first = len(full_anchors)
    assert upper_bound(inst, TailEngine.DIRECT) == first
    assert len(full_anchors) - in_first == in_first < first.iterations
    state = [name for name, value in vars(direct).items()
             if not name.startswith("__") and isinstance(value, (dict, list, set))]
    assert state == []


# the module attribute through which a tail reaches each engine's own layer
ENGINE_LAYERS = {TailEngine.EXACT: (exact, "left_tail_exact"),
                 TailEngine.DIRECT: (direct, "pmf_direct"),
                 TailEngine.STIRLING: (stirling, "log_pmf")}


@pytest.mark.parametrize("engine", ENGINES)
def test_solver_calls_left_tail_with_six_positional_arguments(monkeypatch, tmp_path, engine):
    # The benchmark's tracing wraps module attributes: solver.left_tail, whose
    # sixth positional argument it reads ctx from, and each one spied on here.
    # A layer reached other than through its attribute would read zero there.
    layer = spy_on(monkeypatch, *ENGINE_LAYERS[engine])
    calls = []
    real = solver.left_tail

    def spy(*args, **kwargs):
        calls.append((len(args), tuple(kwargs)))
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "left_tail", spy)
    inst = QueryInstance(2000, 50, 12, Fraction(1, 20))
    upper_bound(inst, engine)
    lower_bound(inst, engine)
    assert calls and set(calls) == {(6, ("anchors",))}
    assert layer
    layer.clear()
    right_tail(2000, 600, 50, 12, engine, PrecisionContext.for_digits(30))
    assert layer

    sampled = [spy_on(monkeypatch, coverage, attr)
               for attr in ("sample_successes", "upper_bound", "lower_bound")]
    coverage_run(200, 70, 30, 0.05, 5, 0, engine=engine)
    assert all(sampled)

    batched = [spy_on(monkeypatch, cli, attr) for attr in ("upper_bound", "lower_bound")]
    batch = tmp_path / "conditions.txt"
    batch.write_text("200 30 0.05\nhits 7\n", encoding="utf-8")
    assert cli.main(["batch", str(batch), "--engine", str(engine)]) == 0
    assert all(batched)


def test_computed_tails_monotone_near_bound():
    # third correctness condition: no inversion across the returned bound
    for engine in (TailEngine.DIRECT, TailEngine.STIRLING):
        inst = QueryInstance(3000, 200, 41, Fraction(1, 20))
        ctx = choose_precision(inst.n, inst.k, inst.delta)
        m_hat = upper_bound(inst, engine).m_hat
        tails = [left_tail(inst.n, m, inst.s, inst.k, engine, ctx)
                 for m in (m_hat - 1, m_hat, m_hat + 1)]
        assert tails[0] >= tails[1] >= tails[2]


def test_exact_engine_rejects_oversized_population(capsys):
    with pytest.raises(OracleLimitError):
        upper_bound(QueryInstance(10**6, 100, 10, 0.05), TailEngine.EXACT)
    for engine in (TailEngine.EXACT, "exact"):
        # the k = s and k = 0 short cuts evaluate no tail and are refused all the same
        with pytest.raises(OracleLimitError):
            upper_bound(QueryInstance(10**6, 100, 100, 0.05), engine)
        with pytest.raises(OracleLimitError):
            lower_bound(QueryInstance(10**6, 100, 0, 0.05), engine)
        with pytest.raises(OracleLimitError):
            coverage_run(10_001, 300, 50, 0.05, 10, 0, engine=engine)
    # the CLI refuses with advice a CLI user can follow
    assert cli.main(["tail", "--n", "10001", "--m", "40", "--s", "10", "--k", "3",
                     "--which", "left", "--engine", "exact"]) == 2
    err = capsys.readouterr().err
    assert "n=10001" in err and "max_n" not in err
    # the oracle behind the engine is unguarded
    assert left_tail_exact(20_001, 10, 5, 2) > 0


def test_choose_precision_floor_and_scale():
    ctx = choose_precision(100, 5, 0.1)
    assert ctx.digits == 16
    ctx = choose_precision(10**12, 9 * 10**6, 0.05)
    assert ctx.digits == 30
    ctx = choose_precision(10**12, 10**7, 0.01)
    target = Fraction(ctx.abs_error_target)
    assert Fraction(1, 10**22) <= target <= Fraction(1, 10**21)
    assert ctx.digits >= 30


def test_choose_precision_invariants():
    for n, k, d in [(10, 0, 0.5), (10**9, 10**4, 0.001), (50, 50, 0.99)]:
        ctx = choose_precision(n, k, d)
        override = choose_precision(n, k, d, digits=44)
        assert override.digits == 44
        assert override.abs_error_target == ctx.abs_error_target
    with pytest.raises(DomainError):
        choose_precision(10, 2, 0.05, digits=8)
    # at most 1000 digits, which bounds the Stirling series' Bernoulli memo
    assert choose_precision(10, 2, 0.05, digits=1000).digits == 1000
    with pytest.raises(DomainError, match="16 to 1000 digits"):
        choose_precision(10, 2, 0.05, digits=1001)
    with pytest.raises(DomainError):
        upper_bound(QueryInstance(10**6, 100, 10, Fraction(1, 10**995)), "stirling")
    for target in (Decimal(0), Decimal("-1e-20")):
        with pytest.raises(DomainError, match="abs_error_target must be positive"):
            PrecisionContext(30, target)


def floating_gap(n, m, s, k, engine):
    """L(m) - L(m + 1) = p(n, m, s, k) (s - k) / (n - m), at 30 digits."""
    ctx = PrecisionContext.for_digits(30)
    with localcontext(ctx.context):
        return Fraction(solver.pmf(n, m, s, k, engine, ctx) * (s - k) / (n - m))


def test_gap_matches_consecutive_tail_difference():
    expect = left_tail_exact(10, 5, 4, 2) - left_tail_exact(10, 6, 4, 2)
    assert pmf_exact(10, 5, 4, 2) * Fraction(2, 5) == expect == Fraction(40, 210)
    for engine in (TailEngine.DIRECT, TailEngine.STIRLING):
        g = floating_gap(10, 5, 4, 2, engine)
        assert abs(g - expect) <= expect * Fraction(1, 10**9)


def test_gap_near_trillion_scale_bound():
    # consecutive tails around the reproduced bound differ by about 1e-9,
    # a few parts in ten billion
    g = floating_gap(10**12, 900_156_008_220, 10**7, 9 * 10**6, TailEngine.STIRLING)
    assert Fraction(1, 10**10) < g < Fraction(1, 10**8)


def test_delta_accepted_anywhere_in_unit_interval():
    r = upper_bound(QueryInstance(50, 10, 3, 0.999), TailEngine.EXACT)
    assert 0 <= r.m_hat <= 50
    r = upper_bound(QueryInstance(50, 10, 3, Fraction(1, 10**6)), TailEngine.EXACT)
    assert r.m_hat == sharp_upper(QueryInstance(50, 10, 3, Fraction(1, 10**6)))


def test_instance_validation():
    with pytest.raises(DomainError):
        QueryInstance(0, 1, 0, 0.5)
    with pytest.raises(DomainError):
        QueryInstance(5, 6, 2, 0.5)
    with pytest.raises(DomainError):
        QueryInstance(5, 3, 4, 0.5)
    with pytest.raises(DomainError):
        QueryInstance(5, 3, 2, 0)
    with pytest.raises(DomainError):
        QueryInstance(5, 3, 2, 1)
    # a delta that is not a finite number is refused in every form
    for text in ("NaN", "sNaN", "Infinity", "-Infinity"):
        for delta in (text, Decimal(text)):
            with pytest.raises(DomainError, match="not a valid probability"):
                QueryInstance(10, 5, 2, delta)
    # a fractional or unparsable count is refused, not truncated
    for args in [(10.7, 3, 1), (10, 3.9, 1), (10, 3, 1.5), ("abc", 3, 1), (10, None, 1)]:
        with pytest.raises(DomainError):
            QueryInstance(*args, 0.05)
    # integral values of any type keep working
    big = QueryInstance(10**12, 10**7, 9 * 10**6, 0.05)
    assert QueryInstance(1e12, 1e7, "9000000", 0.05) == big
    assert type(QueryInstance("10", 3.0, 1, 0.05).n) is int
