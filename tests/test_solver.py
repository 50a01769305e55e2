"""Bound solver: seeds, brackets, the secant search, duality, precision selection."""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle import bisect_lower, bisect_upper, sharp_lower, sharp_upper
from sketchbound import (
    DomainError,
    OracleLimitError,
    PrecisionContext,
    QueryInstance,
    TailEngine,
    left_tail,
    left_tail_exact,
    lower_bound,
    pmf_exact,
    right_tail,
    right_tail_exact,
    upper_bound,
)
from sketchbound import direct, solver
from sketchbound.solver import choose_precision, resolve_engine, start_high

ENGINES = (TailEngine.DIRECT, TailEngine.STIRLING, TailEngine.EXACT)


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
    for n in (100, 10**6):
        if name == "exact" and n > 10_000:
            with pytest.raises(OracleLimitError):
                left_tail(n, 40, 10, 3, name, ctx)
            with pytest.raises(OracleLimitError):
                right_tail(n, 40, 10, 3, name, ctx)
            continue
        engine = resolve_engine(name, n)
        left = left_tail(n, 40, 10, 3, name, ctx)
        right = right_tail(n, 40, 10, 3, name, ctx)
        assert left == left_tail(n, 40, 10, 3, engine, ctx)
        assert right == right_tail(n, 40, 10, 3, engine, ctx)
        # a floating engine computes in Decimal, the oracle in Fraction
        assert isinstance(left, Fraction) == (engine is TailEngine.EXACT)
        if n <= 10_000:
            assert abs(Fraction(left) - left_tail_exact(n, 40, 10, 3)) < Fraction(1, 10**12)
            assert abs(Fraction(right) - right_tail_exact(n, 40, 10, 3)) < Fraction(1, 10**12)


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
    # delta close to 1 disqualifies the proportion seed
    big_delta = Fraction(99, 100)
    assert left_tail_exact(20, 8, 5, 2) < big_delta
    inst = QueryInstance(20, 5, 2, big_delta)
    r = upper_bound(inst, TailEngine.EXACT)
    # the seed, then the high seed; the low endpoint 0 is never evaluated
    ms = [m for m, _ in calls]
    assert ms[:2] == [8, start_high(20, 5, 2, big_delta)]
    assert 0 not in ms
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


def test_structurally_zero_high_seed_is_not_evaluated(monkeypatch):
    calls = record_tail_calls(monkeypatch)
    # the Hoeffding seed clamps at n, where no m from n - (s - k) + 1 = n on
    # can have a tail above 0: that m is the high endpoint, unevaluated
    inst = QueryInstance(10**6, 100, 99, Fraction(1, 20))
    assert start_high(10**6, 100, 99, inst.delta) == 10**6
    r = upper_bound(inst, TailEngine.STIRLING)
    assert 10**6 not in [m for m, _ in calls]
    assert r.m_hat == 999_487
    assert_certificate_computed(calls, inst, r)


def test_start_high_formula():
    assert start_high(100, 10, 5, 0.05) == 89  # ceil(100 * 0.88702...)
    # radical pushes past 1: clamp at n
    assert start_high(50, 2, 2, 0.01) == 50
    # frozen from the formula at the trillion-scale instance
    assert start_high(10**12, 10**7, 9 * 10**6, 0.05) == 900_387_022_757


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
    assert r.tail_at_m_hat == right_tail_exact(400, r.m_hat, 50, 12)
    assert r.tail_at_m_hat_plus_1 == right_tail_exact(400, r.m_hat - 1, 50, 12)


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


SEARCH_CASES = [
    (n, s, k, delta)
    for n, s in [(10**7, 1000), (10**9, 2000), (10**12, 4000)]
    for k in (0, 1, 100, s // 2, s - 100, s - 1)
    for delta in (Fraction(1, 20), Fraction(1, 10**8))
]


@pytest.mark.parametrize("engine", [TailEngine.STIRLING, TailEngine.DIRECT])
def test_search_agrees_with_plain_bisection(engine):
    """The secant search keeps a verified bracket, so it must end where
    bisection over the same computed tails ends: same m_hat, same two
    certificate tails, and inside the ceil(log2 n) + 2 budget."""
    for n, s, k, delta in SEARCH_CASES:
        inst = QueryInstance(n, s, k, delta)
        budget = math.ceil(math.log2(n)) + 2
        for r, (m_hat, t_at, t_next) in [(upper_bound(inst, engine), bisect_upper(inst, engine)),
                                         (lower_bound(inst, engine), bisect_lower(inst, engine))]:
            case = (n, s, k, delta, r.side)
            assert r.m_hat == m_hat, case
            assert r.tail_at_m_hat == t_at, case
            assert r.tail_at_m_hat_plus_1 == t_next, case
            assert r.iterations <= budget, case


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


@pytest.mark.parametrize("engine", ENGINES)
def test_solver_calls_left_tail_with_six_positional_arguments(monkeypatch, engine):
    # the benchmark's tracing reads ctx from the sixth positional argument
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


def test_computed_tails_monotone_near_bound():
    # third correctness condition: no inversion across the returned bound
    for engine in (TailEngine.DIRECT, TailEngine.STIRLING):
        inst = QueryInstance(3000, 200, 41, Fraction(1, 20))
        ctx = choose_precision(inst.n, inst.k, inst.delta)
        m_hat = upper_bound(inst, engine).m_hat
        tails = [left_tail(inst.n, m, inst.s, inst.k, engine, ctx)
                 for m in (m_hat - 1, m_hat, m_hat + 1)]
        assert tails[0] >= tails[1] >= tails[2]


def test_exact_engine_rejects_oversized_population():
    with pytest.raises(OracleLimitError):
        upper_bound(QueryInstance(10**6, 100, 10, 0.05), TailEngine.EXACT)
    # the k = s and k = 0 short cuts evaluate no tail and are refused all the same
    for engine in (TailEngine.EXACT, "exact"):
        with pytest.raises(OracleLimitError):
            upper_bound(QueryInstance(10**6, 100, 100, 0.05), engine)
        with pytest.raises(OracleLimitError):
            lower_bound(QueryInstance(10**6, 100, 0, 0.05), engine)


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
