"""Acceptance suite: one test per exit criterion, at stated tolerances.

The per-criterion pass/fail summary is printed by the conftest hook at the
end of the run.  Criterion 1 reproduces the trillion-item result: the
Stirling half takes about a second, while the direct half takes 35-39 s for
both sides on a 2-vCPU VM and is opt-in via SKETCHBOUND_SLOW=1.
"""

import hashlib
import json
import math
import os
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

from sketchbound import (
    QueryInstance,
    TailEngine,
    coverage_run,
    left_tail_exact,
    lower_bound,
    pmf_exact,
    upper_bound,
)
from sketchbound.cli import main as cli_main
from sketchbound.model import PrecisionContext, decimal_context
from sketchbound import solver
from sketchbound.solver import choose_precision
from sketchbound.stirling import log_factorial, log_pmf

acceptance = pytest.mark.acceptance

DATA = Path(__file__).parent / "data"

FLAGSHIP = dict(n=10**12, s=10**7, k=9 * 10**6, delta=Fraction(1, 20))
FLAGSHIP_UPPER = 900_156_008_220
FLAGSHIP_LOWER = 899_843_820_749

# sha256 of the oracle sweep's bounds, one "n s k delta engine m_hat" line each.
# At exact ties (the exact tail at the sharp m equals delta) the computed tail's
# side of delta rests on which terms the walk drops, so a new stopping rule can
# move those bounds by one.
SWEEP_DIGEST = "91b5d3b01e49f9d5f5efec7b8344d7ed82b4cda16181b28fd0b198ac7dd2fec8"


def _reproduce_flagship(engine: TailEngine) -> None:
    inst = QueryInstance(FLAGSHIP["n"], FLAGSHIP["s"], FLAGSHIP["k"], FLAGSHIP["delta"])
    t0 = time.monotonic()
    up = upper_bound(inst, engine)
    down = lower_bound(inst, engine)
    elapsed = time.monotonic() - t0
    assert abs(up.m_hat - FLAGSHIP_UPPER) <= 1, (engine, up.m_hat)
    assert abs(down.m_hat - FLAGSHIP_LOWER) <= 1, (engine, down.m_hat)
    assert elapsed <= 600, f"{engine}: {elapsed:.0f}s exceeds the 10 minute budget"


@acceptance
def test_criterion_1_paper_reproduction_stirling():
    _reproduce_flagship(TailEngine.STIRLING)


@acceptance
@pytest.mark.slow
def test_criterion_1_paper_reproduction_direct():
    # 35-39 s for both sides on a 2-vCPU VM: 12 of its 19 anchors are full,
    # O(s) each; the other 7 are derived from an earlier one in O(|delta m|)
    _reproduce_flagship(TailEngine.DIRECT)


def _tail_table(n: int, s: int) -> tuple[list[list[int]], int]:
    """Cumulative tail numerators N[m][k] with denominator C(n, s)."""
    rows = []
    for m in range(n + 1):
        pmf_row = [math.comb(m, i) * math.comb(n - m, s - i) for i in range(s + 1)]
        acc = 0
        cum = []
        for v in pmf_row:
            acc += v
            cum.append(acc)
        rows.append(cum)
    return rows, math.comb(n, s)


@acceptance
def test_criterion_2_oracle_sweep():
    deltas = [Fraction(1, 2), Fraction(1, 10), Fraction(1, 20), Fraction(1, 100)]
    engines = (TailEngine.DIRECT, TailEngine.STIRLING)
    t0 = time.monotonic()
    checked = forced_exact = 0
    # every bound of the sweep, pinned: a change that moves any m_hat fails
    digest = hashlib.sha256()
    for n in range(1, 61):
        for s in range(1, n + 1):
            table, denom = _tail_table(n, s)
            for k in range(0, s + 1):
                for delta in deltas:
                    # exhaustive scan over the precomputed exact tails
                    mu = next(m for m in range(n, -1, -1)
                              if table[m][k] * delta.denominator
                              >= delta.numerator * denom)
                    inst = QueryInstance(n, s, k, delta)
                    target = delta / (4 * n * max(k, 1))
                    clear = (
                        abs(Fraction(table[mu][k], denom) - delta) > 2 * target
                        and (mu == n or
                             abs(Fraction(table[mu + 1][k], denom) - delta) > 2 * target)
                    )
                    for engine in engines:
                        got = upper_bound(inst, engine).m_hat
                        digest.update(f"{n} {s} {k} {delta} {engine.value} {got}\n".encode())
                        assert abs(got - mu) <= 1, (n, s, k, delta, engine, got, mu)
                        if clear:
                            assert got == mu, (n, s, k, delta, engine, got, mu)
                            forced_exact += 1
                        checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 317_200
    assert forced_exact > 0
    assert digest.hexdigest() == SWEEP_DIGEST, digest.hexdigest()
    assert elapsed <= 120, f"sweep took {elapsed:.0f}s, budget is 2 minutes"


@acceptance
def test_criterion_3_gap_theorem():
    rng = random.Random(101)
    checked = 0
    while checked < 1000:
        n = rng.randrange(2, 201)
        m = rng.randrange(0, n)
        s = rng.randrange(1, n + 1)
        k = rng.randrange(0, s + 1)
        exact_gap = left_tail_exact(n, m, s, k) - left_tail_exact(n, m + 1, s, k)
        assert exact_gap == pmf_exact(n, m, s, k) * Fraction(s - k, n - m)
        ctx = PrecisionContext.for_digits(30)
        for engine in (TailEngine.DIRECT, TailEngine.STIRLING):
            with localcontext(ctx.context):
                floating = Fraction(solver.pmf(n, m, s, k, engine, ctx) * (s - k) / (n - m))
            if exact_gap == 0:
                assert floating == 0
            else:
                assert abs(floating - exact_gap) <= exact_gap * Fraction(1, 10**9)
        checked += 1


@acceptance
def test_criterion_4_duality():
    rng = random.Random(103)
    cases = [(rng.randrange(1, 500), rng.randrange(1, 99)) for _ in range(50)]
    for n, pct in cases:
        s = rng.randrange(1, n + 1)
        k = rng.randrange(0, s + 1)
        delta = Fraction(pct, 100)
        for engine in (TailEngine.DIRECT, TailEngine.STIRLING, TailEngine.EXACT):
            low = lower_bound(QueryInstance(n, s, k, delta), engine).m_hat
            up_dual = upper_bound(QueryInstance(n, s, s - k, delta), engine).m_hat
            assert low == n - up_dual
    for engine in (TailEngine.DIRECT, TailEngine.STIRLING):
        n, s, k = 10**8, 4000, 1234
        delta = Fraction(1, 40)
        low = lower_bound(QueryInstance(n, s, k, delta), engine).m_hat
        up_dual = upper_bound(QueryInstance(n, s, s - k, delta), engine).m_hat
        assert low == n - up_dual


@acceptance
def test_criterion_5_stirling_accuracy():
    ctx = PrecisionContext.for_digits(30)
    with localcontext(decimal_context(45)):
        acc = Decimal(0)
        for h in range(1, 10_001):
            acc += Decimal(h).ln()
            got = log_factorial(h, ctx.digits)
            if h >= 2:
                rel = abs(got - acc) / acc
                assert rel < Decimal("1e-14"), h
    # every structurally nonzero pmf on small instances, then a wider sample
    def check(n, m, s, j):
        lp = log_pmf(n, m, s, j, ctx)
        with localcontext(decimal_context(30)):
            approx = Fraction(lp.exp())
        expect = pmf_exact(n, m, s, j)
        assert abs(approx - expect) <= expect * Fraction(1, 10**12), (n, m, s, j)

    for n in range(1, 19):
        for m in range(0, n + 1):
            for s in range(1, n + 1):
                for j in range(max(0, s - (n - m)), min(s, m) + 1):
                    check(n, m, s, j)
    rng = random.Random(107)
    done = 0
    while done < 400:
        n = rng.randrange(19, 201)
        m = rng.randrange(0, n + 1)
        s = rng.randrange(1, n + 1)
        j_lo, j_hi = max(0, s - (n - m)), min(s, m)
        if j_hi < j_lo:
            continue
        check(n, m, s, rng.randrange(j_lo, j_hi + 1))
        done += 1


@acceptance
def test_criterion_6_precision_accounting():
    ctx = choose_precision(10**12, 10**7, Fraction(1, 100))
    target = Fraction(ctx.abs_error_target)
    assert Fraction(1, 10**22) <= target <= Fraction(1, 10**21)
    assert ctx.digits >= 30
    # the reproduction instance runs at exactly 30 digits
    assert choose_precision(10**12, 9 * 10**6, Fraction(1, 20)).digits == 30


@acceptance
def test_criterion_7_coverage():
    for delta, trials in ((0.05, 10_000), (0.01, 100_000)):
        report = coverage_run(2000, 700, 200, delta, trials=trials, seed=1)
        slack = 3 * math.sqrt(delta * (1 - delta) / trials)
        assert report.empirical_upper_rate <= delta + slack, (delta, report)
        assert report.empirical_lower_rate <= delta + slack, (delta, report)


@acceptance
def test_criterion_8_iteration_budget():
    rng = random.Random(109)
    cases = []
    for _ in range(25):
        n = rng.randrange(2, 5000)
        s = rng.randrange(1, n + 1)
        cases.append((QueryInstance(n, s, rng.randrange(0, s + 1),
                                    Fraction(rng.randrange(1, 99), 100)),
                      rng.choice([TailEngine.DIRECT, TailEngine.STIRLING, TailEngine.EXACT])))
    cases += [
        (QueryInstance(10**6, 10**4, 2345, Fraction(1, 20)), TailEngine.DIRECT),
        (QueryInstance(10**9, 2 * 10**4, 8000, Fraction(1, 100)), TailEngine.STIRLING),
        (QueryInstance(10**9, 2 * 10**4, 11, Fraction(1, 2)), TailEngine.STIRLING),
    ]
    for inst, engine in cases:
        budget = math.ceil(math.log2(inst.n)) + 2 if inst.n > 1 else 2
        r = upper_bound(inst, engine)
        assert r.iterations <= budget, (inst, engine, r.iterations, budget)
        r = lower_bound(inst, engine)
        assert r.iterations <= budget, (inst, engine, r.iterations, budget)


def _run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@acceptance
def test_criterion_9_cli_contract(capsys):
    # golden text and JSON on a sweep-scale instance
    code, out, _ = _run_cli(capsys, "bound", "--n", "60", "--s", "30", "--k", "17",
                            "--delta", "0.05", "--engine", "direct", "--no-bonferroni")
    assert code == 0
    assert out == (DATA / "bound_direct_60.txt").read_text(encoding="utf-8")
    code, out, _ = _run_cli(capsys, "bound", "--n", "60", "--s", "30", "--k", "17",
                            "--delta", "0.05", "--engine", "stirling", "--no-bonferroni",
                            "--format", "json")
    assert code == 0
    assert out == (DATA / "bound_stirling_60.json").read_text(encoding="utf-8")
    # domain error and precision-infeasible exit codes
    code, _, _ = _run_cli(capsys, "bound", "--n", "5", "--s", "9", "--k", "2",
                          "--delta", "0.05")
    assert code == 2
    code, _, _ = _run_cli(capsys, "bound", "--n", "1000000000000", "--s", "10000000",
                          "--k", "9000000", "--delta", "0.05", "--sides", "upper",
                          "--engine", "stirling", "--digits", "16")
    assert code == 3


@acceptance
def test_criterion_9_cli_flagship_golden(capsys):
    code, out, _ = _run_cli(capsys, "bound", "--n", str(FLAGSHIP["n"]),
                            "--s", str(FLAGSHIP["s"]), "--k", str(FLAGSHIP["k"]),
                            "--delta", "0.05", "--engine", "stirling",
                            "--no-bonferroni", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [p["m_hat"] for p in payload] == [FLAGSHIP_UPPER, FLAGSHIP_LOWER]
    assert all(p["delta"] == "0.05" for p in payload)
    golden = DATA / "bound_flagship_stirling.json"
    if os.environ.get("SKETCHBOUND_UPDATE_GOLDEN"):
        golden.write_text(out, encoding="utf-8")
    assert out == golden.read_text(encoding="utf-8")
