"""The three workloads: the inputs each draws from its seed, one operation
against sketchbound, and the checks on that operation's output.

A workload's shape (rungs, file sizes, size classes) is fixed; the seed
draws the values inside it.  Runs at different seeds then do comparable
work, so their timings can be compared while the inputs still change.

Every workload is a closed loop: one caller, one thread, each operation
started when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks

DELTAS = (Fraction(1, 20), Fraction(1, 100), Fraction(1, 10**6))


def _delta_text(delta: Fraction) -> str:
    return {Fraction(1, 20): "0.05", Fraction(1, 100): "0.01",
            Fraction(1, 10**6): "0.000001"}[delta]


def _jitter(rng: random.Random, value: int, spread: float) -> int:
    return round(value * rng.uniform(1 - spread, 1 + spread))


# ---------------------------------------------------------------- ladder


@dataclass(frozen=True)
class BoundOp:
    label: str
    n: int
    s: int
    k: int
    delta: Fraction
    side: str


class Ladder:
    """upper_bound / lower_bound one query at a time, engine auto (Stirling).

    Each rung bounds the flagship ratio k = 0.9 s on both sides at
    delta = 0.05 (the upper one is a baseline row), and a rare-item count
    near 100 on both sides at each of the three deltas, with a fresh count
    drawn uniformly from [90, 111] for every delta.
    """

    name = "ladder"
    op_is_bound = True
    RUNGS = ((10**6, 10**4), (10**9, 10**5), (10**12, 10**6))

    def make_ops(self, rng: random.Random, workdir: Path) -> list[BoundOp]:
        ops = []
        for n, s in self.RUNGS:
            rung = f"n=1e{len(str(n)) - 1}"
            k = 9 * s // 10
            ops.append(BoundOp(f"{rung} baseline", n, s, k, Fraction(1, 20), "upper"))
            ops.append(BoundOp(f"{rung} flagship", n, s, k, Fraction(1, 20), "lower"))
            for delta in DELTAS:
                k = rng.randint(90, 111)
                for side in ("upper", "lower"):
                    ops.append(BoundOp(f"{rung} rare", n, s, k, delta, side))
        return ops

    def warm_up(self, prog, workdir: Path) -> None:
        prog.sb.upper_bound(prog.sb.QueryInstance(10**5, 1000, 900, "0.05"), "auto")

    def run(self, prog, op: BoundOp):
        instance = prog.sb.QueryInstance(op.n, op.s, op.k, op.delta)
        bound = prog.sb.upper_bound if op.side == "upper" else prog.sb.lower_bound
        return bound(instance, "auto")

    def output(self, result) -> dict:
        return {
            "m_hat": result.m_hat,
            "engine": str(result.engine),
            "tail_hi": str(result.tail_at_m_hat),
            "tail_lo": str(result.tail_at_m_hat_plus_1),
            "iterations": result.iterations,
        }

    def check(self, ref, op: BoundOp, out: dict, detailed: bool) -> checks.Verdict:
        verdict = checks.Verdict()
        if out["engine"] != "stirling":
            verdict.fail(f"engine {out['engine']}, expected stirling")
        k_eff = op.k if op.side == "upper" else op.s - op.k
        digits = checks.documented_digits(op.n, k_eff, op.delta)
        checks.check_bound(verdict, ref, op.n, op.s, op.k, op.delta, op.side,
                           out["m_hat"], out["tail_hi"], out["tail_lo"],
                           out["iterations"], digits, "stirling", detailed)
        return verdict


# ----------------------------------------------------------------- batch


@dataclass(frozen=True)
class BatchOp:
    label: str
    path: str
    n: int
    s: int
    delta: Fraction
    conditions: tuple[tuple[str, int], ...]


class Batch:
    """`sketchbound batch --engine direct --format json` through cli.main.

    Three sketch files per round, sized so that each costs about the same:
    s near 10000 with 12 conditions and delta 0.05, near 7000 with 14 and
    0.01, near 5000 with 17 and 1e-6.  Counts are log-uniform over [0, s]
    and always include 0 and s.
    """

    name = "batch"
    op_is_bound = False
    FILES = ((10_000, 12), (7_000, 14), (5_000, 17))

    def make_ops(self, rng: random.Random, workdir: Path) -> list[BatchOp]:
        ops = []
        for i, ((s0, count), delta) in enumerate(zip(self.FILES, DELTAS)):
            s = _jitter(rng, s0, 0.05)
            # each file draws n from its own third of [1e7, 1e8] in log scale
            n = round(10 ** (7 + (i + rng.random()) / len(self.FILES)))
            ks = [0, s] + [math.floor((s + 1) ** rng.random()) - 1 for _ in range(count - 2)]
            conditions = tuple((f"c{j:02d}", k) for j, k in enumerate(ks))
            path = workdir / f"batch-{i}.txt"
            lines = [f"# sketch {i}: n s delta, then one 'label k' per condition",
                     f"{n} {s} {_delta_text(delta)}"]
            lines += [f"{label} {k}" for label, k in conditions]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            ops.append(BatchOp(f"s~{s0} j={count}", str(path), n, s, delta, conditions))
        return ops

    def warm_up(self, prog, workdir: Path) -> None:
        path = workdir / "batch-warm-up.txt"
        path.write_text("100000 200 0.05\na 0\nb 20\nc 200\n", encoding="utf-8")
        self.run(prog, BatchOp("warm-up", str(path), 0, 0, Fraction(0), ()))

    def run(self, prog, op: BatchOp):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = prog.cli.main(["batch", op.path, "--engine", "direct", "--format", "json"])
        return code, stdout.getvalue(), stderr.getvalue()

    def output(self, result) -> dict:
        code, stdout, stderr = result
        return {"exit": code, "stdout": stdout, "stderr": stderr}

    def check(self, ref, op: BatchOp, out: dict, detailed: bool) -> checks.Verdict:
        verdict = checks.Verdict()
        if out["exit"] != 0:
            verdict.fail(f"exit code {out['exit']}: {out['stderr'].strip()}")
            return verdict
        payload = json.loads(out["stdout"])
        j = len(op.conditions)
        per_side = op.delta / (2 * j)
        if (payload["n"], payload["s"], payload["condition_count"]) != (op.n, op.s, j):
            verdict.fail("header echoes the wrong n, s or condition count")
        if not checks.decimal_close(payload["per_side_delta"], per_side):
            verdict.fail(f"per_side_delta {payload['per_side_delta']} != delta/(2j)")
        if not checks.decimal_close(payload["joint_confidence"], 1 - op.delta):
            verdict.fail(f"joint_confidence {payload['joint_confidence']} != 1 - delta")
        expected = dict(op.conditions)
        rows = payload["conditions"]
        if sorted(row["label"] for row in rows) != sorted(expected):
            verdict.fail("the output does not hold one row per condition")
            return verdict
        for row in rows:
            k = expected[row["label"]]
            up, down = row["upper"], row["lower"]
            if int(up["m_hat"]) < int(down["m_hat"]):
                verdict.fail(f"{row['label']}: lower {down['m_hat']} above upper {up['m_hat']}")
            if k == 0 and int(down["m_hat"]) != 0:
                verdict.fail(f"{row['label']}: k=0 but lower bound {down['m_hat']}")
            if k == op.s and int(up["m_hat"]) != op.n:
                verdict.fail(f"{row['label']}: k=s but upper bound {up['m_hat']}")
            for side, bound in (("upper", up), ("lower", down)):
                if bound["engine"] != "direct" or int(bound["k"]) != k:
                    verdict.fail(f"{row['label']} {side}: wrong engine or k echoed")
                if not checks.decimal_close(bound["delta"], per_side):
                    verdict.fail(f"{row['label']} {side}: delta {bound['delta']} != delta/(2j)")
                checks.check_bound(verdict, ref, op.n, op.s, k, per_side, side,
                                   int(bound["m_hat"]), bound["tail_hi"], bound["tail_lo"],
                                   bound["iterations"], bound["digits"], "direct", detailed)
        return verdict


# -------------------------------------------------------------- coverage


@dataclass(frozen=True)
class CoverageOp:
    label: str
    n: int
    m: int
    s: int
    delta: Fraction
    trials: int
    seed: int


class Coverage:
    """coverage_run with engine auto, which is the exact oracle at n <= 1e4.

    Every round runs each size class at each delta.  The success share falls
    as the sample grows, which keeps the exact tails (sums over up to k
    big-integer terms, for every distinct k observed) near half a second a
    call at s near 600.
    """

    name = "coverage"
    op_is_bound = False
    TRIALS = 2000
    # (n, s, m / n) at the centre of each class
    CLASSES = ((2_500, 150, 0.2), (4_000, 250, 0.05), (9_000, 600, 0.004))

    def make_ops(self, rng: random.Random, workdir: Path) -> list[CoverageOp]:
        ops = []
        for n0, s0, share in self.CLASSES:
            for delta in DELTAS:
                n = _jitter(rng, n0, 0.03)
                s = _jitter(rng, s0, 0.03)
                m = max(1, round(n * share * rng.uniform(0.95, 1.05)))
                ops.append(CoverageOp(f"n~{n0} s~{s0}", n, m, s, delta,
                                      self.TRIALS, rng.randrange(2**32)))
        return ops

    def warm_up(self, prog, workdir: Path) -> None:
        prog.sb.coverage_run(1000, 300, 50, Fraction(1, 20), 100, 0, engine="auto")

    def run(self, prog, op: CoverageOp):
        return prog.sb.coverage_run(op.n, op.m, op.s, op.delta, op.trials, op.seed,
                                    engine="auto")

    def output(self, result) -> dict:
        return {
            "trials": result.trials,
            "upper_failures": result.upper_failures,
            "lower_failures": result.lower_failures,
            "empirical_upper_rate": result.empirical_upper_rate,
            "empirical_lower_rate": result.empirical_lower_rate,
            "seed": result.seed,
        }

    def check(self, ref, op: CoverageOp, out: dict, detailed: bool) -> checks.Verdict:
        verdict = checks.Verdict()
        if (out["trials"], out["seed"]) != (op.trials, op.seed):
            verdict.fail("report echoes the wrong trials or seed")
        checks.check_coverage(verdict, ref, op.n, op.m, op.s, op.delta, op.trials,
                              out["upper_failures"], out["lower_failures"],
                              out["empirical_upper_rate"], out["empirical_lower_rate"])
        return verdict


WORKLOADS = {w.name: w for w in (Ladder(), Batch(), Coverage())}
