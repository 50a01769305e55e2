"""Evaluation census: how many tail evaluations a bound solve takes, across regimes.

The ladder of the benchmark is the benign case; this census covers the rest.
`random.Random(7)` draws 1,500 instances:

- n = int(10**U(2, 12));
- s = max(1, min(n, int(10**U(0, min(5, log10 n)))));
- k is uniform on [0, s] with probability 0.6, one of 0, 1, s - 1, s with
  probability 0.2, and otherwise int(s f) for f in {0.001, 0.01, 0.99, 0.999};
- delta is one of 1/20, 1/100, 10^-6, 1/2, 99/100.

Both sides of each instance are solved, then eight ladder-shaped upper bounds
at delta = 1/20: (n, s) in (1e6, 1e4), (1e9, 1e5), (1e12, 1e6), (1e12, 1e7)
with k = 0.9 s and k = 100.  The census is 3,008 solves on Stirling.

It prints the mean, p50, p90, p99, max and total of `BoundResult.iterations`,
and how many solves end within two of criterion 8's budget ceil(log2 n) + 2.
It also prints the solves, total and max of the two regimes in REGIMES, where
a secant in m degenerates: an effective k of 1 or s - 1 (next to the
structural zero) and delta > 1/2.
Evaluation counts do not depend on the machine, so the census is a perf
metric free of timing noise.

    PYTHONPATH=src python tests/census.py [--engine direct]
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from fractions import Fraction

from sketchbound import QueryInstance, lower_bound, upper_bound

DELTAS = (Fraction(1, 20), Fraction(1, 100), Fraction(1, 10**6), Fraction(1, 2),
          Fraction(99, 100))
FRACTIONS = (0.001, 0.01, 0.99, 0.999)
LADDER = ((10**6, 10**4), (10**9, 10**5), (10**12, 10**6), (10**12, 10**7))


def draw_k(rng: random.Random, s: int) -> int:
    """The census's mix of k: uniform, an edge, or a fraction near 0 or 1 of s."""
    r = rng.random()
    if r < 0.6:
        return rng.randint(0, s)
    if r < 0.8:
        return rng.choice((0, 1, s - 1, s))
    return int(s * rng.choice(FRACTIONS))


def instances(seed: int = 7, count: int = 1500) -> list[QueryInstance]:
    """The census's random instances; each is solved on both sides."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = int(10 ** rng.uniform(2, 12))
        s = max(1, min(n, int(10 ** rng.uniform(0, min(5, math.log10(n))))))
        out.append(QueryInstance(n, s, draw_k(rng, s), rng.choice(DELTAS)))
    return out


def ladder() -> list[QueryInstance]:
    """The ladder-shaped instances; only their upper bounds are solved."""
    return [QueryInstance(n, s, k, Fraction(1, 20)) for n, s in LADDER for k in (9 * s // 10, 100)]


def budget(n: int) -> int:
    """Criterion 8's evaluation budget for one solve."""
    return math.ceil(math.log2(n)) + 2 if n > 1 else 2


def solves(random_part: list[QueryInstance], ladder_part: list[QueryInstance],
           engine: str = "stirling") -> list[tuple[QueryInstance, str, int]]:
    """(instance, side, iterations) of every solve in the census."""
    out = []
    for inst in random_part:
        out.append((inst, "upper", upper_bound(inst, engine).iterations))
        out.append((inst, "lower", lower_bound(inst, engine).iterations))
    for inst in ladder_part:
        out.append((inst, "upper", upper_bound(inst, engine).iterations))
    return out


def percentile(sorted_counts: list[int], q: float) -> int:
    """The nearest-rank q-quantile of an ascending list."""
    return sorted_counts[max(0, math.ceil(q * len(sorted_counts)) - 1)]


# regimes where a secant in m degenerates, by (instance, side); the effective
# k is k for an upper bound and s - k for a lower one, which solves its dual
REGIMES = {
    "effective k in {1, s - 1}":
        lambda inst, side: (inst.k if side == "upper" else inst.s - inst.k) in (1, inst.s - 1),
    "delta > 1/2": lambda inst, side: 2 * inst.delta > 1,
}


def summary(rows: list[tuple[QueryInstance, str, int]]) -> dict[str, float]:
    counts = sorted(it for _, _, it in rows)
    return {
        "solves": len(counts),
        "mean": sum(counts) / len(counts),
        "p50": percentile(counts, 0.5),
        "p90": percentile(counts, 0.9),
        "p99": percentile(counts, 0.99),
        "max": counts[-1],
        "total": sum(counts),
        "near_budget": sum(it >= budget(inst.n) - 2 for inst, _, it in rows),
        "over_budget": sum(it > budget(inst.n) for inst, _, it in rows),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--engine", choices=("stirling", "direct"), default="stirling")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    rows = solves(instances(), ladder(), args.engine)
    stats = summary(rows)
    print(f"census engine={args.engine}: "
          f"{stats['solves']} solves in {time.perf_counter() - start:.1f} s")
    print(f"evaluations per solve: mean {stats['mean']:.2f}, p50 {stats['p50']}, "
          f"p90 {stats['p90']}, p99 {stats['p99']}, max {stats['max']}, total {stats['total']}")
    print(f"within two of the budget: {stats['near_budget']}, "
          f"over it: {stats['over_budget']}")
    for regime, within in REGIMES.items():
        counts = [it for inst, side, it in rows if within(inst, side)]
        print(f"{regime}: {len(counts)} solves, total {sum(counts)}, max {max(counts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
