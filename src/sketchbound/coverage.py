"""Empirical check of the bound-failure guarantee.

Draws without-replacement samples from a synthetic population with a known
success count and reports how often each one-sided bound fails.  Trial i's
draw is the u-quantile of hypergeometric(n, m, s), u the top 53 bits of the
i-th big-endian 64-bit word of the SHAKE-256 stream of f"{seed}:", so results
do not depend on scheduling and a run of N trials is the first N of any longer
run; seed and trials are checked as integers.  Quantiles come from a table
per (n, m, s): exact.run's integer terms, summed exactly to S_i up to entry i
and S in all, give the CDF S_i / S, kept only as the integer cuts
ceil(2^53 S_i / S) 2^11.  A word's uniform is below S_i / S exactly when the
word is below its cut, so a run's words are counted by one bisection of the
cuts each, never converted or sorted.  By log-concavity each side of the
table stops at the first term t, reached by ratio r, where t/(1-r), a bound
on the mass it drops, is below 2^-60 of the mode term.

Bounds depend on a draw only through k, and a larger k has a larger left tail
at every m, so U(k) and L(k) = n - U(s - k) are nondecreasing in k: each side's
failures lie on one side of a threshold in k.  The table predicts each
threshold and bound solves at the observed k confirm it, two per side when the
prediction is right; the counts rest on the solves alone.
"""

from __future__ import annotations

import hashlib
import struct
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate
from typing import Callable, Iterable, Union

from .exact import run
from .model import (DomainError, QueryInstance, TailEngine, as_count, check_tail_domain,
                    support)
from .solver import lower_bound, upper_bound


@dataclass(frozen=True, slots=True)
class CoverageReport:
    trials: int
    upper_failures: int
    lower_failures: int
    empirical_upper_rate: float
    empirical_lower_rate: float
    seed: int


def _trial_words(seed: int, trials: int) -> tuple[int, ...]:
    stream = hashlib.shake_256(f"{seed}:".encode()).digest(8 * trials)
    return struct.unpack(f">{trials}Q", stream)


@lru_cache(maxsize=16)
def _cdf_table(n: int, m: int, s: int) -> tuple[int, tuple[int, ...]]:
    """(first index, word cuts) of hypergeometric(n, m, s); O(sd) entries, about 18k
    at the flagship."""
    check_tail_domain(n, m, s)
    lo, hi = support(n, m, s)
    mode = (s + 1) * (m + 1) // (n + 2)
    # the mode's term is one, cut at 2^-60 of it, with 2 bitlen(s) guard bits for the
    # floors; a step down in K is a step up in s - K, hypergeometric(n, n - m, s)
    one = 1 << (64 + 2 * s.bit_length())
    up = run(n, m, s, mode, hi, one, one >> 60)
    down = run(n, n - m, s, s - mode, s - lo, one, one >> 60)
    sums = list(accumulate(down[::-1] + [one] + up))
    cuts = tuple(-((-c << 53) // sums[-1]) << 11 for c in sums)
    return mode - len(down), cuts


def sample_successes(n: int, m: int, s: int, words: Iterable[int]) -> Counter[int]:
    """Counts of the quantiles of hypergeometric(n, m, s) at each 64-bit word's uniform.

    Word w stands for u = (w >> 11) 2^-53 in [0, 1); with u uniform a quantile
    is the success count of a uniform without-replacement sample of s from n
    items of which m are successes.  K <= first + i exactly when u is below
    the table's i-th CDF entry, that is when w < cuts[i], so a word's quantile
    is first plus the number of cuts at or below it: one bisection of the
    integer cuts per word.
    """
    first, cuts = _cdf_table(n, m, s)
    counts = Counter(map(partial(bisect_right, cuts), words))
    return Counter({first + i: count for i, count in counts.items()})


def _first_holding(observed: list[int], guess: int, holds: Callable[[int], bool]) -> int:
    """Index of the first k in `observed` at which `holds`, false then true along it.

    Solves first at the observed k at `guess`, then at the one just below it,
    and bisects only what those two leave; only a solve's result moves the bracket.
    """
    lo, hi = 0, len(observed)
    i = bisect_left(observed, guess)
    for j in (i, i - 1):  # each only while it is still inside the bracket
        if lo <= j < hi:
            if holds(observed[j]):
                hi = j
            else:
                lo = j + 1
    return bisect_left(observed, True, lo, hi, key=holds)


def coverage_run(n: int, m: int, s: int, delta, trials: int, seed: int,
                 engine: Union[TailEngine, str] = "auto") -> CoverageReport:
    """Failure rates of both one-sided bounds over repeated sampling.

    A trial fails upward when the true m exceeds the upper bound computed
    from its draw, downward when m falls below the lower bound.  Both bounds
    are nondecreasing in k, so each side's failures lie below or from a
    threshold in k, which the CDF table predicts: U(k) >= m about when
    P(K <= k) >= delta, and L(k) > m about when P(K >= k) < delta.  Each side
    solves at the observed k at its prediction and just below it, and bisects
    only what those leave open; the prediction picks where to solve, never a
    count.  Every bound is solved at the digit count it chooses itself.
    """
    n, m, s = as_count("n", n), as_count("m", m), as_count("s", s)
    trials, seed = as_count("trials", trials), as_count("seed", seed)
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials}")
    d = QueryInstance(n, s, 0, delta).delta  # checks n, s and delta before any draw
    draws = sample_successes(n, m, s, _trial_words(seed, trials))
    observed = sorted(draws)
    first, cuts = _cdf_table(n, m, s)
    # first observed k whose upper bound reaches m, first whose lower bound exceeds it
    up = _first_holding(observed, first + bisect_left(cuts, d * 2**64), lambda k: (
        upper_bound(QueryInstance(n, s, k, d), engine).m_hat >= m))
    down = _first_holding(observed, first + 1 + bisect_right(cuts, (1 - d) * 2**64), lambda k: (
        lower_bound(QueryInstance(n, s, k, d), engine).m_hat > m))
    upper_failures = sum(draws[k] for k in observed[:up])
    lower_failures = sum(draws[k] for k in observed[down:])
    return CoverageReport(
        trials=trials,
        upper_failures=upper_failures,
        lower_failures=lower_failures,
        empirical_upper_rate=upper_failures / trials,
        empirical_lower_rate=lower_failures / trials,
        seed=seed,
    )
