"""Empirical check of the bound-failure guarantee.

Draws without-replacement samples from a synthetic population with a known
success count and reports how often each one-sided bound fails.  A trial's
draw is the u-quantile of hypergeometric(n, m, s), u the top 53 bits of a
blake2b hash of (seed, trial index), so results do not depend on
scheduling.  Quantiles are bisected in a CDF table per (n, m, s), summed
from exact.run's integer terms and divided into floats once.  By
log-concavity each side stops at the first term t, reached by ratio r, where
t/(1-r), a bound on the mass it drops, is below 2^-60 of the mode term.

Bounds depend on a draw only through k, and a larger k has a larger left tail
at every m, so U(k) and L(k) = n - U(s - k) are nondecreasing in k: each side's
failures lie on one side of a threshold in k, bisected over the observed k.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, Union

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


def _trial_uniforms(seed: int, trials: int) -> Iterator[float]:
    # trial i's digest is blake2b(f"{seed}:{i}"), continued from a copy of the seed's state
    prefix = hashlib.blake2b(f"{seed}:".encode(), digest_size=8)
    for index in range(trials):
        h = prefix.copy()
        h.update(b"%d" % index)
        yield (int.from_bytes(h.digest(), "big") >> 11) * 2.0 ** -53


@lru_cache(maxsize=16)
def _cdf_table(n: int, m: int, s: int) -> tuple[int, tuple[float, ...]]:
    """(first index, CDF) of hypergeometric(n, m, s); O(sd) floats, about 18k at the flagship."""
    check_tail_domain(n, m, s)
    lo, hi = support(n, m, s)
    mode = (s + 1) * (m + 1) // (n + 2)
    # the mode's term is one, cut at 2^-60 of it, with 2 bitlen(s) guard bits for the
    # floors; a step down in K is a step up in s - K, hypergeometric(n, n - m, s)
    one = 1 << (64 + 2 * s.bit_length())
    up = run(n, m, s, mode, hi, one, one >> 60)
    down = run(n, n - m, s, s - mode, s - lo, one, one >> 60)
    cdf = list(accumulate(down[::-1] + [one] + up))
    return mode - len(down), tuple(c / cdf[-1] for c in cdf)


def sample_successes(n: int, m: int, s: int, u: float) -> int:
    """The u-quantile of hypergeometric(n, m, s), for u in [0, 1).

    With u uniform this is the success count of a uniform without-replacement
    sample of s from n items of which m are successes.
    """
    first, cdf = _cdf_table(n, m, s)
    return first + min(bisect_right(cdf, u), len(cdf) - 1)


def coverage_run(n: int, m: int, s: int, delta, trials: int, seed: int,
                 engine: Union[TailEngine, str] = "auto") -> CoverageReport:
    """Failure rates of both one-sided bounds over repeated sampling.

    A trial fails upward when the true m exceeds the upper bound computed
    from its draw, downward when m falls below the lower bound.  Both bounds
    are nondecreasing in k, so each side solves only at a bisection's k, at
    the digit count the bound itself chooses.
    """
    n, m, s = as_count("n", n), as_count("m", m), as_count("s", s)
    trials = as_count("trials", trials)
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials}")
    d = QueryInstance(n, s, 0, delta).delta  # checks n, s and delta before any draw
    draws = Counter(sample_successes(n, m, s, u) for u in _trial_uniforms(seed, trials))
    observed = sorted(draws)
    # first observed k whose upper bound reaches m, first whose lower bound exceeds it
    up = bisect_left(observed, True, key=lambda k: (
        upper_bound(QueryInstance(n, s, k, d), engine).m_hat >= m))
    down = bisect_left(observed, True, key=lambda k: (
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
