"""Empirical check of the bound-failure guarantee.

Draws without-replacement samples from a synthetic population with a known
success count, computes both bounds for each draw, and reports how often
they fail.  Each trial gets its own generator derived by hashing
(seed, trial index), so results are identical however trials are scheduled.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Union

from .model import DomainError, QueryInstance, TailEngine, as_fraction, check_tail_domain
from .solver import lower_bound, upper_bound


@dataclass(frozen=True)
class CoverageReport:
    trials: int
    upper_failures: int
    lower_failures: int
    empirical_upper_rate: float
    empirical_lower_rate: float
    seed: int


def _trial_rng(seed: int, index: int) -> random.Random:
    # hash-derived substream: stable across platforms and schedules
    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def sample_successes(n: int, m: int, s: int, rng: random.Random) -> int:
    """Successes in a uniform without-replacement sample, by sequential draws.

    Each draw succeeds with probability (remaining successes) / (remaining
    items), which is the exact hypergeometric scheme without materializing
    the population.
    """
    check_tail_domain(n, m, s)
    rand = rng.random
    left = m  # successes not yet drawn
    for remaining_n in range(n, n - s, -1):
        if rand() * remaining_n < left:
            left -= 1
    return m - left


def coverage_run(n: int, m: int, s: int, delta, trials: int, seed: int,
                 engine: Union[TailEngine, str] = "auto",
                 digits: int | None = None) -> CoverageReport:
    """Failure rates of both one-sided bounds over repeated sampling.

    A trial fails upward when the true m exceeds the upper bound computed
    from its draw, downward when m falls below the lower bound.  Bounds
    depend on the draw only through k, so they are cached per observed k.
    """
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials}")
    d = as_fraction(delta)
    bounds_for_k: dict[int, tuple[int, int]] = {}
    upper_failures = 0
    lower_failures = 0
    for index in range(trials):
        k = sample_successes(n, m, s, _trial_rng(seed, index))
        cached = bounds_for_k.get(k)
        if cached is None:
            instance = QueryInstance(n, s, k, d)
            cached = (
                upper_bound(instance, engine, digits).m_hat,
                lower_bound(instance, engine, digits).m_hat,
            )
            bounds_for_k[k] = cached
        m_up, m_down = cached
        if m > m_up:
            upper_failures += 1
        if m < m_down:
            lower_failures += 1
    return CoverageReport(
        trials=trials,
        upper_failures=upper_failures,
        lower_failures=lower_failures,
        empirical_upper_rate=upper_failures / trials,
        empirical_lower_rate=lower_failures / trials,
        seed=seed,
    )
