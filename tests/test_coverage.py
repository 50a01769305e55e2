"""Coverage simulator: sampling exactness, reproducibility, failure rates."""

import math
import random

import pytest

from sketchbound import DomainError, coverage_run, pmf_exact
from sketchbound.coverage import _trial_rng, sample_successes

# chi-square 0.999 quantiles by degrees of freedom, from standard tables
CHI2_999 = {4: 18.467, 5: 20.515, 6: 22.458, 7: 24.322, 8: 26.125, 9: 27.877, 10: 29.588}


def test_sample_degenerate_populations():
    rng = random.Random(1)
    assert sample_successes(50, 50, 12, rng) == 12
    assert sample_successes(50, 0, 12, rng) == 0
    assert sample_successes(1, 1, 1, rng) == 1


def test_sample_rejects_bad_domains():
    rng = random.Random(1)
    with pytest.raises(DomainError):
        sample_successes(10, 11, 4, rng)
    with pytest.raises(DomainError):
        sample_successes(10, 5, 0, rng)


def test_sample_mean_matches_hypergeometric():
    n, m, s, trials = 100, 30, 20, 100_000
    total = sum(sample_successes(n, m, s, _trial_rng(99, t)) for t in range(trials))
    mean = total / trials
    # Var(K) = s m/n (1-m/n) (n-s)/(n-1); three sigma of the trial mean
    var = s * (m / n) * (1 - m / n) * (n - s) / (n - 1)
    slack = 3 * math.sqrt(var / trials)
    assert abs(mean - s * m / n) <= slack


def test_sample_distribution_chi_square():
    n, m, s, trials = 40, 15, 10, 100_000
    counts = [0] * (s + 1)
    for t in range(trials):
        counts[sample_successes(n, m, s, _trial_rng(7, t))] += 1
    expected = [float(pmf_exact(n, m, s, j)) * trials for j in range(s + 1)]
    # merge sparse cells into their inner neighbor so every expected count >= 5
    bins: list[tuple[float, float]] = []
    acc_o, acc_e = 0.0, 0.0
    for j in range(s + 1):
        acc_o += counts[j]
        acc_e += expected[j]
        if acc_e >= 5:
            bins.append((acc_o, acc_e))
            acc_o, acc_e = 0.0, 0.0
    if acc_e > 0:
        o, e = bins.pop()
        bins.append((o + acc_o, e + acc_e))
    stat = sum((o - e) ** 2 / e for o, e in bins)
    dof = len(bins) - 1
    assert dof in CHI2_999, f"unexpected binning, dof={dof}"
    assert stat < CHI2_999[dof], f"chi2={stat:.2f} at dof={dof}"


def test_reports_are_reproducible():
    a = coverage_run(300, 90, 40, 0.1, trials=500, seed=42)
    b = coverage_run(300, 90, 40, 0.1, trials=500, seed=42)
    assert a == b
    c = coverage_run(300, 90, 40, 0.1, trials=500, seed=43)
    assert (a.upper_failures, a.lower_failures) != (c.upper_failures, c.lower_failures)


def test_single_trial_rates_are_binary():
    r = coverage_run(100, 40, 10, 0.2, trials=1, seed=5)
    assert r.empirical_upper_rate in (0.0, 1.0)
    assert r.empirical_lower_rate in (0.0, 1.0)
    assert r.trials == 1


def test_zero_trials_rejected():
    with pytest.raises(DomainError):
        coverage_run(100, 40, 10, 0.2, trials=0, seed=5)


def test_failure_rates_within_budget():
    delta, trials = 0.1, 2000
    r = coverage_run(300, 90, 40, delta, trials=trials, seed=1)
    slack = 3 * math.sqrt(delta * (1 - delta) / trials)
    assert r.empirical_upper_rate <= delta + slack
    assert r.empirical_lower_rate <= delta + slack
    assert r.upper_failures == round(r.empirical_upper_rate * trials)


def test_extreme_delta_still_guaranteed():
    delta, trials = 0.999, 400
    r = coverage_run(60, 20, 10, delta, trials=trials, seed=3)
    slack = 3 * math.sqrt(delta * (1 - delta) / trials)
    assert r.empirical_upper_rate <= delta + slack
    assert r.empirical_lower_rate <= delta + slack


def test_report_counts_consistent():
    r = coverage_run(200, 77, 30, 0.05, trials=300, seed=11)
    assert 0 <= r.upper_failures <= r.trials
    assert 0 <= r.lower_failures <= r.trials
    assert r.empirical_upper_rate == r.upper_failures / r.trials
    assert r.empirical_lower_rate == r.lower_failures / r.trials
    assert r.seed == 11
