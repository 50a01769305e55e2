"""Shared test plumbing: a repeatable hypothesis profile, an mpmath tail
reference for the floating engines, and a per-criterion summary for the
acceptance suite."""

import pytest
from hypothesis import settings

# Same examples on every run; no per-example deadline on a loaded machine.
settings.register_profile("sketchbound", derandomize=True, deadline=None)
settings.load_profile("sketchbound")



@pytest.fixture
def mp_left_tail():
    """P(K <= k) in mpmath: a log-gamma anchor and the exact ratio walk."""
    mpmath = pytest.importorskip("mpmath")

    def tail(n: int, m: int, s: int, k: int, digits: int):
        lo, hi = max(0, s - (n - m)), min(s, m)
        with mpmath.workdps(digits):
            if k < lo:
                return mpmath.mpf(0)
            if k >= hi:
                return mpmath.mpf(1)
            j0 = max(lo, min(k, (s + 1) * (m + 1) // (n + 2)))
            lg = mpmath.loggamma
            p0 = mpmath.exp(lg(m + 1) - lg(j0 + 1) - lg(m - j0 + 1)
                            + lg(n - m + 1) - lg(s - j0 + 1) - lg(n - m - s + j0 + 1)
                            - lg(n + 1) + lg(s + 1) + lg(n - s + 1))
            eps = mpmath.mpf(10) ** -digits
            total = p0
            t, j = p0, j0
            while j > lo and t > eps:
                t = t * (j * (n - m - s + j)) / ((m - j + 1) * (s - j + 1))
                total += t
                j -= 1
            t, j = p0, j0
            while j < k and t > eps:
                t = t * ((m - j) * (s - j)) / ((j + 1) * (n - m - s + j + 1))
                total += t
                j += 1
            return total

    return tail


_acceptance_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "acceptance" not in getattr(report, "keywords", {}):
        return
    if report.when == "call":
        _acceptance_outcomes[report.nodeid] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup":
        if report.skipped:
            _acceptance_outcomes[report.nodeid] = "SKIP"
        elif report.failed:
            _acceptance_outcomes[report.nodeid] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_acceptance_outcomes):
        name = nodeid.split("::")[-1]
        terminalreporter.write_line(f"{_acceptance_outcomes[nodeid]:<5} {name}")
