"""Shared test plumbing: a repeatable hypothesis profile and a per-criterion
summary for the acceptance suite."""

from hypothesis import settings

# Same examples on every run; no per-example deadline on a loaded machine.
settings.register_profile("sketchbound", derandomize=True, deadline=None)
settings.load_profile("sketchbound")

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
