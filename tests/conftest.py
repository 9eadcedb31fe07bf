from collections import Counter
from itertools import chain

ACCEPTANCE_LINES: list[str] = []


def run_engine(expected_cases: dict, *suites):
    """(ok, first-bad detail) over engine records; the grid points, counted
    per label prefix, must be exactly expected_cases, so a shrunken or empty
    grid fails."""
    ok, first_bad, cases = True, "", Counter()
    for check in chain(*suites):
        cases[check.label.split()[0]] += check.cases
        if not check.ok:
            ok = False
            first_bad = first_bad or (check.failures[0] if check.failures else check.label)
    if cases != expected_cases:
        ok = False
        first_bad = first_bad or f"grid {dict(cases)}, expected {expected_cases}"
    return ok, first_bad


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
