"""Shared pytest plumbing: the scipy-oracle mark and the acceptance checklist summary."""

import pytest

try:
    import scipy  # noqa: F401
except ImportError:
    HAVE_SCIPY = False
else:
    HAVE_SCIPY = True

#: Marks a test whose oracle is scipy, a test-only dependency.  The mark is
#: decided at collection, so a hypothesis test is skipped before it draws;
#: every unmarked test runs on the numpy-only runtime.
needs_scipy = pytest.mark.skipif(not HAVE_SCIPY, reason="needs scipy, the test's oracle")

_checklist: list[str] = []


def record_checklist(line: str) -> None:
    """Queue one acceptance line for the end-of-run summary."""
    _checklist.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _checklist:
        terminalreporter.section("acceptance checklist")
        for line in _checklist:
            terminalreporter.write_line(line)
