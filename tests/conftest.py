"""Shared pytest plumbing: the scipy-oracle mark, the acceptance checklist
summary and the sampled phase unwrap that oracles the closed-form phases."""

import numpy as np
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


def unwrapped_phase(curve):
    """Continuously unwrapped probe and signal phases along a sampled curve.

    The terminal entries give the accumulated phase shift, which tells +pi
    from -pi endpoints apart where the principal value cannot: the sampled
    oracle of `accumulated_phase`.
    """
    return np.unwrap(np.angle(curve.probe_ratio)), np.unwrap(np.angle(curve.signal_ratio))


_checklist: list[str] = []


def record_checklist(line: str) -> None:
    """Queue one acceptance line for the end-of-run summary."""
    _checklist.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _checklist:
        terminalreporter.section("acceptance checklist")
        for line in _checklist:
            terminalreporter.write_line(line)
