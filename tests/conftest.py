"""Shared reporting plumbing for the acceptance suite, and a cold atomic
response cache for every test.

Each acceptance criterion records exactly one PASS/FAIL line; the
lines are replayed after the run in a dedicated terminal section so
they stay visible regardless of output capturing.
"""

import pytest

from twinbeam import atomic

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_report():
    return _ACCEPTANCE_LINES.append


@pytest.fixture(autouse=True)
def _cold_response_cache():
    """Start every test without cached media, so that counts of generator
    builds and state solves do not depend on the tests run before."""
    atomic._medium_response.cache_clear()


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
