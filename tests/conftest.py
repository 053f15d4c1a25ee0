"""Shared test setup: a bound on every test's wall time."""

import faulthandler
import os

import pytest

# Far above the slowest test (a few seconds), so only a loop reaches it.
HANG_SECONDS = 120
STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    """Keep a copy of the terminal's stderr for the hang guard. Capture is
    off while pytest configures; during a test fd 2 is pytest's capture
    file, whose contents are lost when the guard exits the process."""
    config.stash[STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[STDERR])


@pytest.fixture(autouse=True)
def hang_guard(pytestconfig):
    """End the run if one test takes HANG_SECONDS: faulthandler writes every
    thread's traceback, which names the test, and exits, so a looping
    regression fails tier-1 instead of stalling it."""
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True, file=pytestconfig.stash[STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
