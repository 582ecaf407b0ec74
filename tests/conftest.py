"""Shared fixtures for the tier-1 suite."""
import signal

import pytest


class DeadlineExceeded(Exception):
    """A test ran past its deadline; raised from SIGALRM."""


@pytest.fixture
def deadline():
    """Fail the test after 3 s of wall time instead of letting it hang."""
    def expire(signum, frame):
        raise DeadlineExceeded("test ran past its 3 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 3.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
