"""A wall-clock deadline for tests of calls that once ran without bound."""

import signal
from contextlib import contextmanager

import pytest


class Overtime(BaseException):
    """Raised by the alarm; a BaseException, so that no ``except
    Exception`` in the library can swallow it."""


@contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise Overtime(f"ran past {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except Overtime as exc:
        pytest.fail(str(exc))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
