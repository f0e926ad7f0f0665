"""A per-test time limit, so that a test caught in an endless loop fails
instead of hanging the run.  It uses ``SIGALRM`` and does nothing where that
signal does not exist."""

import signal

import pytest

LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """Not an ``Exception``: Hypothesis would catch one and replay the
    example to shrink it, hanging again with no alarm armed."""


@pytest.fixture(autouse=True)
def _time_limit(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{request.node.nodeid} ran past its {LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
