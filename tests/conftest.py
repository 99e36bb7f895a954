import signal
from contextlib import contextmanager
from pathlib import Path

import pytest

from trifix.numtheory import build_spf

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def no_cache_dir_from_the_caller(monkeypatch):
    """Every test starts without $TRIFIX_CACHE_DIR, so a `sweep` without
    --cache neither reads nor writes the caller's own cache; a test that
    wants the variable sets it with monkeypatch."""
    monkeypatch.delenv("TRIFIX_CACHE_DIR", raising=False)


@pytest.fixture(scope="session")
def spf_10k():
    return build_spf(10_000)


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


@pytest.fixture
def time_limit():
    """``with time_limit(seconds):`` raises TimeoutError inside the block
    once it has run that long (SIGALRM, so POSIX and the main thread only)."""

    @contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
