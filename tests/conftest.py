import signal
from contextlib import contextmanager

import pytest

from convdom import (
    make_A1,
    make_Bn,
    make_complete,
    make_cycle,
    make_path,
    make_star,
    random_chordal,
    random_connected,
    random_interval,
    random_split,
)


@contextmanager
def time_limit(seconds):
    """Fail the test once the block has run for ``seconds`` of wall time, so
    a regression that would run for hours fails instead of hanging.

    The failure is pytest's own outcome exception, a BaseException, so no
    ``except OSError`` or ``except Exception`` in the code under test can
    swallow it (TimeoutError would be caught as an OSError).
    """

    def expire(signum, frame):
        pytest.fail(f"time limit of {seconds} s exceeded", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def named_fixture_graphs():
    """The shared fixture corpus: classic families plus seeded random graphs."""
    graphs = []
    for n in range(1, 10):
        graphs.append((f"P{n}", make_path(n)))
    for n in range(3, 10):
        graphs.append((f"C{n}", make_cycle(n)))
    for n in range(2, 9):
        graphs.append((f"star{n}", make_star(n)))
    for n in range(2, 7):
        graphs.append((f"K{n}", make_complete(n)))
    graphs.append(("A1", make_A1()))
    for idx in range(1, 5):
        graphs.append((f"B{idx}", make_Bn(idx)))
    for seed in range(6):
        n = 5 + seed % 5
        graphs.append((f"chordal{seed}", random_chordal(n, seed * 7 + 1, 0.5)))
        graphs.append((f"interval{seed}", random_interval(n, seed * 11 + 3)))
        graphs.append((f"split{seed}", random_split(n, seed * 13 + 5, 0.4)))
        graphs.append((f"conn{seed}", random_connected(n, seed * 17 + 9, 0.35)))
    return graphs


@pytest.fixture(scope="session")
def corpus():
    return named_fixture_graphs()


@pytest.fixture(scope="session")
def connected_corpus(corpus):
    return [(name, g) for name, g in corpus if g.is_connected()]
