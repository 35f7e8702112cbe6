"""Hypothesis profiles and the pool fixtures for the whole suite.

By default every run draws the same examples (``derandomize``, with no
example database), so a run's verdict depends on the code alone and
each test keeps its own ``max_examples``. ``HYPOTHESIS_PROFILE=explore``
draws fresh examples on each run, to look for failures the fixed draws
miss.
"""

import os

import pytest
from hypothesis import settings

from vstain import autograd as ag

settings.register_profile("fixed", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fixed"))


@pytest.fixture
def use_pool(monkeypatch):
    """install(**settings) makes autograd.Pool(**settings) the pool in use
    and returns it. A default pool, not started, is in use when the test
    begins; the threads of every pool the test installed are shut down
    after it, and the pool in use before the test is back."""
    pools = []

    def install(**settings):
        pools.append(ag.Pool(**settings))
        monkeypatch.setattr(ag, "pool", pools[-1])
        return pools[-1]

    install()
    yield install
    for pool in pools:
        if pool.executor is not None:
            pool.executor.shutdown()


@pytest.fixture
def split_pieces(monkeypatch):
    """(name, ranges) for each later autograd.split_rows call, in call
    order: the piece function's qualified name and the sorted (lo, hi)
    ranges that split_rows handed it."""
    calls, split_rows = [], ag.split_rows

    def recording(piece_fn, rows, work, small=False):
        ranges = []
        calls.append((piece_fn.__qualname__, ranges))

        def piece(lo, hi):
            ranges.append((lo, hi))
            piece_fn(lo, hi)

        split_rows(piece, rows, work, small)
        ranges.sort()

    monkeypatch.setattr(ag, "split_rows", recording)
    return calls
