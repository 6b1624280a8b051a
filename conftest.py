"""Memory hygiene for every pytest run in the repository: the tier-1
suite (``tests/``), the paper-figure benchmarks (``benchmarks/``) and the
standing benchmark's own tests (``bench/``).

A cluster is one large reference cycle, so only a full collection frees a
finished one, and ``Kernel.run`` pauses the collector for the loop where
nearly all allocation happens, so full collections rarely come on their
own: without help a run's peak memory grows with the clusters it has
built.  Each test's leftovers are therefore collected when it ends, and
what collection built (modules, test items) is frozen first, so those
per-test collections scan only what tests made.
"""

import gc

import pytest


def pytest_collection_finish(session):
    gc.collect()
    gc.freeze()


@pytest.fixture(autouse=True)
def _collect_dead_clusters():
    yield
    gc.collect()
