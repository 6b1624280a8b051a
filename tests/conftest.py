"""Suite-wide memory hygiene.

A cluster is one large reference cycle, so only a full collection frees a
finished one, and ``Kernel.run`` pauses the collector for the loop where
nearly all allocation happens, so full collections rarely come on their
own: without help the suite's peak memory grows with the clusters it has
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
