"""Memory hygiene and process-bug checks for every pytest run in the
repository: the tier-1 suite (``tests/``), the paper-figure benchmarks
(``benchmarks/``) and the standing benchmark's own tests (``bench/``).

A cluster is one large reference cycle, so only a full collection frees a
finished one, and ``Kernel.run`` pauses the collector for the loop where
nearly all allocation happens, so full collections rarely come on their
own: without help a run's peak memory grows with the clusters it has
built.  Each test's leftovers are therefore collected when it ends, and
what collection built (modules, test items) is frozen first, so those
per-test collections scan only what tests made.

A process that a test or the code under test defuses can die of a plain
bug and leave only a quietly shorter run.  So every ``Kernel`` a test
builds is recorded, and when the test ends each one's
``raise_for_bugs()`` fails it if a process died of anything but a
``ReproError``.  A test that kills a process that way on purpose says so
with ``@pytest.mark.kills_process``.
"""

import functools
import gc
import os
import sys
import weakref

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "src"))

from repro.sim.kernel import Kernel  # noqa: E402

pytest_plugins = ("pytester",)

#: ``(kernel, its dead_processes)`` for each Kernel the running test built.
#: A recorded death holds its process and so its kernel, so the weak
#: reference is alive whenever there is something to check.
_built = []


def _recording(init):
    @functools.wraps(init)
    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        _built.append((weakref.ref(self), self.dead_processes))
    return __init__


Kernel.__init__ = _recording(Kernel.__init__)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "kills_process: the test makes a simulated process die of a bug on "
        "purpose, so its kernels' raise_for_bugs() is not called at teardown",
    )


def pytest_collection_finish(session):
    gc.collect()
    gc.freeze()


@pytest.fixture(autouse=True)
def _collect_dead_clusters():
    yield
    gc.collect()


@pytest.fixture(autouse=True)
def _no_silent_process_bug(request, _collect_dead_clusters):
    del _built[:]
    yield
    built = _built[:]
    del _built[:]
    if request.node.get_closest_marker("kills_process") is None:
        for kernel, dead in built:
            if dead:
                kernel().raise_for_bugs()
