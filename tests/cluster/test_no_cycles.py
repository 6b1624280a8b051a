"""The simulator's hot path makes no reference cycles.

The kernel loop runs with the cyclic collector paused
(``Kernel.run``), so everything the loop discards must be freed by
reference counting alone.  This runs a small failure-free workload --
sessions on several clients reading, writing, committing and flushing --
with ``gc.DEBUG_SAVEALL``, which keeps whatever the collector had to
free in ``gc.garbage``.  See docs/SIMULATION.md, "Where host time goes:
the collector".
"""

import gc
from collections import Counter

from repro import ClusterConfig, SimCluster, TABLE
from repro.kvstore.keys import row_key

CLIENTS, TXNS, ROWS = 3, 8, 200


def session(cluster, handle, first):
    """``TXNS`` read-modify-write transactions on this session's own 50 rows."""
    committed = 0
    for n in range(TXNS):
        ctx = yield from handle.txn.begin()
        for i in range(3):
            row = row_key(first + (7 * n + 31 * i) % 50)
            value = yield from handle.txn.read(ctx, TABLE, row)
            handle.txn.write(ctx, TABLE, row, f"{value}+{handle.node.addr}")
        yield from handle.txn.commit(ctx, wait_flush=n % 2 == 0)
        committed += 1
        yield cluster.kernel.timeout(0.002)
    return committed


def test_a_failure_free_workload_leaves_no_cyclic_garbage():
    config = ClusterConfig(seed=3)
    config.workload.n_rows = ROWS
    cluster = SimCluster(config).start()
    cluster.preload()
    cluster.warm_caches()
    handles = [cluster.add_client(f"c{i}") for i in range(CLIENTS)]
    cluster.run_until(cluster.kernel.now + 1.0)  # client sessions settle

    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        sessions = [h.node.spawn(session(cluster, h, 50 * i), name="session")
                    for i, h in enumerate(handles)]
        # Well past the sessions' end: their last flushes and syncs land.
        cluster.run_until(cluster.kernel.now + 5.0)
        assert [s.value for s in sessions] == [TXNS] * CLIENTS
        del sessions
        gc.collect()
        garbage = Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == Counter()
