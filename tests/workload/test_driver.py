"""Integration tests for the workload driver."""

import pytest

from repro import ClusterConfig, SimCluster
from repro.workload import WorkloadDriver


def make_cluster(seed=61, n_clients=10, n_rows=5000):
    config = ClusterConfig(seed=seed)
    config.workload.n_rows = n_rows
    config.workload.n_clients = n_clients
    config.kv.n_regions = 4
    cluster = SimCluster(config).start()
    cluster.preload()
    cluster.warm_caches()
    return cluster


def test_throttled_run_hits_target():
    cluster = make_cluster()
    result = WorkloadDriver(cluster).run(duration=10.0, target_tps=100.0, warmup=1.0)
    assert 90.0 < result.achieved_tps < 110.0
    assert result.failed == 0
    assert result.latency.count == result.committed
    assert result.latency.mean > 0


def test_closed_loop_exceeds_throttled(
):
    cluster = make_cluster(seed=62)
    throttled = WorkloadDriver(cluster).run(duration=5.0, target_tps=50.0)
    cluster2 = make_cluster(seed=63)
    closed = WorkloadDriver(cluster2).run(duration=5.0, target_tps=None)
    assert closed.achieved_tps > throttled.achieved_tps * 2


def test_timeseries_cover_run():
    cluster = make_cluster(seed=64)
    result = WorkloadDriver(cluster).run(duration=8.0, target_tps=80.0)
    rates = result.throughput_ts.rate_series()
    assert len(rates) >= 7
    assert sum(v for _t, v in rates) > 0


def test_warmup_excluded_from_summary():
    cluster = make_cluster(seed=65)
    result = WorkloadDriver(cluster).run(duration=6.0, target_tps=100.0, warmup=3.0)
    # The summary covers only the post-warmup half of the run.
    assert result.committed < 100.0 * 6.0 * 0.75
    counted = sum(rate for _t, rate in result.throughput_ts.rate_series())
    assert counted * result.throughput_ts.bucket_width > result.committed


def test_multiple_client_machines():
    cluster = make_cluster(seed=66)
    driver = WorkloadDriver(cluster, n_client_nodes=2)
    result = driver.run(duration=5.0, target_tps=60.0)
    assert len(driver.handles) == 2
    assert result.committed > 100


def test_summary_shape():
    cluster = make_cluster(seed=67)
    result = WorkloadDriver(cluster).run(duration=3.0, target_tps=50.0)
    summary = result.summary()
    assert set(summary) == {
        "tps", "committed", "aborted", "failed", "mean_ms", "p95_ms", "p99_ms"
    }


def test_driver_requires_a_client_machine():
    cluster = make_cluster(seed=68)
    with pytest.raises(Exception):
        WorkloadDriver(cluster, n_client_nodes=0)


@pytest.mark.kills_process
def test_a_bug_in_a_driver_thread_fails_the_run():
    """Driver threads are defused, so without the post-run check a bug in
    client code would only make the result quietly short."""
    from repro.errors import SimulationError

    cluster = make_cluster(seed=67, n_clients=2, n_rows=500)
    driver = WorkloadDriver(cluster)
    real = driver._run_ycsb_ops
    calls = []

    def buggy(handle, ctx, ops):
        calls.append(ctx)
        if len(calls) == 5:
            raise AttributeError("'NoneType' object has no attribute 'row'")
        return real(handle, ctx, ops)

    driver._run_ycsb_ops = buggy
    with pytest.raises(SimulationError, match=r"ycsb-thread-\d.*AttributeError"):
        driver.run(duration=2.0, target_tps=20.0)
