"""Oracle properties over seed-swept mixed workloads with failures.

The oracle's core promise: on a correctly-functioning cluster it stays
silent -- across many seeds, workload mixes, and mid-run server
crash/restart cycles -- and everything it records and reports is a pure
function of the seed (byte-identical across repeat runs).
"""

import pytest

from repro import ClusterConfig, SimCluster
from repro.check import SIChecker
from repro.workload import WorkloadDriver

SEEDS = list(range(300, 320))  # 20 seeds, disjoint from the chaos sweeps


def run_scenario(seed):
    """One compact mixed run: YCSB-A under a crash/restart, oracle on.

    Returns ``(history_json, report)`` so callers can assert cleanliness
    and determinism without re-running.
    """
    config = ClusterConfig(seed=seed)
    config.workload.n_rows = 1000
    config.workload.n_clients = 8
    config.kv.n_regions = 4
    config.kv.n_region_servers = 2
    config.zk.session_timeout = 1.0
    config.zk.tick_interval = 0.2
    config.recovery.client_heartbeat_interval = 0.5
    config.recovery.server_heartbeat_interval = 0.5
    cluster = SimCluster(config).start()
    cluster.preload()
    cluster.warm_caches()

    recorder = cluster.attach_history_recorder()
    monitor = cluster.attach_invariant_monitor(interval=0.25)

    # Vary the failure mode by seed so the sweep covers crash-only,
    # crash+restart, and calm runs rather than one scripted timeline.
    victim = seed % 2
    cluster.after(2.0, lambda: cluster.crash_server(victim))
    if seed % 3 != 0:
        def bring_back():
            rs = cluster.servers[victim]
            cluster.datanodes[victim].revive()

            def bring_up():
                # Wait until the master observed the death, or the
                # re-registration masks it and failover never runs.
                while rs.addr in cluster.master._live_servers:
                    yield cluster.kernel.timeout(0.25)
                yield from rs.restart()

            cluster.kernel.process(bring_up(), name="bring-up").defuse()
        cluster.after(5.0, bring_back)

    driver = WorkloadDriver(cluster, mix="A" if seed % 2 else "paper")
    driver.run(duration=8.0, target_tps=150.0)
    # Let recovery, replay, and post-commit flushes settle before judging.
    cluster.run_until(cluster.kernel.now + 12.0)

    report = SIChecker(recorder.events).check()
    return recorder.to_json(seed=seed), report, monitor


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_workload_with_failures_yields_clean_history(seed):
    _history, report, monitor = run_scenario(seed)
    assert report.ok, "\n".join(str(a) for a in report.anomalies)
    assert monitor.ok, monitor.violations
    # The run must have exercised the oracle, not vacuously passed.
    assert report.counters["committed"] > 0
    assert report.counters["reads_checked"] > 0
    assert monitor.samples > 0


def test_same_seed_history_and_report_are_byte_identical():
    seed = SEEDS[0]
    history1, report1, _ = run_scenario(seed)
    history2, report2, _ = run_scenario(seed)
    assert history1 == history2
    assert report1.to_json() == report2.to_json()
