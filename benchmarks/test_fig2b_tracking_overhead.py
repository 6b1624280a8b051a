"""Figure 2(b): transaction-tracking overhead vs heartbeat interval.

The recovery middleware's only steady-state cost is the tracking work:
synchronized queues updated on every commit/flush and drained on every
heartbeat, plus the recovery manager's processing of the heartbeat stream
(on the CPU it shares with the TM).  Very short intervals pay the fixed
per-heartbeat cost too often (contention); very long intervals drain huge
queues in one lock-holding burst (latency spikes).  The paper finds a good
interval by trial and error between 50 ms and 10 s; this sweep reproduces
the shape: both throughput and response time are best at an intermediate
interval and degrade toward both ends.

The sweep runs closed-loop (50 threads at full speed), so capacity stolen
by tracking shows up directly as lost throughput; each point averages two
seeds to stay above the simulation's run-to-run variation.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _harness import PAPER, STEADY_RUN, WARMUP, base_config, build_cluster
from repro.metrics import format_table
from repro.workload import WorkloadDriver

INTERVALS = [0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0]
SEEDS = (901, 902)
MIDDLE = (0.25, 0.5, 1.0, 2.0)


def run_interval(interval: float):
    tps = mean_ms = p99_ms = 0.0
    for seed in SEEDS:
        config = base_config(seed=seed)
        config.recovery.client_heartbeat_interval = interval
        config.recovery.server_heartbeat_interval = interval
        cluster = build_cluster(config)
        duration = max(STEADY_RUN, interval * 3)
        driver = WorkloadDriver(cluster)
        result = driver.run(duration=duration, target_tps=None, warmup=WARMUP)
        tps += result.achieved_tps
        latency = result.latency.summary()
        mean_ms += latency["mean"] * 1000
        p99_ms += latency["p99"] * 1000
    n = len(SEEDS)
    return {
        "interval": interval,
        "tps": tps / n,
        "mean_ms": mean_ms / n,
        "p99_ms": p99_ms / n,
    }


def run_fig2b():
    return [run_interval(interval) for interval in INTERVALS]


def test_fig2b_heartbeat_interval_sweep(benchmark):
    points = benchmark.pedantic(run_fig2b, rounds=1, iterations=1)

    from _harness import emit

    emit("fig2b", format_table(
        ["interval (s)", "tps", "mean (ms)", "p99 (ms)"],
        [(p["interval"], f"{p['tps']:.1f}", f"{p['mean_ms']:.2f}",
          f"{p['p99_ms']:.2f}") for p in points],
        title="Figure 2(b): throughput and response time vs heartbeat "
              "interval (50 threads, 2 servers, closed loop, "
              f"{'paper' if PAPER else 'small'} scale, "
              f"{len(SEEDS)} seeds/point)",
    ))

    by_interval = {p["interval"]: p for p in points}
    shortest = by_interval[INTERVALS[0]]
    longest = by_interval[INTERVALS[-1]]
    middle = [by_interval[i] for i in MIDDLE]
    best_mid_tps = max(p["tps"] for p in middle)
    best_mid_mean = min(p["mean_ms"] for p in middle)
    best_mid_p99 = min(p["p99_ms"] for p in middle)

    # A sweet spot exists: both extremes do worse than the middle.
    assert shortest["tps"] < best_mid_tps, (
        f"50 ms heartbeats ({shortest['tps']:.1f} tps) should cost "
        f"throughput vs the sweet spot ({best_mid_tps:.1f} tps)"
    )
    assert longest["tps"] < best_mid_tps
    assert shortest["mean_ms"] > best_mid_mean, (
        "per-heartbeat contention should raise response time at 50 ms"
    )
    assert longest["p99_ms"] > best_mid_p99, (
        "bulk queue drains should raise tail latency at 10 s"
    )
