"""Ablation: group commit of the TM's recovery log.

Section 4.1 notes the logging sub-component "supports group commit".  The
committer holds no window: it syncs as soon as the log device is free, and
one sync covers everything that queued during the previous one.  This bench
sweeps offered load with groups capped at one commit (a sync per commit)
and at the default 128, and reports throughput, commit latency and log
syncs per commit: group size follows load, so grouping keeps up with an
offered load that a sync per commit cannot serve.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _harness import STEADY_RUN, base_config, build_cluster, emit
from repro.metrics import format_table
from repro.workload import WorkloadDriver

LOADS = [100.0, 250.0, 500.0]
GROUP_MAX = [1, 128]


def run_point(tps: float, group_max: int, seed: int = 800):
    config = base_config(seed=seed)
    config.txn.group_commit_max = group_max
    cluster = build_cluster(config)
    result = WorkloadDriver(cluster).run(duration=STEADY_RUN, target_tps=tps)
    log_stats = cluster.tm.log.stats
    return {
        "offered": tps,
        "group_max": group_max,
        "tps": result.achieved_tps,
        "mean_ms": result.latency.mean * 1000,
        "mean_group": log_stats.mean_group_size,
        "syncs_per_commit": log_stats.syncs / max(log_stats.appended, 1),
    }


def run_ablation():
    return [run_point(tps, m) for tps in LOADS for m in GROUP_MAX]


def test_group_commit_tracks_load(benchmark):
    points = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    emit("ablation_group_commit", format_table(
        ["offered tps", "group max", "tps", "mean rt (ms)", "mean group",
         "syncs/commit"],
        [(f"{p['offered']:.0f}", p["group_max"], f"{p['tps']:.0f}",
          f"{p['mean_ms']:.2f}", f"{p['mean_group']:.2f}",
          f"{p['syncs_per_commit']:.3f}")
         for p in points],
        title="Ablation: TM recovery-log group commit vs one sync per commit",
    ))
    at = {(p["offered"], p["group_max"]): p for p in points}
    grouped = [at[(tps, 128)] for tps in LOADS]
    # Group size follows load: no timer, just what queued during a sync...
    assert grouped[0]["mean_group"] < grouped[1]["mean_group"] < grouped[2]["mean_group"]
    assert grouped[-1]["syncs_per_commit"] < 0.8
    # ...so grouping tracks every offered load at a bounded latency...
    for p in grouped:
        assert p["tps"] > p["offered"] * 0.95
        assert p["mean_ms"] < 40.0
    # ...where one sync per commit saturates the log device.
    single = at[(LOADS[-1], 1)]
    assert single["tps"] < LOADS[-1] * 0.9
    assert single["mean_ms"] > grouped[-1]["mean_ms"] * 2
