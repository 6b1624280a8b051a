"""Extension: distributed recovery logging.

Section 4.1 says the TM's logging sub-component "can be distributed across
several nodes should one logging node not be sufficient".  This bench makes
one logging node insufficient -- a slower log device, groups capped at
eight commits, four region servers and 100 client threads so the store is
*not* the bottleneck -- and scales the logger shards.

Expected shape: committed throughput rises substantially from a single
local log to 2 shards, then plateaus once the store becomes the bottleneck
(more shards stop helping) -- exactly the "should one logging node not be
sufficient" condition and its resolution.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _harness import base_config, build_cluster, emit
from repro.config import DiskSettings
from repro.metrics import format_table
from repro.workload import WorkloadDriver

SHARD_COUNTS = [0, 2, 4]  # 0 = local log at the TM


def run_shards(shards: int, seed: int):
    config = base_config(seed=seed)
    config.kv.n_region_servers = 4
    config.kv.n_regions = 8
    config.workload.n_clients = 100
    config.txn.log_shards = shards
    config.txn.group_commit_max = 8
    config.txn.log_disk = DiskSettings(sync_latency=0.008, bytes_per_second=40e6)
    cluster = build_cluster(config)
    result = WorkloadDriver(cluster).run(duration=12.0, target_tps=None, warmup=3.0)
    return {
        "shards": shards,
        "tps": result.achieved_tps,
        "mean_ms": result.latency.mean * 1000,
    }


def run_extension():
    return [run_shards(s, seed=960 + s) for s in SHARD_COUNTS]


def test_log_sharding_relieves_a_log_bound_tm(benchmark):
    points = benchmark.pedantic(run_extension, rounds=1, iterations=1)
    emit("extension_log_scaling", format_table(
        ["logger shards", "tps", "mean rt (ms)"],
        [("local (0)" if p["shards"] == 0 else p["shards"],
          f"{p['tps']:.0f}", f"{p['mean_ms']:.1f}") for p in points],
        title="Extension: commit throughput vs logger shards "
              "(log-bound configuration: slow log device, 4 region "
              "servers, 100 threads)",
    ))
    by_shards = {p["shards"]: p for p in points}
    # Sharding the log lifts a log-bound system...
    assert by_shards[2]["tps"] > by_shards[0]["tps"] * 1.08, (
        f"2 shards ({by_shards[2]['tps']:.0f} tps) should clearly beat a "
        f"single log ({by_shards[0]['tps']:.0f} tps)"
    )
    # ...until the store is the bottleneck, where more shards stop helping.
    assert by_shards[4]["tps"] < by_shards[2]["tps"] * 1.05
