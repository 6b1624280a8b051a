"""Shared infrastructure for the paper-reproduction benchmarks.

Each benchmark regenerates one figure of the paper's evaluation section and
prints the same rows/series the figure plots.  Absolute numbers come from a
simulator, not the authors' 2013 testbed, so the *shapes* are the
reproduction target; every harness asserts its figure's shape.

Scale control: set ``REPRO_BENCH_SCALE=paper`` for the paper's full setup
(500k rows, 300 s timelines); the default ``small`` keeps the same shapes
at roughly a tenth of the wall-clock cost.
"""

from __future__ import annotations

import gc
import os
from pathlib import Path

from repro import ClusterConfig, SimCluster
from repro.workload import WorkloadDriver

SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")
PAPER = SCALE == "paper"

#: Section 4.1 constants.
N_CLIENT_THREADS = 50
N_SERVERS = 2
OFFERED_TPS = 250.0  # Section 4.4: "near the peak capacity for a single
#                      region server serving 50 client threads"

N_ROWS = 500_000 if PAPER else 60_000
STEADY_RUN = 40.0 if PAPER else 20.0
WARMUP = 5.0 if PAPER else 3.0

OUT_DIR = Path(__file__).parent / "out"


def base_config(seed: int = 0) -> ClusterConfig:
    """The Section 4.1 setup (async persistence, recovery middleware on)."""
    config = ClusterConfig(seed=seed)
    config.kv.n_region_servers = N_SERVERS
    config.workload.n_rows = N_ROWS
    config.workload.n_clients = N_CLIENT_THREADS
    config.recovery.client_heartbeat_interval = 1.0
    config.recovery.server_heartbeat_interval = 1.0
    return config


def build_cluster(config: ClusterConfig) -> SimCluster:
    """Boot, preload, and warm -- the paper's pre-experiment procedure."""
    # A finished experiment's cluster is one large reference cycle, and
    # ``Kernel.run`` pauses the collector that would otherwise reach it in
    # time: free it here, before the next cluster is built.
    gc.collect()
    cluster = SimCluster(config).start()
    cluster.preload()
    cluster.warm_caches()
    return cluster


def run_workload(cluster, duration, target_tps=None, warmup=WARMUP):
    driver = WorkloadDriver(cluster)
    return driver.run(duration=duration, target_tps=target_tps, warmup=warmup)


def emit(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/out/."""
    print()
    print(text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")
