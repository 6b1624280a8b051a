#!/usr/bin/env python3
"""Run the standard YCSB core workloads (A-F) plus the paper's mix.

One cluster configuration per run; every mix gets a fresh, identically
seeded cluster so the comparison is apples-to-apples.  Shows the library
working as a general transactional store benchmark harness, not just a
single-figure reproduction.

Run:  python examples/ycsb_suite.py
"""

from repro import ClusterConfig, SimCluster
from repro.metrics import format_table
from repro.workload import WORKLOADS, WorkloadDriver

DURATION = 12.0
TARGET_TPS = 150.0


def run_mix(name: str) -> dict:
    config = ClusterConfig(seed=31)
    config.workload.n_rows = 30_000
    config.workload.n_clients = 30
    config.workload.ops_per_txn = 10
    cluster = SimCluster(config).start()
    cluster.preload()
    cluster.warm_caches()
    driver = WorkloadDriver(cluster, mix=name)
    # Workload E's scans are far heavier per op; let it run closed-loop.
    target = None if name == "E" else TARGET_TPS
    result = driver.run(duration=DURATION, target_tps=target, warmup=2.0)
    summary = result.summary()
    return {
        "mix": name,
        "tps": summary["tps"],
        "mean_ms": summary["mean_ms"],
        "p99_ms": summary["p99_ms"],
        "aborted": summary["aborted"],
    }


def main() -> None:
    print(f"Running YCSB core workloads ({DURATION:.0f}s each, "
          f"{TARGET_TPS:.0f} tps offered, E closed-loop)...")
    rows = []
    for name in ("A", "B", "C", "D", "E", "F", "paper"):
        point = run_mix(name)
        mix = WORKLOADS[name]
        description = ", ".join(
            f"{int(p * 100)}% {kind}"
            for kind, p in (
                ("read", mix.read), ("update", mix.update),
                ("insert", mix.insert), ("scan", mix.scan), ("rmw", mix.rmw),
            )
            if p > 0
        )
        rows.append((
            name, description, f"{point['tps']:.0f}",
            f"{point['mean_ms']:.1f}", f"{point['p99_ms']:.1f}",
            point["aborted"],
        ))
        print(f"  {name}: done")
    print()
    print(format_table(
        ["mix", "operations", "tps", "mean (ms)", "p99 (ms)", "aborts"],
        rows,
        title="YCSB core workloads on the transactional store",
    ))


if __name__ == "__main__":
    main()
