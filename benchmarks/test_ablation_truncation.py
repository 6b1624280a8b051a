"""Ablation: recovery-log truncation at the global persisted threshold.

Section 3.2: transactions with timestamp below the global T_P "may be
truncated from the recovery log since they have been safely persisted."
This bench runs the same workload with truncation on and off and compares
retained log length; with truncation the log stays bounded by roughly one
heartbeat round of traffic instead of growing with history.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _harness import (
    OFFERED_TPS,
    STEADY_RUN,
    base_config,
    build_cluster,
    emit,
)
from repro.metrics import format_table
from repro.workload import WorkloadDriver


def run_variant(truncate: bool, seed: int):
    config = base_config(seed=seed)
    config.recovery.truncate_log = truncate
    cluster = build_cluster(config)
    WorkloadDriver(cluster).run(duration=STEADY_RUN, target_tps=OFFERED_TPS)
    cluster.run_until(cluster.kernel.now + 3.0)  # final heartbeats land
    log = cluster.tm.log
    return {
        "appended": log.stats.appended,
        "retained": log.length,
        "truncated_below": log.truncated_below,
    }


def run_ablation():
    return {
        "on": run_variant(True, seed=600),
        "off": run_variant(False, seed=601),
    }


def test_truncation_keeps_log_bounded(benchmark):
    result = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    on, off = result["on"], result["off"]
    emit("ablation_truncation", format_table(
        ["variant", "appended", "retained", "truncated below ts"],
        [
            ("truncation on", on["appended"], on["retained"], on["truncated_below"]),
            ("truncation off", off["appended"], off["retained"], off["truncated_below"]),
        ],
        title="Ablation: recovery-log truncation at global T_P",
    ))
    assert off["retained"] == off["appended"], "off-variant must keep everything"
    assert on["retained"] < off["retained"] * 0.25, (
        f"truncation retained {on['retained']} of {on['appended']} records -- "
        "the global persisted threshold is not advancing"
    )
    assert on["truncated_below"] > 0
