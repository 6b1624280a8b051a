"""Run one workload: set up, timed repeats, gates, the traced run.

One repeat = a freshly built cluster, the seeded operation lists, warm-up,
the measured window, drain.  The simulated work of a repeat is a pure
function of ``(workload, seed)``; ``--seconds`` only decides how many
repeats fit, i.e. how well the *host* numbers are resolved.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import resource
import statistics
import time
from typing import Dict, List

from repro import ClusterConfig, SimCluster
from repro.workload.verify import CommitLedger

import extract
import layers
import micro
from extract import GateFailure
from hostclock import CAL_REF_S, at_reference_speed, calibrate
from loadgen import LoadRun, RegionMap, TxnSource, expected_txns
from spec import (
    END_TO_END, END_TO_END_NAMES, PER_LAYER, WORKLOAD_END_TO_END, WorkloadSpec,
)

clock = time.perf_counter

#: Extra set-ups (cluster build, preload, warm caches, input generation)
#: timed and thrown away so that ``setup_s`` is a median of several.
EXTRA_SETUPS = 3
MIN_REPEATS, MAX_REPEATS = 2, 6
IDLE_FLOOR_SIM_S = 30.0
AUDIT_READERS = 16

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class Prepared:
    """A built cluster with its client, region map and inputs."""

    def __init__(self, spec: WorkloadSpec, seed: int, traced: bool = False,
                 with_client: bool = True) -> None:
        calibration_s = calibrate()
        started = clock()
        config = ClusterConfig(seed=seed)
        config.workload.n_rows = spec.rows
        config.kv.n_region_servers = spec.servers
        config.kv.n_regions = spec.regions
        config.txn.tm_shards = spec.tm_shards
        config.txn.isolation = spec.isolation
        self.cluster = SimCluster(config).start()
        self.cluster.preload()
        self.cluster.warm_caches()
        if traced:
            self.cluster.attach_history_recorder()
            self.cluster.attach_invariant_monitor()
        if with_client:
            self.handle = self.cluster.add_client("bench0")
            self.regions = RegionMap(self.cluster.cluster_status()["assignments"])
            self.source = TxnSource(spec, seed)
            self.source.extend_to(expected_txns(spec))
        self.setup_s = at_reference_speed(clock() - started, calibration_s)


class Repeat:
    """One executed repeat and everything measured on it."""

    def __init__(self, spec: WorkloadSpec, seed: int, traced: bool = False) -> None:
        self.prepared = prepared = Prepared(spec, seed, traced)
        cluster = prepared.cluster
        self.ledger = CommitLedger()
        self.run = run = LoadRun(cluster, prepared.handle, spec, prepared.source, self.ledger)
        self.profile = cProfile.Profile() if traced else None
        edges: List[dict] = []

        def enter():
            edges.append(extract.counters(cluster))
            if self.profile:
                self.profile.enable()

        def leave():
            if self.profile:
                self.profile.disable()
            edges.append(extract.counters(cluster))

        # The traced repeat is not calibrated: under cProfile the loop would
        # be slowed by other things than the machine.
        run.execute(clock, enter, leave, None if traced else calibrate)
        self.slice_host_s = run.slice_host_s
        self.slice_calibration_s = run.slice_calibration_s
        self.raw_host_s = sum(run.slice_host_s)
        self.host_s = None if traced else _host_seconds([self])
        self.setup_s = prepared.setup_s
        self.sim = extract.simulated(
            run, edges[0], edges[1], prepared.regions, cluster.servers[0].addr
        )
        for key in ("errors", "unserved", "bad_values"):
            if self.sim[key]:
                detail = next((r.error for r in run.records if r.error), "")
                raise GateFailure(f"{self.sim[key]} {key} {detail}")

    def release(self) -> None:
        """Drop the cluster so peak memory does not grow with the repeat count."""
        self.prepared = self.run = self.ledger = None
        gc.collect()

    def audit_commits(self) -> int:
        """No acknowledged commit is lost: read every written cell back at
        its commit timestamp.  Returns the number of commits audited.

        The same check as ``CommitLedger.verify`` on the same ledger, but
        with concurrent readers driven through ``run_until``:
        ``verify`` steps the kernel one event at a time through
        ``run_until_complete``, whose per-event queue-length test is
        linear in the calendar queue's buckets (26 host s for 3,600
        commits at the seed commit).
        """
        cluster, commits = self.prepared.cluster, iter(self.ledger.commits)
        auditor = cluster.add_client("auditor")
        lost: List[str] = []

        def reader():
            for commit in commits:  # shared iterator: each commit read once
                for row, column, value in commit.cells:
                    got = yield from auditor.kv.get(
                        commit.table, row, column,
                        max_version=commit.commit_ts, max_retries=40,
                    )
                    if got is None or got[0] != commit.commit_ts or got[1] != value:
                        lost.append(f"txn {commit.commit_ts} {row}: expected "
                                    f"{value!r}, found {got!r}")

        readers = [auditor.node.spawn(reader(), name=f"audit{i}")
                   for i in range(AUDIT_READERS)]
        while not all(p.triggered for p in readers):
            cluster.run_until(cluster.kernel.now + 1.0)
        if lost:
            raise GateFailure(f"{len(lost)} acknowledged writes lost; first: {lost[0]}")
        return len(self.ledger)


def _check_identical(repeats: List[Repeat]) -> None:
    """Every simulated and count metric is bit-identical across repeats."""
    first = repeats[0].sim
    for k, other in enumerate(repeats[1:], start=2):
        if other.sim != first:
            differing = sorted(key for key in first if first[key] != other.sim.get(key))
            raise GateFailure(
                f"repeat {k} differs from repeat 1 in simulated metrics {differing[:6]}"
            )


def _host_seconds(repeats: List[Repeat]) -> float:
    """Host seconds of the measured window at reference speed.

    Per slice the fastest repeat -- the simulated work of a slice is
    identical in every repeat, so that is its least-disturbed measurement
    -- and likewise for the calibration loop timed beside it.
    """
    def fastest(series) -> float:
        return sum(min(times) for times in zip(*series))

    work = fastest(r.slice_host_s for r in repeats)
    calibration = fastest(r.slice_calibration_s for r in repeats)
    return at_reference_speed(work, calibration, len(repeats[0].slice_host_s))


def timed_repeats(spec: WorkloadSpec, seed: int, seconds: float) -> List[Repeat]:
    """``seconds`` of measured host time, in whole repeats.

    The repeat count comes from the spec's frozen ``nominal_host_s``, not
    from this machine's speed, so the host estimator takes its minimum
    over the same number of repeats everywhere; at least two, so the
    determinism gate has something to compare.
    """
    count = min(max(round(seconds / spec.nominal_host_s), MIN_REPEATS), MAX_REPEATS)
    repeats: List[Repeat] = []
    for _ in range(count):
        if repeats:
            repeats[-1].release()
        repeats.append(Repeat(spec, seed))
    _check_identical(repeats)
    return repeats


# ----------------------------------------------------------------------
# the two kinds of invocation
# ----------------------------------------------------------------------

def run_timed(spec: WorkloadSpec, seed: int, seconds: float, pre_setup_s: float) -> dict:
    """``--trace 0``: the end-to-end metrics of one workload."""
    setups = [Prepared(spec, seed).setup_s for _ in range(EXTRA_SETUPS)]
    repeats = timed_repeats(spec, seed, seconds)
    setups += [r.setup_s for r in repeats]
    acknowledged = repeats[-1].audit_commits()
    sim = repeats[0].sim
    host_s = _host_seconds(repeats)
    values = {name: sim[name] for name in END_TO_END_NAMES if name in sim}
    values["host_txn_per_s"] = sim["committed"] / host_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["setup_s"] = pre_setup_s + statistics.median(setups)
    workload_only = {
        m.name: sim[f"workload.{m.name}"]
        for w, m in WORKLOAD_END_TO_END if w == spec.name
    }
    return {
        "workload": spec.name,
        "seed": seed,
        "repeats": len(repeats),
        "attempted": sim["attempted"],
        "failed": sim["errors"] + sim["unserved"],
        "end_to_end": values,
        "workload_end_to_end": workload_only,
        "samples": {
            "txn": sim["committed"],
            "flush_lag": sim["n.flush_lag"],
            "acknowledged_commits_verified": acknowledged,
            "host_txn_per_s_by_repeat": [sim["committed"] / r.host_s for r in repeats],
            # 1.0 = the calibration loop ran at CAL_REF_S (see hostclock.py)
            "machine_speed": CAL_REF_S / statistics.median(
                c for r in repeats for c in r.slice_calibration_s),
            "setup_s": setups,
        },
        "simulated": sim,
    }


def run_traced(spec: WorkloadSpec, seed: int) -> dict:
    """``--trace 1``: one untraced repeat for reference, one traced repeat
    (spans, cProfile, history recorder, invariant monitor), the idle floor
    and the micro-benches; the per-layer metrics of one workload."""
    micro_results = micro.run_all(clock)  # first, while the heap is small
    plain = Repeat(spec, seed)
    traced = Repeat(spec, seed, traced=True)
    oracle = layers.oracle_verdict(traced.prepared.cluster, spec)

    sim = plain.sim
    values: Dict[str, float] = {m.name: sim[m.name] for m in PER_LAYER if m.name in sim}
    values.update(layers.host_shares(traced.profile))
    values["sim.events_per_host_s"] = sim["events"] / plain.host_s
    values["trace.overhead_ratio"] = traced.raw_host_s / plain.raw_host_s
    values["trace.sim_drift"] = max(
        abs(traced.sim[m.name] - sim[m.name]) / sim[m.name]
        for m in END_TO_END if m.clock != "host"
    )
    values["sim.idle_events_per_sim_s"] = idle_floor(spec, seed)
    values["check.invariant_violations"] = oracle["invariant_violations"]
    values.update({name: result["value"] for name, result in micro_results.items()})

    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"{spec.name}.trace.json")
    with open(trace_path, "w") as fh:
        json.dump({"workload": spec.name, "seed": seed,
                   "spans": layers.bench_spans(traced.run)}, fh)
    return {
        "workload": spec.name,
        "seed": seed,
        "attempted": sim["attempted"],
        "failed": sim["errors"] + sim["unserved"],
        "per_layer": values,
        "oracle": oracle,
        "trace_file": os.path.relpath(trace_path, os.path.dirname(OUT_DIR)),
        "samples": {"txn": sim["committed"],
                    **{k[2:]: v for k, v in sim.items() if k.startswith("n.")}},
        "micro": micro_results,
        "simulated_traced": traced.sim,
    }


def idle_floor(spec: WorkloadSpec, seed: int) -> float:
    """Kernel events per simulated second of the same cluster with no
    clients: what heartbeats, ticks and scrapers cost on their own."""
    cluster = Prepared(spec, seed, with_client=False).cluster
    before = cluster.kernel.event_count
    cluster.run_until(cluster.kernel.now + IDLE_FLOOR_SIM_S)
    return (cluster.kernel.event_count - before) / IDLE_FLOOR_SIM_S
