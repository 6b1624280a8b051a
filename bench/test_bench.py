"""Tests of the benchmark itself, over its ``--quick`` mode.

Run with ``python -m pytest bench -q`` from the repository root (tier-1's
``testpaths`` is ``tests``, so it does not collect these).
"""

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare
import extract
import harness
import micro
import spec
from loadgen import TxnSource

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- the contract ----------------------------------------------------------

def test_names_and_counts_match_the_contract(contract):
    assert [w["name"] for w in contract["workloads"]] == list(spec.WORKLOADS)
    assert [m["name"] for m in contract["end_to_end"]] == spec.END_TO_END_NAMES
    assert [m["name"] for m in contract["per_layer"]] == spec.PER_LAYER_NAMES
    names = list(spec.WORKLOADS) + spec.END_TO_END_NAMES + spec.PER_LAYER_NAMES
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert list(micro.BENCHES) == [name for name, _moves in spec.MICRO_BENCHES]
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}


def test_bounds_and_units_match_the_catalogue(contract):
    by_name = {m.name: m for m in spec.END_TO_END + spec.PER_LAYER}
    for entry in contract["end_to_end"] + contract["per_layer"]:
        metric = by_name[entry["name"]]
        assert entry["unit"] == metric.unit and entry["better"] == metric.better
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])
        if "bound" in entry:
            assert entry["bound"] == metric.bound and 0 < metric.bound <= 0.25
    setup = by_name["setup_s"]
    assert setup.unit == "s" and setup.better == "lower"
    assert setup.bound == max(m.bound for m in spec.END_TO_END)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])


def test_readme_names_every_metric_and_workload():
    with open(os.path.join(BENCH_DIR, "README.md")) as fh:
        readme = fh.read()
    names = list(spec.WORKLOADS) + spec.END_TO_END_NAMES + spec.PER_LAYER_NAMES
    names += [m.name for _w, m in spec.WORKLOAD_END_TO_END]
    assert [n for n in names if f"`{n}`" not in readme] == []


# -- inputs ------------------------------------------------------------------

@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    workload = spec.workload(name)
    a, b, c = (TxnSource(workload, seed) for seed in (7, 7, 8))
    a.extend_to(300)
    assert [a[i] for i in range(300)] == [b[i] for i in range(300)]  # chunking-independent
    assert [a[i] for i in range(300)] != [c[i] for i in range(300)]
    assert all(len(a[i]) == workload.ops_per_txn for i in range(300))


# -- measurement -------------------------------------------------------------

def test_open_loop_latency_is_timed_from_the_due_time():
    """One session cannot serve 200 tps: arrivals queue, and the wait must
    show in txn_p99_ms although every transaction itself is as fast as ever."""
    base = spec.workload("steady_paced", quick=True)
    healthy = harness.Repeat(base, 0).sim
    stalled_spec = replace(base, sessions=1)
    prepared = harness.Prepared(stalled_spec, 0)
    run = harness.LoadRun(prepared.cluster, prepared.handle, stalled_spec, prepared.source)
    run.execute(harness.clock)
    counters = extract.counters(prepared.cluster)
    sim = extract.simulated(run, counters, counters, prepared.regions, "rs0")
    assert sim["txn_p99_ms"] > 10 * healthy["txn_p99_ms"]
    assert sim["workload.queue_wait_per_txn_ms"] > 100 * sim["txn.commit_per_txn_ms"]
    service = sim["workload.txn_mean_ms"] - sim["workload.queue_wait_per_txn_ms"]
    healthy_service = healthy["workload.txn_mean_ms"] - healthy["workload.queue_wait_per_txn_ms"]
    assert service == pytest.approx(healthy_service, rel=0.25)
    assert sim["unserved"] > 0 and sim["committed_share"] < 1.0


def test_stages_sum_to_the_latency():
    sim = harness.Repeat(spec.workload("scan_mix", quick=True), 0).sim
    assert sim["workload.stage_sum_ratio"] == pytest.approx(1.0, abs=1e-9)
    parts = ("workload.queue_wait_per_txn_ms", "txn.begin_per_txn_ms",
             "kvstore.read_per_txn_ms", "kvstore.scan_per_txn_ms", "txn.commit_per_txn_ms")
    assert sum(sim[p] for p in parts) == pytest.approx(sim["workload.txn_mean_ms"], rel=1e-9)
    assert sim["kvstore.scan_per_txn_ms"] > 0


def test_failover_stages_telescope_to_unavail():
    sim = harness.Repeat(spec.workload("failover_paced", quick=True), 0).sim
    total = sum(sim[name] for name in extract.FAILOVER_STAGES)
    assert total == pytest.approx(sim["workload.unavail_s"], abs=1e-9)
    # unavail_s starts at the crash, so it contains the detection delay.
    assert sim["zk.failover_detect_s"] > 3.0
    assert sim["workload.unavail_s"] > sim["zk.failover_detect_s"]
    assert sim["workload.catchup_s"] >= sim["workload.unavail_s"] - 1.0
    assert sim["core.regions_recovered"] == 4


def test_repeats_are_bit_identical_and_commits_audited():
    repeats = harness.timed_repeats(spec.workload("contended_xshard_ssi", quick=True), 3, 1.0)
    assert len(repeats) == harness.MIN_REPEATS
    assert repeats[0].sim == repeats[1].sim
    assert repeats[-1].audit_commits() == len(repeats[-1].ledger) > 0


# -- the driver's command line -------------------------------------------------

def _invoke(*extra, cwd=ROOT, script=os.path.join(BENCH_DIR, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", "saturated_closed", "--seed", "2",
         "--seconds", "1", "--quick", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, names", [("0", spec.END_TO_END_NAMES),
                                          ("1", spec.PER_LAYER_NAMES)])
def test_last_line_is_the_contract_json(trace, names):
    done = _invoke("--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == names
    assert all(set(v) == {"value", "unit"} for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        shares = [v["value"] for k, v in result["metrics"].items() if k.startswith("host_share.")]
        assert sum(shares) == pytest.approx(1.0)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _invoke("--trace", "0", cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")


# -- compare.py ----------------------------------------------------------------

def _suite(p50, host):
    def entry(values, unit, clock):
        return {"median": sorted(values)[len(values) // 2], "values": values,
                "unit": unit, "clock": clock}
    return {"workloads": {"steady_paced": {"end_to_end": {
        "txn_p50_ms": entry([p50] * 3, "ms", "sim"),
        "host_txn_per_s": entry(host, "1/s", "host"),
    }}}}


def test_compare_verdicts():
    old = _suite(20.0, [1000.0, 1010.0, 990.0])
    verdicts = lambda new: {r[1]: r[-1] for r in compare.compare(old, new)}
    assert verdicts(old) == {"txn_p50_ms": "within bound", "host_txn_per_s": "within bound"}
    assert verdicts(_suite(22.0, [700.0, 705.0, 695.0])) == {
        "txn_p50_ms": "worse", "host_txn_per_s": "worse"}
    assert verdicts(_suite(15.0, [1500.0, 1510.0, 1490.0])) == {
        "txn_p50_ms": "better", "host_txn_per_s": "better"}
    assert verdicts(_suite(20.0, [1000.0, 1400.0, 700.0]))["host_txn_per_s"] == "unresolved"
