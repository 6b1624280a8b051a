"""Seed-swept chaos with storage faults: durability despite hostile media.

On top of PR 1's fabric storms, every datanode disk injects transient
write errors, lying fsyncs, latent corruption, and torn final writes,
plus one acute per-device fault storm per run.  The audit is unchanged --
every acknowledged commit readable at its commit timestamp -- and the
salvage machinery must surface (never silently replay) all damage.
"""

import pytest

from repro.sim.chaos import ChaosSettings, run_chaos

DISK = ChaosSettings(disk_faults=True)

SEEDS = list(range(1, 21))

#: One report per seed, shared by every test here: the sweep-wide
#: assertions read the runs the per-seed tests already made.
_REPORTS = {}


def report_for(seed):
    if seed not in _REPORTS:
        _REPORTS[seed] = run_chaos(seed, settings=DISK)
    return _REPORTS[seed]


def injected_faults(report):
    """Total media faults injected across the run's devices."""
    return {
        kind: sum(
            d.get(kind, 0) for d in report.storage["disks"].values()
        )
        for kind in ("write_errors", "lost_fsyncs", "corruptions", "torn_writes")
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_disk_fault_seed_upholds_guarantee(seed):
    report = report_for(seed)
    detail = report.summary() + "".join(f"\n  {v}" for v in report.violations)
    assert report.violations == [], detail
    assert report.converged, detail
    assert report.acknowledged > 0, detail
    assert report.ok


def test_sweep_actually_injects_storage_faults():
    # Any single seed may draw few faults; across the whole sweep the
    # storm must hit every fault class or the sweep proves nothing.
    totals = {}
    salvage_activity = 0
    for seed in SEEDS:
        report = report_for(seed)
        for kind, count in injected_faults(report).items():
            totals[kind] = totals.get(kind, 0) + count
        integrity = report.storage["integrity"]
        salvage_activity += (
            integrity["records_repaired"] + integrity["salvages"]
        )
    assert totals["lost_fsyncs"] > 0, totals
    assert totals["corruptions"] > 0, totals
    # Write errors and torn writes depend on crash timing; at least one
    # of the crash-coupled faults must have fired across the seeds.
    assert totals["write_errors"] + totals["torn_writes"] > 0, totals
    # The damage was not only injected but acted on.
    assert salvage_activity > 0


def test_salvage_reports_account_for_all_truncation():
    # Whenever a recovery scan dropped records, the report must say so
    # and carry the byte count -- damage is auditable, never silent.
    for seed in SEEDS[:6]:
        report = report_for(seed)
        for salvage in report.storage["salvage_reports"]:
            assert salvage["kept"] + salvage["dropped"] == salvage["total"]
            if salvage["dropped"]:
                assert salvage["reason"] != "clean"
                assert salvage["bytes_truncated"] > 0
            assert (
                salvage["dropped"] or salvage["repaired"]
            ), f"clean report retained: {salvage}"


def test_tm_log_device_stays_clean():
    # The paper assumes reliable TM stable storage; the disk profile
    # honours that (the TM log's salvage path is unit-tested instead).
    report = report_for(3)
    tm_disks = {
        name: d
        for name, d in report.storage["disks"].items()
        if "log" in name
    }
    assert tm_disks
    for counters in tm_disks.values():
        assert counters["write_errors"] == 0
        assert counters["lost_fsyncs"] == 0
        assert counters["corruptions"] == 0
        assert counters["torn_writes"] == 0


def test_same_seed_reproduces_identical_report_with_disk_faults():
    assert run_chaos(7, settings=DISK) == report_for(7)


def test_disk_faults_default_off():
    # The default profile must stay bit-for-bit identical to PR 1: no
    # fault draws, zeroed counters, empty salvage trail.
    report = run_chaos(5)
    assert injected_faults(report) == {
        "write_errors": 0,
        "lost_fsyncs": 0,
        "corruptions": 0,
        "torn_writes": 0,
    }
    assert report.storage["salvage_reports"] == []
