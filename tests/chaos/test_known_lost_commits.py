"""The two chaos seeds that still lose acknowledged commits (ROADMAP item 2).

Neither sweep is in ``make chaos-all`` or CI yet; they run as ``make
chaos-disk-kill`` and ``make chaos-tm3-kill``.  Each failing seed is pinned
here as a strict xfail asserting the report is ok, so the test turns into
an unexpected pass -- a failure under ``strict`` -- the moment a change
mends (or moves) the fault, and the pin has to be lifted on purpose.
"""

import pytest

from repro.sim.chaos import ChaosSettings, run_chaos


def _detail(report):
    return report.summary() + "".join(f"\n  {v}" for v in report.violations)


@pytest.mark.xfail(
    strict=True,
    reason="13 ledger violations: acknowledged commits read back as the "
           "preloaded value after disk faults and a crash inside recovery",
)
def test_disk_faults_with_kill_during_recovery_seed_12():
    report = run_chaos(12, ChaosSettings(disk_faults=True, kill_during_recovery=True))
    assert report.ok, _detail(report)


@pytest.mark.xfail(
    strict=True,
    reason="the audit aborts on WrongRegionServer and the cluster never "
           "converges with 3 TM shards and a crash inside recovery",
)
def test_three_tm_shards_with_kill_during_recovery_seed_8():
    report = run_chaos(8, ChaosSettings(tm_shards=3, kill_during_recovery=True))
    assert report.ok, _detail(report)
