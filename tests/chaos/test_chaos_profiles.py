"""The three chaos profiles the plain and disk sweeps do not cover.

A second crash inside the recovery window, a 2-shard TM with a shard
kill, and the same under SSI otherwise run only from ``make chaos-kill``
/ ``chaos-tm-shard`` / ``chaos-ssi``.  Eight seeds each keep them in the
tier-1 suite: every run must uphold the guarantee *and* have injected
the fault its profile is named after.
"""

import pytest

from repro.sim.chaos import ChaosSettings, run_chaos

pytestmark = pytest.mark.slow

SEEDS = range(8)

PROFILES = {
    "kill-during-recovery": (
        ChaosSettings(kill_during_recovery=True), "kill during recovery",
    ),
    "tm-shard": (ChaosSettings(tm_shards=2), "crash tm shard"),
    "ssi": (ChaosSettings(tm_shards=2, isolation="ssi"), "crash tm shard"),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_profile_upholds_guarantee_and_injects_its_fault(profile, seed):
    settings, fault = PROFILES[profile]
    report = run_chaos(seed, settings)
    detail = report.summary() + "".join(
        f"\n  {v}"
        for v in report.violations + report.anomalies + report.invariant_violations
    )
    assert report.ok, detail
    assert any(fault in line for line in report.trace), (fault, report.trace)
    if profile == "ssi":
        assert report.oracle["serializability"]["cycles"] == 0, detail
