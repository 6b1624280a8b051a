"""The three chaos profiles the plain and disk sweeps do not cover.

``kill_during_recovery_settings``, ``tm_shard_chaos_settings`` and
``ssi_chaos_settings`` otherwise run only from ``make chaos-kill`` /
``chaos-tm-shard`` / ``chaos-ssi``.  Eight seeds each keep them in the
tier-1 suite: every run must uphold the guarantee *and* have injected
the fault its profile is named after.
"""

import pytest

from repro.sim.chaos import (
    kill_during_recovery_settings,
    run_chaos,
    ssi_chaos_settings,
    tm_shard_chaos_settings,
)

pytestmark = pytest.mark.slow

SEEDS = range(8)

PROFILES = {
    "kill-during-recovery": (kill_during_recovery_settings, "kill during recovery"),
    "tm-shard": (tm_shard_chaos_settings, "crash tm shard"),
    "ssi": (ssi_chaos_settings, "crash tm shard"),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_profile_upholds_guarantee_and_injects_its_fault(profile, seed):
    settings, fault = PROFILES[profile]
    report = run_chaos(seed, settings())
    detail = report.summary() + "".join(
        f"\n  {v}"
        for v in report.violations + report.anomalies + report.invariant_violations
    )
    assert report.ok, detail
    assert any(fault in line for line in report.trace), (fault, report.trace)
    if profile == "ssi":
        assert report.oracle["serializability"]["cycles"] == 0, detail
