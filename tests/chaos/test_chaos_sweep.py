"""Seed-swept chaos runs: the paper's guarantee under a hostile fabric.

Each seed drives a live transactional workload on a full simulated
cluster through a storm of message loss, duplication, delay spikes,
slow nodes, partitions, and machine/client crashes, heals everything,
and audits that every acknowledged commit is readable at its commit
timestamp (zero :class:`CommitLedger` violations) and that the recovery
middleware converges cleanly (global T_P == T_F, no pinned regions,
every region back online).
"""

import pytest

from repro.sim.chaos import run_chaos

#: The swept seeds.  Each one is a distinct storm; all of them must keep
#: the durability guarantee.  (They are plain integers, so a failure is
#: reproduced exactly by ``python -m repro chaos --seed N``.)
SEEDS = list(range(1, 21))


@pytest.fixture(scope="module")
def reports():
    """Reports by seed, filled by the parametrised sweep so the sweep-level
    check below does not pay for a second 20-seed run."""
    return {}


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_seed_upholds_guarantee(seed, reports):
    report = reports[seed] = run_chaos(seed)
    detail = report.summary() + "".join(f"\n  {v}" for v in report.violations)
    assert report.violations == [], detail
    assert report.converged, detail
    assert report.acknowledged > 0, detail
    assert report.ok


def test_storm_is_genuinely_hostile(reports):
    # The sweep only means something if the faults were injected, not just
    # planned: a guard skips a planned fault whose victim is already down.
    # Floors from the sweep as measured (15 / 16 / 19 of 20), with slack for
    # a deliberate re-baseline of the schedules.
    sweep = [reports.get(seed) or run_chaos(seed) for seed in SEEDS]

    def runs_with(*faults):
        return sum(any(f in line for f in faults for line in r.trace) for r in sweep)

    assert runs_with("crash machine") >= 12
    assert runs_with("partition client", "partition server") >= 12
    assert runs_with("crash client") >= 16
    for report in sweep:
        # ...and the fabric misbehaved in every single run.
        assert report.net["messages_lost"] > 0, report.summary()
        assert report.net["messages_duplicated"] > 0, report.summary()
        assert report.net["rpc_retries"] > 0, report.summary()
        assert report.attempted > report.acknowledged  # some txns hit the storm


def test_same_seed_reproduces_identical_report():
    first = run_chaos(7)
    second = run_chaos(7)
    # Bit-for-bit: fault trace, thresholds, every fabric and TM counter.
    assert first == second
