"""The storm is data: ``plan_storm`` is pure, ``Storm`` is its one interpreter.

The draw order of ``plan_storm`` is the reproducibility contract of every
recorded chaos seed, so it is pinned here by golden plans -- a pure
function's golden does not move when product timing does.  The
interpreter is exercised with a hand-written plan: the guards, not the
plan, absorb a fault whose victim is already down.
"""

import dataclasses
import json

import pytest

from repro.sim.chaos import (
    DEGRADATION_FACTOR,
    N_SERVERS,
    N_WRITERS,
    STORM,
    WARMUP,
    ChaosReport,
    ChaosSettings,
    Fault,
    Storm,
    build_chaos_cluster,
    converge,
    plan_storm,
)
from repro.sim.rng import SeededRng

PLAIN = ChaosSettings()
DISK = ChaosSettings(disk_faults=True)
SHARDED = ChaosSettings(tm_shards=2)
EVERYTHING = ChaosSettings(
    disk_faults=True, kill_during_recovery=True, tm_shards=3, isolation="ssi"
)


def addrs(settings):
    """The degradable addresses of the cluster ``settings`` would build."""
    tms = ["tm"] if settings.tm_shards == 1 else [
        f"tm{i}" for i in range(settings.tm_shards)
    ]
    return [f"rs{i}" for i in range(N_SERVERS)] + tms + ["zk"]


def plan(settings, seed, start=0.0, shape=None):
    """``settings``' plan for the cluster ``shape`` (default: its own)."""
    rng = SeededRng(seed).substream("chaos.harness")
    return plan_storm(settings, rng, start, addrs(shape or settings))


#: Seed 7 drawn for ``start=0.0`` -- the plain storm every profile shares.
GOLDEN_PLAIN = [
    Fault(1.0, "storm_on"),
    Fault(5.646235403075013, "crash_machine", {"i": 1}),
    Fault(7.695304166764958, "restart_machine", {"i": 1}),
    Fault(3.3611454281217332, "crash_client", {"i": 2}),
    Fault(4.132990764515035, "partition_client", {"i": 1, "dwell": 1.5485064413860126}),
    Fault(3.129716895249781, "loss_burst", {"dwell": 1.1311431210100655}),
    Fault(
        5.301110003633416,
        "degrade_node",
        {"addr": "rs0", "factor": 3.763867114086699, "dwell": 1.6765083322096304},
    ),
]
GOLDEN_DISK = GOLDEN_PLAIN + [
    Fault(3.9470475742865867, "disk_fault_storm", {"i": 0, "dwell": 2.361698563326571}),
]
GOLDEN_SHARDED = GOLDEN_PLAIN + [
    Fault(3.2929886280278753, "crash_tm_shard", {"i": 0}),
    Fault(6.154687191354446, "restart_tm_shard", {"i": 0}),
]


@pytest.mark.parametrize(
    "settings, golden",
    [(PLAIN, GOLDEN_PLAIN), (DISK, GOLDEN_DISK), (SHARDED, GOLDEN_SHARDED)],
    ids=["plain", "disk", "tm-shards-2"],
)
def test_golden_plan_for_seed_7(settings, golden):
    assert plan(settings, 7) == golden


def test_kill_during_recovery_and_isolation_do_not_enter_the_plan():
    # The watcher's kill is drawn at run time; isolation only picks the
    # certifier and the oracle.
    assert plan(ChaosSettings(kill_during_recovery=True), 7) == GOLDEN_PLAIN
    assert plan(ChaosSettings(tm_shards=2, isolation="ssi"), 7) == GOLDEN_SHARDED


@pytest.mark.parametrize("seed", range(1, 21))
def test_plan_is_pure_and_optional_draws_come_last(seed):
    for settings in (PLAIN, DISK, SHARDED, EVERYTHING):
        assert plan(settings, seed) == plan(settings, seed)
    # The optional draws extend the plain plan; they never reshuffle it.
    # (Same candidate addresses on both sides: a degradation is drawn from
    # the cluster's node list, which grows with the shard count.)
    plain = plan(PLAIN, seed)
    assert len(plain) == 7
    assert plan(DISK, seed)[:7] == plain
    assert plan(SHARDED, seed)[:7] == plan(PLAIN, seed, shape=SHARDED)
    assert plan(EVERYTHING, seed)[:8] == plan(DISK, seed, shape=EVERYTHING)


@pytest.mark.parametrize("settings", [PLAIN, DISK, SHARDED, EVERYTHING])
def test_every_fault_is_in_the_vocabulary_in_the_window_and_in_range(settings):
    start = 1.0146
    lo, hi = start + WARMUP, start + WARMUP + STORM
    ranges = {
        "crash_machine": N_SERVERS, "restart_machine": N_SERVERS,
        "partition_server": N_SERVERS, "disk_fault_storm": N_SERVERS,
        "crash_client": N_WRITERS, "partition_client": N_WRITERS,
        "crash_tm_shard": settings.tm_shards, "restart_tm_shard": settings.tm_shards,
    }
    for seed in range(1, 21):
        faults = plan(settings, seed, start)
        assert faults[0] == Fault(lo, "storm_on")
        at = {}
        for fault in faults:
            assert isinstance(fault, Fault)
            assert not fault.kind.startswith("_")
            assert callable(getattr(Storm, fault.kind)), fault
            at.setdefault(fault.kind, fault)
            if fault.kind in ranges:
                assert 0 <= fault.args["i"] < ranges[fault.kind], fault
            if not fault.kind.startswith("restart_"):
                assert lo <= fault.at <= hi, fault
        # Each restart follows its crash by the drawn dwell; only a machine
        # restart may land past the window (by at most 0.5 s).
        assert at["restart_machine"].args == at["crash_machine"].args
        dwell = at["restart_machine"].at - at["crash_machine"].at
        assert 2.0 <= dwell <= 3.5 + 1e-9
        assert at["restart_machine"].at <= hi + 0.5
        if settings.tm_shards > 1:
            assert at["restart_tm_shard"].args == at["crash_tm_shard"].args
            dwell = at["restart_tm_shard"].at - at["crash_tm_shard"].at
            assert 1.5 <= dwell <= 3.0 + 1e-9
            assert at["restart_tm_shard"].at <= hi
        assert ("disk_fault_storm" in at) == settings.disk_faults
        assert ("crash_tm_shard" in at) == (settings.tm_shards > 1)
        assert ("partition_client" in at) != ("partition_server" in at)
        degrade = at["degrade_node"].args
        assert degrade["addr"] in addrs(settings)
        assert 2.0 <= degrade["factor"] <= DEGRADATION_FACTOR


def test_plan_survives_json():
    faults = plan(EVERYTHING, 7, start=1.0146)
    wire = json.dumps([dataclasses.asdict(f) for f in faults])
    assert [Fault(**doc) for doc in json.loads(wire)] == faults


def test_guard_absorbs_a_duplicate_crash_and_the_cluster_converges():
    cluster = build_chaos_cluster(3, PLAIN)
    assert [n.addr for n in cluster.servers + cluster.tms] + ["zk"] == addrs(PLAIN)
    trace = []
    rng = cluster.kernel.rng.substream("chaos.harness")
    writers = [cluster.add_client("w0")]
    storm = Storm(cluster, PLAIN, rng, writers, trace.append)
    start = cluster.kernel.now
    storm.arm(
        [
            Fault(start + 0.5, "crash_machine", {"i": 0}),
            Fault(start + 0.75, "crash_machine", {"i": 0}),
            Fault(start + 3.0, "restart_machine", {"i": 0}),
        ],
        start,
    )
    cluster.run_until(start + 4.0)
    storm.calm()
    assert trace == [
        "crash machine rs0+dn0", "restart machine rs0", "storm off: fabric clean"
    ]
    assert converge(cluster, ChaosReport(seed=3), PLAIN.settle) is True
    assert all(rs.alive for rs in cluster.servers)


def test_arm_rejects_a_kind_outside_the_vocabulary():
    cluster = build_chaos_cluster(3, PLAIN)
    storm = Storm(cluster, PLAIN, cluster.kernel.rng, [], lambda line: None)
    with pytest.raises(AttributeError):
        storm.arm([Fault(cluster.kernel.now + 1.0, "meteor_strike")], cluster.kernel.now)
