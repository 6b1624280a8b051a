"""The premise that lets a write skip the checksum: a framed payload never changes.

A :class:`~repro.storage.Record` models what a read-time checksum would
detect -- a rot mark and a tear mark -- instead of computing a CRC32 when
it is written.  That is exact only while no payload is mutated after it
is framed: a mutation would make a real checksum mismatch while the
record still reads ``"ok"``.  The shim below remembers every framed
record with its write-time checksum, so a storm with media faults can
show that recomputing the checksum at the end agrees with the marks.
"""

import pytest

from repro import ClusterConfig, SimCluster
from repro.sim.chaos import ChaosSettings, run_chaos
from repro.storage import framing
from repro.storage.framing import Record, checksum
from repro.workload import WorkloadDriver

#: A --disk-faults seed whose storm both rots (2) and tears (3) framed
#: records; most seeds draw one fault kind or none.
SEED = 237


@pytest.fixture
def framed_log(monkeypatch):
    """Every record framed while the test runs, with its write-time checksum."""
    log = []
    frame = Record.framed

    def framed(payload, nbytes):
        record = frame(payload, nbytes)
        log.append((record, checksum(payload)))
        return record

    monkeypatch.setattr(Record, "framed", staticmethod(framed))
    return log


def test_records_read_as_their_write_time_checksum_says(framed_log):
    report = run_chaos(SEED, settings=ChaosSettings(disk_faults=True))
    assert report.ok, report.summary()
    rotted = [r for r, _crc in framed_log if r.rotted and not r.torn]
    torn = [r for r, _crc in framed_log if r.torn]
    assert rotted and torn  # the storm exercised both marks
    intact = 0
    for record, crc in framed_log:
        if record.rotted or record.torn:
            continue
        intact += 1
        assert checksum(record.payload) == crc, record
        assert record.state == "ok"
    assert intact > 10 * (len(rotted) + len(torn))
    for record in rotted:
        assert record.state == "corrupt"
    assert all(record.state == "torn" for record in torn)


def test_a_fault_free_workload_computes_no_checksum(monkeypatch, framed_log):
    calls = []
    real = framing.checksum

    def counting(payload):
        calls.append(payload)
        return real(payload)

    config = ClusterConfig(seed=0)
    config.workload.n_rows = 2000
    config.kv.n_regions = 4
    cluster = SimCluster(config).start()
    cluster.preload()
    # The shim's write-time checksums call this module's own binding of
    # ``checksum``, so only the program's calls are counted.
    monkeypatch.setattr(framing, "checksum", counting)
    result = WorkloadDriver(cluster).run(duration=3.0, target_tps=40.0)
    assert result.committed > 50
    assert len(framed_log) > result.committed  # WAL and TM-log records were framed
    assert calls == []
