"""Unit tests for the MVCC memstore."""

import pytest

from repro.kvstore.keys import Cell
from repro.kvstore.memstore import MemStore


def cell(row, col, version, value):
    return Cell(row=row, column=col, version=version, value=value)


def test_get_returns_newest_version_at_or_below_snapshot():
    ms = MemStore()
    ms.put(cell("r1", "c", 10, "v10"))
    ms.put(cell("r1", "c", 20, "v20"))
    ms.put(cell("r1", "c", 30, "v30"))
    assert ms.get("r1", "c", 25) == (20, "v20", False)
    assert ms.get("r1", "c", 30) == (30, "v30", False)
    assert ms.get("r1", "c", 9) is None


def test_get_missing_row_or_column():
    ms = MemStore()
    ms.put(cell("r1", "c", 10, "v"))
    assert ms.get("r2", "c", 100) is None
    assert ms.get("r1", "d", 100) is None


def test_out_of_order_insertion_keeps_versions_sorted():
    ms = MemStore()
    ms.put(cell("r", "c", 30, "v30"))
    ms.put(cell("r", "c", 10, "v10"))
    ms.put(cell("r", "c", 20, "v20"))
    assert ms.get("r", "c", 15) == (10, "v10", False)
    assert ms.get("r", "c", 99) == (30, "v30", False)


def test_duplicate_version_is_idempotent():
    ms = MemStore()
    ms.put(cell("r", "c", 10, "v"))
    ms.put(cell("r", "c", 10, "v"))  # replay
    assert ms.entries == 1
    assert ms.get("r", "c", 10) == (10, "v", False)


def test_tombstone_reported():
    ms = MemStore()
    ms.put(Cell("r", "c", 10, None, tombstone=True))
    assert ms.get("r", "c", 20) == (10, None, True)


def test_snapshot_for_flush_freezes_and_sorts():
    ms = MemStore()
    ms.put(cell("b", "c1", 2, "x"))
    ms.put(cell("a", "c1", 1, "y"))
    ms.put(cell("a", "c1", 3, "z"))
    cells = ms.snapshot_for_flush()
    assert [(c.row, c.column, c.version) for c in cells] == [
        ("a", "c1", 1),
        ("a", "c1", 3),
        ("b", "c1", 2),
    ]
    # Snapshot still readable while flushing.
    assert ms.flushing
    assert ms.get("a", "c1", 5) == (3, "z", False)
    # New writes go to the fresh active map and are also visible.
    ms.put(cell("a", "c1", 7, "new"))
    assert ms.get("a", "c1", 9) == (7, "new", False)
    ms.discard_flush_snapshot()
    assert ms.get("a", "c1", 5) is None  # old versions went with the snapshot
    assert ms.get("a", "c1", 9) == (7, "new", False)


def test_double_flush_snapshot_rejected():
    ms = MemStore()
    ms.put(cell("a", "c", 1, "v"))
    ms.snapshot_for_flush()
    with pytest.raises(RuntimeError):
        ms.snapshot_for_flush()


def test_abort_flush_merges_snapshot_back():
    ms = MemStore()
    ms.put(cell("a", "c", 1, "v1"))
    ms.snapshot_for_flush()
    ms.put(cell("a", "c", 2, "v2"))
    ms.abort_flush()
    assert not ms.flushing
    assert ms.get("a", "c", 1) == (1, "v1", False)
    assert ms.get("a", "c", 2) == (2, "v2", False)
    assert ms.entries == 2


def test_entry_and_byte_accounting():
    ms = MemStore()
    ms.put(cell("a", "c", 1, "v"), nbytes=100)
    ms.put(cell("b", "c", 2, "v"), nbytes=50)
    assert ms.entries == 2
    assert ms.nbytes == 150
    ms.snapshot_for_flush()
    assert ms.entries == 0
    assert ms.total_entries() == 2
    ms.discard_flush_snapshot()
    assert ms.total_entries() == 0


def test_clear_drops_everything():
    ms = MemStore()
    ms.put(cell("a", "c", 1, "v"))
    ms.snapshot_for_flush()
    ms.put(cell("b", "c", 2, "v"))
    ms.clear()
    assert ms.get("a", "c", 10) is None
    assert ms.get("b", "c", 10) is None
    assert ms.total_entries() == 0


def scanned_rows(ms, start="", end=None, snapshot=99):
    return [row for row, _columns in ms.scan(start, end, snapshot)]


def test_scan_is_ascending_across_active_and_flushing():
    ms = MemStore()
    for row in ("d", "a", "c"):
        ms.put(cell(row, "c", 1, row))
    ms.snapshot_for_flush()
    ms.put(cell("b", "c", 2, "b"))
    ms.put(cell("c", "c", 3, "newer"))
    got = list(ms.scan("a", "d", 99))
    assert [row for row, _columns in got] == ["a", "b", "c"]
    assert got[2][1] == {"c": (3, "newer", False)}  # active beats the snapshot
    assert scanned_rows(ms, snapshot=1) == ["a", "c", "d"]  # "b" is too new


def test_row_order_survives_flush_abort_and_clear():
    ms = MemStore()
    for row in ("c", "a", "d"):
        ms.put(cell(row, "c", 1, row))
    ms.snapshot_for_flush()
    ms.put(cell("b", "c", 2, "b"))
    ms.abort_flush()  # the snapshot's rows merge back behind "b", in order
    assert scanned_rows(ms) == ["a", "b", "c", "d"]
    assert [c.row for c in ms.snapshot_for_flush()] == ["a", "b", "c", "d"]
    ms.discard_flush_snapshot()
    assert scanned_rows(ms) == []
    ms.put(cell("y", "c", 3, "y"))
    ms.clear()
    assert scanned_rows(ms) == []
    ms.put(cell("z", "c", 4, "z"))
    assert scanned_rows(ms) == ["z"]


def test_scan_in_progress_outlives_flush_handover_and_discard():
    ms = MemStore()
    for row in ("a", "c", "e"):
        ms.put(cell(row, "c", 1, row))
    scan = ms.scan("", None, 99)
    assert next(scan)[0] == "a"
    ms.put(cell("d", "c", 2, "d"))  # ahead of the scan: seen
    ms.put(cell("0", "c", 2, "0"))  # behind it: not seen, not reordered
    ms.snapshot_for_flush()  # the scan keeps the map it started on
    ms.discard_flush_snapshot()  # the data now lives in a store file
    ms.put(cell("b", "c", 3, "b"))  # lands in a map the scan never held
    assert [row for row, _columns in scan] == ["c", "d", "e"]

