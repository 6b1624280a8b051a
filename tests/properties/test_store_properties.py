"""Property-based tests for the store substrate (DESIGN.md invariant 9)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import KvSettings
from repro.kvstore.keys import Cell
from repro.kvstore.memstore import MemStore
from repro.kvstore.sstable import best_version_in_block, build_blocks
from tests.kvstore.conftest import MiniCluster

rows = st.text(alphabet="abcdef", min_size=1, max_size=3)
versions = st.integers(min_value=1, max_value=40)
cells = st.lists(
    st.tuples(rows, versions, st.integers(0, 99)), min_size=0, max_size=60
)


@given(cells, rows, versions)
@settings(max_examples=300, deadline=None)
def test_memstore_get_matches_brute_force(entries, probe_row, snapshot):
    ms = MemStore()
    model = {}
    for row, version, value in entries:
        ms.put(Cell(row, "f", version, value))
        model[(row, version)] = value  # same-version overwrite, like the store
    got = ms.get(probe_row, "f", snapshot)
    candidates = [
        (version, value)
        for (row, version), value in model.items()
        if row == probe_row and version <= snapshot
    ]
    if not candidates:
        assert got is None
    else:
        version, value = max(candidates)
        assert got == (version, value, False)


@given(cells)
@settings(max_examples=200, deadline=None)
def test_memstore_flush_snapshot_preserves_all_reads(entries):
    """During and after a flush handoff, reads return the same values."""
    ms = MemStore()
    for row, version, value in entries:
        ms.put(Cell(row, "f", version, value))
    before = {
        (row, snap): ms.get(row, "f", snap)
        for row, version, _v in entries
        for snap in (version, version + 1)
    }
    ms.snapshot_for_flush()
    during = {key: ms.get(key[0], "f", key[1]) for key in before}
    assert during == before
    ms.abort_flush()
    after = {key: ms.get(key[0], "f", key[1]) for key in before}
    assert after == before


@given(cells, st.integers(0, 60), rows, rows, versions)
@settings(max_examples=200, deadline=None)
def test_memstore_scan_matches_brute_force(entries, handover, start, end, snapshot):
    ms = MemStore()
    model = {}
    for n, (row, version, value) in enumerate(entries):
        if n == handover:
            ms.snapshot_for_flush()  # the rest lands beside a flushing map
        ms.put(Cell(row, "f", version, value))
        model[(row, version)] = value
    end_row = end if end > start else None
    got = list(ms.scan(start, end_row, snapshot))
    expected = {}
    for (row, version), value in model.items():
        if row < start or (end_row is not None and row >= end_row):
            continue
        if version > snapshot:
            continue
        current = expected.get(row)
        if current is None or version > current[0]:
            expected[row] = (version, value)
    assert [row for row, _columns in got] == sorted(expected)
    flattened = {
        row: (hit[0], hit[1]) for row, columns in got
        for _col, hit in columns.items()
    }
    assert flattened == expected


# -- rpc_scan against its specification -------------------------------------
# Twelve rows (all in the region below split point "m"), two columns, and
# few versions, so store files, the flushing snapshot and the active map
# overlap on rows, columns and versions.
scan_rows = st.text(alphabet="abc", min_size=1, max_size=2)
scan_cells = st.lists(
    st.tuples(scan_rows, st.sampled_from("fg"), st.integers(1, 12)), max_size=12
)


def scan_cell(row, column, version):
    """The one cell a (row, column, version) stands for, wherever it is
    stored -- a replayed write is the same write; every third version is
    a delete."""
    value = None if version % 3 == 0 else f"{row}/{column}/{version}"
    return Cell(row, column, version, value, tombstone=value is None)


@pytest.fixture(scope="module")
def scan_region():
    """(cluster, server, region) with two rows to the block; each example
    empties the region and fills it again."""
    mini = MiniCluster(
        kv_settings=KvSettings(memstore_flush_entries=100_000, rows_per_block=2)
    )
    server = next(rs for rs in mini.servers if "t," in rs.regions)
    return mini, server, server.regions["t,"]


@given(
    files=st.lists(scan_cells.filter(bool), min_size=3, max_size=4),
    flushing=scan_cells,
    active=scan_cells,
    start=scan_rows,
    end=st.none() | scan_rows,
    snapshot=st.integers(0, 13),
    limit=st.integers(1, 14),
)
@settings(max_examples=150, deadline=None)
def test_rpc_scan_matches_brute_force(
    scan_region, files, flushing, active, start, end, snapshot, limit
):
    mini, server, region = scan_region
    region.memstore.clear()
    region.sstables.clear()
    for keys in files:
        for key in keys:
            region.memstore.put(scan_cell(*key))
        mini.run(server._flush_region(region))
    assert len(region.sstables) == len(files)
    for key in flushing:
        region.memstore.put(scan_cell(*key))
    region.memstore.snapshot_for_flush()
    for key in active:
        region.memstore.put(scan_cell(*key))

    reply = mini.run(server.rpc_scan("app", "t,", start, end, snapshot, limit))

    # The specification: per (row, column) in range the newest version at or
    # below the snapshot; a row is live if one of those is not a delete; the
    # first ``limit`` live rows ascending, cells in (row, column) order.
    newest = {}
    for row, column, version in {k for keys in files + [flushing, active] for k in keys}:
        if row < start or (end is not None and row >= end) or version > snapshot:
            continue
        if version > newest.get((row, column), 0):
            newest[(row, column)] = version
    live_cells = sorted(
        (row, column, version, value)
        for (row, column), version in newest.items()
        if (value := scan_cell(row, column, version).value) is not None
    )
    live_rows = sorted({row for row, *_rest in live_cells})
    assert [tuple(c) for c in reply["cells"]] == [
        c for c in live_cells if c[0] in live_rows[:limit]
    ]
    assert reply["more"] == (len(live_rows) > limit)


@given(
    st.lists(st.tuples(rows, versions), min_size=1, max_size=80, unique=True),
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=200, deadline=None)
def test_build_blocks_partitions_losslessly(pairs, rows_per_block):
    data = sorted(
        (Cell(r, "f", v, f"{r}:{v}") for r, v in pairs),
        key=lambda c: (c.row, c.version),
    )
    index, blocks = build_blocks(data, rows_per_block)
    # Lossless: every cell lands in exactly one block.
    flat = [c for block in blocks for c in block]
    assert len(flat) == len(data)
    assert sorted(flat) == sorted(c.to_wire() for c in data)
    # Index entries are the first row of each block, ascending.
    assert index == [block[0][0] for block in blocks]
    assert index == sorted(index)
    # No block exceeds the row budget.
    for block in blocks:
        assert len({c[0] for c in block}) <= rows_per_block
    # A row's cells never straddle blocks.
    seen = {}
    for i, block in enumerate(blocks):
        for c in block:
            seen.setdefault(c[0], set()).add(i)
    assert all(len(s) == 1 for s in seen.values())


@given(
    st.lists(st.tuples(rows, versions), min_size=1, max_size=50, unique=True),
    rows,
    versions,
)
@settings(max_examples=300, deadline=None)
def test_block_lookup_matches_brute_force(pairs, probe_row, snapshot):
    data = sorted(
        (Cell(r, "f", v, f"{r}:{v}") for r, v in pairs),
        key=lambda c: (c.row, c.version),
    )
    from repro.kvstore.sstable import SSTable

    index, blocks = build_blocks(data, rows_per_block=4)
    sst = SSTable(path="/x", index=index)
    idx = sst.block_for_row(probe_row)
    expected = [
        (v, f"{probe_row}:{v}")
        for r, v in pairs
        if r == probe_row and v <= snapshot
    ]
    if idx is None:
        assert not expected  # row precedes the table: must not exist
        return
    got = best_version_in_block(blocks[idx], probe_row, "f", snapshot)
    if expected:
        assert got == max(expected)
    else:
        assert got is None
