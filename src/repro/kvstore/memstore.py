"""The per-region in-memory write store.

Incoming updates land here (after the WAL append) and are served from here
until a flush writes them to an immutable sstable.  Reads are
multi-version: a get at snapshot timestamp ``ts`` returns the newest
version <= ts.

A flush proceeds in two phases so writes are never blocked: the active
cell map is frozen into a *flush snapshot* (still readable), a fresh active
map takes its place, and once the sstable is durably written the snapshot
is dropped.

Each map's row keys are also kept as an ascending list, so a scan walks
rows in order and stops when its caller does.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.kvstore.keys import Cell

# row -> column -> list of (version, value, tombstone) sorted by version asc
CellMap = Dict[str, Dict[str, List[Tuple[int, Any, bool]]]]


def _newest_at(
    versions: List[Tuple[int, Any, bool]], max_version: int
) -> Optional[Tuple[int, Any, bool]]:
    """The newest entry of an ascending version list that is <= max_version."""
    idx = bisect.bisect_left(versions, (max_version + 1,)) - 1
    return versions[idx] if idx >= 0 else None


class MemStore:
    """MVCC in-memory store for one region."""

    def __init__(self) -> None:
        self._active: CellMap = {}
        self._active_rows: List[str] = []  # the keys of _active, ascending
        self._flushing: Optional[CellMap] = None
        self._flushing_rows: List[str] = []
        self.entries = 0
        self.nbytes = 0
        self._flushing_entries = 0

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(self, cell: Cell, nbytes: int = 64) -> None:
        """Insert one versioned cell (idempotent per (row, col, version))."""
        entry = (cell.version, cell.value, cell.tombstone)
        row = cell.row
        columns = self._active.get(row)
        if columns is None:  # the row's first cell: nothing to search
            self._active[row] = {cell.column: [entry]}
            bisect.insort(self._active_rows, row)
        else:
            versions = columns.setdefault(cell.column, [])
            idx = bisect.bisect_left(versions, (cell.version,))
            if idx < len(versions) and versions[idx][0] == cell.version:
                versions[idx] = entry  # duplicate replay: same version, overwrite
                return
            versions.insert(idx, entry)
        self.entries += 1
        self.nbytes += nbytes

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, row: str, column: str, max_version: int) -> Optional[Tuple[int, Any, bool]]:
        """Newest (version, value, tombstone) <= max_version, or None."""
        best = self._lookup(self._active, row, column, max_version)
        if self._flushing is not None:
            other = self._lookup(self._flushing, row, column, max_version)
            if other is not None and (best is None or other[0] > best[0]):
                best = other
        return best

    @staticmethod
    def _lookup(
        cells: CellMap, row: str, column: str, max_version: int
    ) -> Optional[Tuple[int, Any, bool]]:
        versions = cells.get(row, {}).get(column)
        return _newest_at(versions, max_version) if versions else None

    def scan(
        self, start_row: str, end_row: Optional[str], max_version: int
    ) -> Iterator[Tuple[str, Dict[str, Tuple[int, Any, bool]]]]:
        """Lazy ascending scan of [start, end): best version <= max_version.

        Yields ``(row, {column: (version, value, tombstone)})``, active and
        flushing merged; a row with nothing visible is skipped.  The scan
        reads the maps that exist at its first step, held by reference, so a
        flush hand-over or a discarded snapshot while its consumer is
        suspended takes nothing away from it.  It keeps no list position
        between rows -- each step bisects again from the last row seen --
        so a put of a new row in between is safe too.
        """
        maps = [(self._active, self._active_rows)]
        if self._flushing is not None:
            maps.append((self._flushing, self._flushing_rows))
        last: Optional[str] = None
        while True:
            row = None
            for _cells, rows in maps:
                if last is None:
                    idx = bisect.bisect_left(rows, start_row)
                else:
                    idx = bisect.bisect_right(rows, last)
                if idx < len(rows) and (row is None or rows[idx] < row):
                    row = rows[idx]
            if row is None or (end_row is not None and row >= end_row):
                return
            last = row
            best: Dict[str, Tuple[int, Any, bool]] = {}
            for cells, _rows in maps:
                for column, versions in cells.get(row, {}).items():
                    hit = _newest_at(versions, max_version)
                    if hit is not None and (
                        column not in best or hit[0] > best[column][0]
                    ):
                        best[column] = hit
            if best:
                yield row, best

    # ------------------------------------------------------------------
    # flush protocol
    # ------------------------------------------------------------------
    @property
    def flushing(self) -> bool:
        """Whether a flush snapshot is outstanding."""
        return self._flushing is not None

    def snapshot_for_flush(self) -> List[Cell]:
        """Freeze the active map; returns its cells sorted by (row, col, version)."""
        if self._flushing is not None:
            raise RuntimeError("flush already in progress")
        self._flushing, self._flushing_rows = self._active, self._active_rows
        self._flushing_entries = self.entries
        self._active, self._active_rows = {}, []
        self.entries = 0
        self.nbytes = 0
        out: List[Cell] = []
        for row in self._flushing_rows:
            columns = self._flushing[row]
            for column in sorted(columns):
                for version, value, tombstone in columns[column]:
                    out.append(Cell(row, column, version, value, tombstone))
        return out

    def discard_flush_snapshot(self) -> None:
        """Drop the frozen map once its sstable is durable."""
        self._flushing, self._flushing_rows = None, []
        self._flushing_entries = 0

    def abort_flush(self) -> None:
        """Flush failed: merge the snapshot back into the active map."""
        if self._flushing is None:
            return
        snapshot, self._flushing, self._flushing_rows = self._flushing, None, []
        for row, columns in snapshot.items():
            for column, versions in columns.items():
                for version, value, tombstone in versions:
                    self.put(Cell(row, column, version, value, tombstone))
        self._flushing_entries = 0

    def total_entries(self) -> int:
        """Entries across the active map and any flush snapshot."""
        return self.entries + self._flushing_entries

    def clear(self) -> None:
        """Drop everything (crash simulation / region close)."""
        self._active, self._active_rows = {}, []
        self._flushing, self._flushing_rows = None, []
        self.entries = 0
        self.nbytes = 0
        self._flushing_entries = 0
