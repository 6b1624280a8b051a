"""Transaction write-sets.

Under the paper's deferred-update model a transaction buffers every insert,
update, and delete at the client; nothing reaches the key-value store
before commit.  At commit the whole write-set is stamped with the commit
timestamp -- that stamping is what makes replay idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.kvstore.keys import WireCell

#: A buffered update key: (table, row, column).
WriteKey = Tuple[str, str, str]


@dataclass
class WriteSet:
    """Buffered updates of one transaction (last write per key wins)."""

    writes: Dict[WriteKey, Any] = field(default_factory=dict)

    def put(self, table: str, row: str, column: str, value: Any) -> None:
        """Buffer an insert/update."""
        self.writes[(table, row, column)] = value

    def delete(self, table: str, row: str, column: str) -> None:
        """Buffer a delete (a tombstone: the wire value is None)."""
        self.writes[(table, row, column)] = None

    def get(self, table: str, row: str, column: str, default: Any = None) -> Any:
        """Read back a buffered write (read-your-own-writes support)."""
        return self.writes.get((table, row, column), default)

    def __contains__(self, key: WriteKey) -> bool:
        return key in self.writes

    def __len__(self) -> int:
        return len(self.writes)

    @property
    def empty(self) -> bool:
        """Whether nothing has been buffered (a read-only transaction)."""
        return not self.writes

    def keys(self) -> List[WriteKey]:
        """The (table, row, column) keys, for conflict certification."""
        return list(self.writes)

    def tables(self) -> List[str]:
        """Distinct tables touched."""
        return sorted({table for table, _row, _col in self.writes})

    def stamped_cells(self, table: str, commit_ts: int) -> List[WireCell]:
        """Wire cells for ``table``, versioned with the commit timestamp."""
        return [
            (row, column, commit_ts, value)
            for (t, row, column), value in sorted(self.writes.items())
            if t == table
        ]
