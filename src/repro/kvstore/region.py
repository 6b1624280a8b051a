"""Region: one contiguous, assignable shard of a table."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.kvstore.keys import KeyRange, region_id
from repro.kvstore.memstore import MemStore
from repro.kvstore.sstable import SSTable

#: Region lifecycle states.
OPENING = "opening"  # internal recovery / sstable loading in progress
RECOVERING = "recovering"  # gated on the transactional recovery manager
ONLINE = "online"
OFFLINE = "offline"


@dataclass
class RegionDescriptor:
    """Identity of a region, as passed around by the master."""

    table: str
    start: str
    end: Optional[str]

    @property
    def region_id(self) -> str:
        """Stable identifier (table + start key)."""
        return region_id(self.table, self.key_range)

    @property
    def key_range(self) -> KeyRange:
        """The half-open row interval this region covers."""
        return KeyRange(self.start, self.end)

    def to_wire(self) -> dict:
        """Serialise for master/server RPCs."""
        return {
            "table": self.table,
            "start": self.start,
            "end": self.end,
        }

    @staticmethod
    def from_wire(wire: dict) -> "RegionDescriptor":
        """Inverse of :meth:`to_wire`."""
        return RegionDescriptor(
            table=wire["table"], start=wire["start"], end=wire["end"]
        )

    def data_dir(self) -> str:
        """DFS directory for this region's sstables."""
        return f"/data/{self.table}/{self.start or '_first'}/"


@dataclass
class Region:
    """A region as hosted on one region server."""

    descriptor: RegionDescriptor
    memstore: MemStore = field(default_factory=MemStore)
    sstables: List[SSTable] = field(default_factory=list)
    state: str = OPENING

    @property
    def region_id(self) -> str:
        """The hosted region's identifier."""
        return self.descriptor.region_id

    @property
    def online(self) -> bool:
        """Whether the region currently serves regular traffic."""
        return self.state == ONLINE

    def accepts_writes(self, from_recovery: bool) -> bool:
        """Online regions take any write; recovering ones only replays.

        This enforces the paper's atomicity argument: a region affected by
        a server failure must not serve regular traffic until the recovery
        manager has supplemented HBase's internal recovery, or clients
        could read partially recovered write-sets.
        """
        if self.state == ONLINE:
            return True
        return self.state == RECOVERING and from_recovery

    def contains(self, row: str) -> bool:
        """Whether ``row`` belongs to this region."""
        # Inlined half-open range check (== KeyRange.contains) -- this sits
        # on the per-request routing path, and minting a KeyRange per call
        # showed up in profiles.
        descriptor = self.descriptor
        if row < descriptor.start:
            return False
        end = descriptor.end
        return end is None or row < end
