"""Namenode-side file metadata for the simulated distributed filesystem.

The filesystem stores *record streams*: an append-only sequence of opaque
records, each with an explicit byte-size estimate used for bandwidth and
disk-latency accounting.  This matches how the two consumers use HDFS --
the HBase-like WAL appends log records, and memstore flushes write batches
of cells -- without modelling byte-level block layout, which none of the
paper's experiments depend on.  The record and a datanode's copy of a
stream (``Record``, ``StoredFile``) live in :mod:`repro.storage`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class FileMeta:
    """Namenode-side metadata for one file."""

    path: str
    replicas: List[str] = field(default_factory=list)  # datanode addresses
    length: int = 0  # records acknowledged by the full pipeline
    nbytes: int = 0
    closed: bool = False
    #: Desired replica count; the namenode's replication monitor restores
    #: this after datanode failures.
    replication: int = 2
    #: Whether the replica set was a seeded-random (scattered) draw rather
    #: than local-first placement.  Recorded so recovery tooling can tell
    #: scattered WAL segments from affinity-placed files.
    scattered: bool = False

    def to_wire(self) -> dict:
        """Serialisable snapshot for RPC replies."""
        return {
            "path": self.path,
            "replicas": list(self.replicas),
            "length": self.length,
            "nbytes": self.nbytes,
            "closed": self.closed,
            "scattered": self.scattered,
        }
