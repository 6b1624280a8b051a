"""Crash-consistent record framing and recovery-time salvage.

This package holds the storage-integrity primitives shared by every
durable log in the system: the framed record with its CRC32 checksum,
the per-host container that tracks which records reached the platter and
what a power cut does to the rest, segment headers carrying
writer/epoch/sequence identity, and the salvage scanner that recovers
the longest verifiable prefix of a damaged log.
"""

from repro.storage.framing import (
    HEADER_KIND,
    Record,
    SalvageReport,
    SegmentHeader,
    StoredFile,
    checksum,
    is_segment_header,
    salvage_prefix,
)

__all__ = [
    "HEADER_KIND",
    "Record",
    "SalvageReport",
    "SegmentHeader",
    "StoredFile",
    "checksum",
    "is_segment_header",
    "salvage_prefix",
]
