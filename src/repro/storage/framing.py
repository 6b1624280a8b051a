"""On-"disk" record framing: checksums, segment headers, power cuts, salvage.

Durable state in the simulation is a list of records rather than a byte
stream, so framing works at record granularity: every :class:`Record`
carries its payload length (the length prefix) and a CRC32 over a
canonical encoding of the payload.  A reader that finds a checksum
mismatch knows the record is torn or rotted and must not replay it.

A :class:`StoredFile` is one host's copy of one record stream (a
datanode's replica, the TM's commit log, a logger shard's slice of it)
with the watermark below which records are genuinely on the platter;
:meth:`StoredFile.power_cut` is the one rule for what a crash does to the
rest.

Log files additionally open with a :class:`SegmentHeader` record naming
the writer, its epoch and the segment sequence number, so recovery can
reject a segment that was written by a stale incarnation or spliced from
the wrong log.

:func:`salvage_prefix` implements the standard log-recovery rule: scan
forward, verify each record, and truncate at the first invalid one --
everything after a tear is unordered garbage even if later checksums
happen to verify.  The scan produces a :class:`SalvageReport` so damage
is always surfaced, never silently dropped.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Marker heading every segment-header payload (first tuple element).
HEADER_KIND = "__segment_header__"


def checksum(payload: Any) -> int:
    """CRC32 over a canonical encoding of ``payload``.

    ``repr`` is deterministic for the tuples/strings/numbers that flow
    through the logs, and -- unlike ``hash`` -- is stable across
    processes, so the same payload always frames to the same checksum.
    """
    return zlib.crc32(repr(payload).encode("utf-8", "replace"))


@dataclass
class Record:
    """One opaque record on a storage medium.

    Records written through an append path are *framed*: they carry a
    CRC32 over their payload, so readers can detect bit rot and torn
    writes instead of silently replaying garbage.  ``crc is None`` marks
    an unframed record (bulk-preloaded datasets, pre-framing files);
    those verify trivially, like data covered by device-level checksums.
    """

    payload: Any
    nbytes: int = 128
    crc: Optional[int] = None
    torn: bool = False

    @staticmethod
    def framed(payload: Any, nbytes: int) -> "Record":
        """A record checksummed at write time."""
        return Record(payload=payload, nbytes=nbytes, crc=checksum(payload))

    @property
    def state(self) -> str:
        """Medium state: ``"ok"``, ``"torn"`` or ``"corrupt"``."""
        if self.torn:
            return "torn"
        if self.crc is not None and self.crc != checksum(self.payload):
            return "corrupt"
        return "ok"

    def damage(self) -> None:
        """Latent corruption: the stored frame no longer matches the payload."""
        base = self.crc if self.crc is not None else checksum(self.payload)
        self.crc = base ^ 0x5A5A5A5A

    def tear(self) -> None:
        """Mark this record as a half-written (torn) final record."""
        self.torn = True


@dataclass
class StoredFile:
    """One host's copy of one record stream."""

    path: str
    records: List[Record] = field(default_factory=list)
    #: Records [0, synced) are on this host's disk; the rest were only
    #: buffered (or acknowledged off a lying fsync) and are lost if the
    #: host crashes before a genuine sync covers them.
    synced: int = 0

    @property
    def length(self) -> int:
        """Records currently held by this copy."""
        return len(self.records)

    def durable_records(self) -> List[Record]:
        """The prefix of records that survives a crash of the host."""
        return self.records[: self.synced]

    def power_cut(self, disk: Any) -> int:
        """A crash of the host: the un-synced tail vanishes (it never
        left the page cache) -- or, when ``disk`` (a
        :class:`~repro.sim.disk.Disk`) tears, a prefix of it landed plus
        one half-written record.  Those are *on the platter*: they survive
        the restart and must be caught by checksum at read time, not
        trusted.  The device's fault stream is drawn from only when there
        is a tail to lose.  Returns how many acknowledged records were lost.
        """
        tail = len(self.records) - self.synced
        if tail <= 0:
            return 0
        if disk.tears_on_crash():
            keep = disk.crash_keep_count(tail)
            self.records[self.synced + keep].tear()
            del self.records[self.synced + keep + 1 :]
            self.synced = len(self.records)
            return tail - keep - 1
        del self.records[self.synced :]
        return tail


@dataclass(frozen=True)
class SegmentHeader:
    """Identity record opening every log segment."""

    writer: str
    epoch: int
    segment: int

    def to_wire(self) -> Tuple[str, str, int, int]:
        """The header as a plain payload tuple."""
        return (HEADER_KIND, self.writer, self.epoch, self.segment)

    @staticmethod
    def from_wire(payload: Any) -> "SegmentHeader":
        """Parse a payload produced by :meth:`to_wire`."""
        kind, writer, epoch, segment = payload
        if kind != HEADER_KIND:
            raise ValueError(f"not a segment header: {payload!r}")
        return SegmentHeader(writer=writer, epoch=epoch, segment=segment)


def is_segment_header(payload: Any) -> bool:
    """Whether ``payload`` is a :class:`SegmentHeader` wire tuple."""
    return (
        isinstance(payload, tuple)
        and len(payload) == 4
        and payload[0] == HEADER_KIND
    )


@dataclass
class SalvageReport:
    """Outcome of scanning one damaged (or suspect) log for salvage."""

    path: str
    total: int = 0  #: records present on the medium (max across replicas)
    kept: int = 0  #: records that verified and were salvaged
    dropped: int = 0  #: records truncated (torn/corrupt/after the tear)
    torn: int = 0  #: damaged records observed that were torn writes
    corrupt: int = 0  #: damaged records observed that were bit rot
    repaired: int = 0  #: damaged copies salvaged from a healthy replica
    bytes_truncated: int = 0  #: payload bytes lost to the truncation
    reason: str = "clean"  #: "clean", "torn-record", "corrupt-record", ...
    #: Listed replicas that did not answer the scan (down or partitioned).
    #: A truncation with replicas missing is provisional -- a holder that
    #: comes back with its disk intact may still hold the records whole.
    replicas_missing: int = 0

    @property
    def clean(self) -> bool:
        """Whether the scan found nothing to drop or repair."""
        return (
            self.dropped == 0
            and self.torn == 0
            and self.corrupt == 0
            and self.repaired == 0
        )

    def to_wire(self) -> Dict[str, Any]:
        """The report as a JSON-friendly dict."""
        return {
            "path": self.path,
            "total": self.total,
            "kept": self.kept,
            "dropped": self.dropped,
            "torn": self.torn,
            "corrupt": self.corrupt,
            "repaired": self.repaired,
            "bytes_truncated": self.bytes_truncated,
            "reason": self.reason,
            "replicas_missing": self.replicas_missing,
        }


def salvage_prefix(
    path: str,
    entries: Sequence[Tuple[Any, int, str]],
) -> Tuple[List[Tuple[Any, int]], SalvageReport]:
    """Salvage the longest verifiable prefix of one log.

    ``entries`` is the raw on-medium view: ``(payload, nbytes, state)``
    triples where ``state`` is ``"ok"``, ``"torn"`` or ``"corrupt"``.
    Returns the verified ``(payload, nbytes)`` prefix plus the report.
    """
    report = SalvageReport(path=path, total=len(entries))
    kept: List[Tuple[Any, int]] = []
    for index, (payload, nbytes, state) in enumerate(entries):
        if state == "ok":
            kept.append((payload, nbytes))
            continue
        report.reason = "torn-record" if state == "torn" else "corrupt-record"
        for _later, later_nbytes, later_state in entries[index:]:
            report.bytes_truncated += later_nbytes
            if later_state == "torn":
                report.torn += 1
            elif later_state != "ok":
                report.corrupt += 1
        break
    report.kept = len(kept)
    report.dropped = report.total - report.kept
    return kept, report
