"""Snapshot-isolation certification (first-committer-wins).

The paper scopes concurrency control out ("the transaction management
component provides an efficient concurrency control mechanism based on
snapshot isolation") but the recovery middleware needs realistic commits to
protect, so we implement the standard backward certification: a committing
transaction aborts iff some key in its write-set was committed by another
transaction after this one's snapshot timestamp.

:class:`SSIWindow` adds the opt-in serializable layer
(``txn.isolation="ssi"``): commit-time rw-antidependency tracking in the
style of Cahill/Fekete serializable snapshot isolation.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.txn.writeset import WriteKey

#: A certification-time read: the key and the version (commit timestamp)
#: the transaction actually observed, ``None`` for a miss.
ReadPair = Tuple[WriteKey, Optional[int]]


class SICertifier:
    """Tracks the last committed version of recently-written keys."""

    def __init__(self, horizon: int = 10_000) -> None:
        #: Keys retained for conflict checking; beyond this many, the oldest
        #: entries are dropped together with a floor timestamp that forces
        #: conservative aborts for very old snapshots.
        self.horizon = horizon
        self._last_commit: "OrderedDict[WriteKey, int]" = OrderedDict()
        #: Any snapshot older than this may have missed a dropped entry.
        self._floor_ts = 0
        self.conflicts = 0
        self.certified = 0

    def certify(self, start_ts: int, keys: Iterable[WriteKey]) -> Optional[WriteKey]:
        """None if the write-set is conflict-free; else the offending key.

        A transaction whose snapshot predates the retention floor is
        conservatively rejected on any key not present in the window (we can
        no longer prove absence of a conflict).
        """
        stale_snapshot = start_ts < self._floor_ts
        for key in keys:
            committed = self._last_commit.get(key)
            if committed is not None and committed > start_ts:
                self.conflicts += 1
                return key
            if committed is None and stale_snapshot:
                self.conflicts += 1
                return key
        self.certified += 1
        return None

    def record(self, commit_ts: int, keys: Iterable[WriteKey]) -> None:
        """Register a successful commit's writes."""
        for key in keys:
            if key in self._last_commit:
                self._last_commit.move_to_end(key)
            self._last_commit[key] = commit_ts
        while len(self._last_commit) > self.horizon:
            _key, dropped_ts = self._last_commit.popitem(last=False)
            self._floor_ts = max(self._floor_ts, dropped_ts)

    def window_size(self) -> Tuple[int, int]:
        """(tracked keys, floor timestamp) -- for introspection."""
        return len(self._last_commit), self._floor_ts


class _SSIEntry:
    """One recently-committed transaction in the rw-edge window."""

    __slots__ = ("seq", "commit_ts", "writes", "reads", "in_rw", "out_rw")

    def __init__(
        self,
        seq: int,
        commit_ts: int,
        writes: FrozenSet[WriteKey],
        reads: FrozenSet[WriteKey],
    ) -> None:
        #: Admission order -- the deterministic iteration key.
        self.seq = seq
        self.commit_ts = commit_ts
        self.writes = writes
        self.reads = reads
        #: Some concurrent transaction read a key this one wrote (it has
        #: an incoming rw-antidependency edge).
        self.in_rw = False
        #: This transaction read a key some concurrent transaction wrote
        #: (it has an outgoing rw-antidependency edge).
        self.out_rw = False


class SSIWindow:
    """Commit-time rw-antidependency tracking for serializable SI.

    The standard Cahill/Fekete argument: every non-serializable execution
    under snapshot isolation contains a *dangerous structure* -- a pivot
    transaction with both an incoming and an outgoing rw-antidependency
    edge to transactions it ran concurrently with.  Aborting any
    committing transaction that would complete such a structure therefore
    guarantees serializability.  Tracking is conservative (per-key
    intersections, single in/out flags per committed neighbour, bounded
    window with a stale-snapshot floor): false aborts are possible, missed
    dangerous structures are not.

    One twist beyond textbook SSI: this store's reads have *flushed*
    visibility -- a read can legally miss a committed-but-unflushed
    version at or below its snapshot, fracturing the snapshot and
    creating a backward rw-edge that the concurrency test
    (``commit_ts > start_ts``) can never see.  Certification therefore
    receives read *versions*, not just keys, and unconditionally aborts
    any committer that read an outdated version of a key some window
    entry overwrote inside its snapshot (``version_read < commit_ts <=
    start_ts``).  That restores true snapshot reads for every committed
    transaction, which is the premise the pivot rule needs.

    The window holds *committed* transactions only; check and admit are
    plain calls, so a caller that performs them back-to-back without
    yielding gets an atomic check-and-record.  Read-only transactions are
    admitted too (with their certification-time timestamp and an empty
    write-set) -- Fekete's read-only anomaly makes their rw-edges as
    dangerous as anyone's.
    """

    def __init__(self, horizon: int = 10_000) -> None:
        #: Committed transactions retained for edge checking; beyond this
        #: many, the oldest are dropped and the floor rises so that
        #: too-old snapshots abort conservatively.
        self.horizon = horizon
        self._entries: "OrderedDict[int, _SSIEntry]" = OrderedDict()
        #: Per-key indexes (admission-ordered lists), so certification
        #: touches only the entries that share a key with the committer
        #: instead of scanning the whole window.
        self._writers: Dict[WriteKey, List[_SSIEntry]] = {}
        self._readers: Dict[WriteKey, List[_SSIEntry]] = {}
        self._seq = itertools.count()
        self._floor_ts = 0
        self.checks = 0
        self.aborts = 0

    def _edges(
        self,
        start_ts: int,
        writes: FrozenSet[WriteKey],
        reads: Iterable[ReadPair],
    ) -> Tuple[List[_SSIEntry], List[_SSIEntry], Optional[WriteKey]]:
        """(in-sources, out-targets, outdated-read witness).

        In/out lists hold committed transactions concurrent with a
        snapshot at ``start_ts`` (committed after it was taken) whose
        write/read sets intersect the given read/write sets.  The third
        element is non-``None`` when some *non*-concurrent entry
        overwrote a read key inside the snapshot at a version newer than
        the one actually observed: the snapshot is fractured (the read
        went around a committed-but-unflushed version) and the committer
        must abort regardless of pivot structure."""
        ins: Dict[int, _SSIEntry] = {}
        outs: Dict[int, _SSIEntry] = {}
        outdated: Optional[WriteKey] = None
        for key, version in reads:
            for entry in self._writers.get(key, ()):
                if entry.commit_ts > start_ts:
                    outs[entry.seq] = entry
                elif outdated is None and (
                    version is None or version < entry.commit_ts
                ):
                    outdated = key
        for key in writes:
            for entry in self._readers.get(key, ()):
                if entry.commit_ts > start_ts:
                    ins[entry.seq] = entry
        return (
            [ins[seq] for seq in sorted(ins)],
            [outs[seq] for seq in sorted(outs)],
            outdated,
        )

    def check(
        self,
        start_ts: int,
        writes: Iterable[WriteKey],
        reads: Iterable[ReadPair],
    ) -> Optional[WriteKey]:
        """None if committing is safe; else the smallest witnessing key.

        The smallest, so an abort's reason never follows string hashing.

        ``reads`` are ``(key, version_observed)`` pairs.  Aborts when a
        read observed an outdated version of a key overwritten inside the
        snapshot (fractured snapshot -- see the class docstring), when
        the committer would be the pivot of a dangerous structure (both
        edge directions present), when a committed neighbour would become
        one (its matching flag is already set), or when the snapshot
        predates the retention floor (concurrent committers may have been
        evicted, so absence of edges is no longer provable).
        """
        self.checks += 1
        write_set = frozenset(writes)
        read_pairs = tuple(reads)
        read_keys = frozenset(key for key, _version in read_pairs)
        if start_ts < self._floor_ts:
            self.aborts += 1
            return min(write_set or read_keys, default=None)
        ins, outs, outdated = self._edges(start_ts, write_set, read_pairs)
        if outdated is not None:
            self.aborts += 1
            return outdated
        if ins and outs:
            self.aborts += 1
            return min(read_keys & outs[0].writes)
        for entry in outs:
            # committer -rw-> entry -rw-> somewhere: entry is a pivot.
            if entry.out_rw:
                self.aborts += 1
                return min(read_keys & entry.writes)
        for entry in ins:
            # somewhere -rw-> entry -rw-> committer: entry is a pivot.
            if entry.in_rw:
                self.aborts += 1
                return min(write_set & entry.reads)
        return None

    def admit(
        self,
        start_ts: int,
        commit_ts: int,
        writes: Iterable[WriteKey],
        reads: Iterable[ReadPair],
        in_rw: bool = False,
        out_rw: bool = False,
    ) -> None:
        """Register a committed transaction and propagate edge flags.

        ``in_rw``/``out_rw`` seed the entry's flags with edges discovered
        elsewhere (the sharded protocol aggregates per-slice edges at the
        coordinator); local edges against the window are recomputed here
        so the flags never under-report.
        """
        read_pairs = tuple(reads)
        entry = _SSIEntry(
            next(self._seq),
            commit_ts,
            frozenset(writes),
            frozenset(key for key, _version in read_pairs),
        )
        ins, outs, _outdated = self._edges(start_ts, entry.writes, read_pairs)
        entry.in_rw = in_rw or bool(ins)
        entry.out_rw = out_rw or bool(outs)
        # The new commit gives each out-target an incoming edge and each
        # in-source an outgoing one.
        for other in outs:
            other.in_rw = True
        for other in ins:
            other.out_rw = True
        self._entries[entry.seq] = entry
        for key in entry.writes:
            self._writers.setdefault(key, []).append(entry)
        for key in entry.reads:
            self._readers.setdefault(key, []).append(entry)
        while len(self._entries) > self.horizon:
            _seq, dropped = self._entries.popitem(last=False)
            for key in dropped.writes:
                keyed = self._writers[key]
                keyed.remove(dropped)
                if not keyed:
                    del self._writers[key]
            for key in dropped.reads:
                keyed = self._readers[key]
                keyed.remove(dropped)
                if not keyed:
                    del self._readers[key]
            self._floor_ts = max(self._floor_ts, dropped.commit_ts)

    def raise_floor(self, ts: int) -> None:
        """Force conservative aborts for snapshots older than ``ts`` --
        the restart path, where pre-crash window contents are gone."""
        self._floor_ts = max(self._floor_ts, ts)

    def window_size(self) -> Tuple[int, int]:
        """(tracked transactions, floor timestamp) -- for introspection."""
        return len(self._entries), self._floor_ts
