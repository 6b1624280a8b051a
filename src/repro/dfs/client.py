"""Filesystem client embedded in a host node (region server, master, ...).

The client resolves replica sets through the namenode (with caching),
drives the append pipeline starting at the first replica, and falls over to
surviving replicas on reads.  It is a plain component, not a node: its RPCs
are issued by -- and die with -- the host.

Reads verify record checksums: a replica that answers with torn or
corrupt records is skipped in favour of a healthy one and repaired in the
background from the verified copy.  :meth:`DfsClient.read_region_salvaged`
is the one salvaging read -- a failover's fetch of a region's lost edits,
which must never silently replay damaged records: it merges the replicas
record by record and truncates through
:func:`~repro.storage.salvage_prefix` at the first record *no* replica
holds intact.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CorruptRecord, DfsError, FileNotFound, RpcError, RpcTimeout
from repro.sim.node import Node
from repro.sim.retry import RetryPolicy
from repro.storage import SalvageReport, salvage_prefix

WireRecord = Tuple[Any, int]

#: Backoff shaping for pipeline retries; the loops' ``max_attempts``
#: arguments own the give-up rule.
DEFAULT_DFS_RETRY = RetryPolicy(
    base_delay=0.1, multiplier=2.0, max_delay=1.0, jitter=0.2, max_attempts=None
)

#: Namenode metadata calls are retried with a bound: they are cheap, and
#: all of them except ``create`` are idempotent.  A permanently-unreachable
#: namenode surfaces as :class:`RpcTimeout` instead of hanging the caller
#: (``Node.call`` without a timeout waits forever, which under message
#: loss would wedge region opens, WAL syncs, and log splitting).
NAMESPACE_RETRY = RetryPolicy(
    base_delay=0.1, multiplier=2.0, max_delay=1.0, jitter=0.2, max_attempts=8
)

#: Deadline on each namenode round trip.
NAMENODE_TIMEOUT = 10.0

#: The salvage merge's entry for a record a backup verified and then
#: filtered out: intact, so it counts as kept, but it carries none of the
#: reader's records or bytes.
_VOUCHED_FOR: Tuple[Any, int, str] = (None, 0, "ok")


def _merge_rank(copy: Tuple[Any, int, str]) -> Tuple[bool, bool]:
    """Which replica's copy of a record the salvage merge keeps (lowest
    first, the earliest replica on a tie): a returned intact copy, then a
    backup's vouching for a filtered-out record, then a damaged copy.

    A returned copy outranks a vouching because replicas can disagree on
    which record sits at an index: a retried segment-header append that
    lands twice on one replica shifts every later record there by one.
    """
    return copy[2] != "ok", copy is _VOUCHED_FOR


class DfsClient:
    """Access to the simulated DFS from a host node."""

    def __init__(
        self,
        host: Node,
        namenode: str = "namenode",
        replication: int = 2,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.host = host
        self.namenode = namenode
        self.replication = replication
        self.retry_policy = retry_policy or DEFAULT_DFS_RETRY
        self._replica_cache: Dict[str, List[str]] = {}
        #: Integrity counters: replica responses containing damaged
        #: records, repair casts issued, and non-clean salvage scans.
        self.corrupt_reads = 0
        self.records_repaired = 0
        self.salvages = 0
        #: Non-clean reports from :meth:`read_region_salvaged` (audit trail).
        self.salvage_reports: List[SalvageReport] = []

    def _backoff(self, attempt: int):
        """Timeout event for the pause after ``attempt`` failed tries."""
        self.host.net.rpc_retries += 1
        return self.host.sleep(
            self.retry_policy.backoff(attempt, self.host.retry_rng)
        )

    # ------------------------------------------------------------------
    # namespace
    # ------------------------------------------------------------------
    def _ns_call(self, method: str, **payload):
        """Bounded-retry namenode metadata call.  (Generator API.)"""
        result = yield from self.host.call_with_retry(
            self.namenode,
            method,
            policy=NAMESPACE_RETRY,
            timeout=NAMENODE_TIMEOUT,
            retry_on=(RpcTimeout,),
            **payload,
        )
        return result

    def create(
        self, path: str, preferred: Optional[str] = None, scatter: bool = False
    ):
        """Create ``path``; returns its replica list.  (Generator API.)

        ``scatter=True`` asks the namenode for a seeded-random replica set
        instead of local-first placement (scattered WAL backups).

        Create is not idempotent at the namenode (a repeat raises
        FileAlreadyExists), so a timed-out attempt that may have executed
        is resolved by checking for the file: DFS paths here are
        creator-unique (WAL segments and store files carry their server's
        name), so finding it after our own timeout means our create landed.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                meta = yield self.host.call(
                    self.namenode,
                    "create",
                    timeout=NAMENODE_TIMEOUT,
                    path=path,
                    replication=self.replication,
                    preferred=preferred,
                    scatter=scatter,
                )
                self._replica_cache[path] = meta["replicas"]
                return meta["replicas"]
            except RpcTimeout:
                if NAMESPACE_RETRY.gives_up(attempt, 0.0):
                    raise
                yield self._backoff(attempt)
                if (yield from self.exists(path)):
                    meta = yield from self.stat(path)
                    return meta["replicas"]

    def exists(self, path: str):
        """Whether ``path`` exists."""
        result = yield from self._ns_call("exists", path=path)
        return result

    def stat(self, path: str):
        """Namenode metadata for ``path``."""
        meta = yield from self._ns_call("stat", path=path)
        self._replica_cache[path] = meta["replicas"]
        return meta

    def close(self, path: str):
        """Mark ``path`` immutable."""
        result = yield from self._ns_call("close", path=path)
        return result

    def delete(self, path: str):
        """Delete ``path`` everywhere."""
        self._replica_cache.pop(path, None)
        result = yield from self._ns_call("delete", path=path)
        return result

    def list_dir(self, prefix: str):
        """All paths under ``prefix``."""
        result = yield from self._ns_call("list_dir", prefix=prefix)
        return result

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def _replicas(self, path: str):
        replicas = self._replica_cache.get(path)
        if replicas is None:
            meta = yield from self.stat(path)
            replicas = meta["replicas"]
        return replicas

    def _live_pipeline(self, path: str, refresh: bool = False):
        """The reachable replicas of ``path``, head first.

        HDFS clients exclude failed datanodes from the write pipeline and
        continue on the survivors; the namenode's monitor prunes and
        re-replicates in the background.
        """
        if refresh:
            self._replica_cache.pop(path, None)
        replicas = yield from self._replicas(path)
        return [dn for dn in replicas if self.host.net.reachable(self.host.addr, dn)]

    def append(
        self, path: str, records: List[WireRecord], durable: bool = True,
        max_attempts: int = 10, min_replicas: int = 1,
    ):
        """Append records through the replica pipeline.

        Returns the new replica length.  When ``durable`` is set, success
        means every *reachable* replica has the records on stable storage
        (a degraded pipeline, exactly as in HDFS; the namenode restores
        full replication in the background for closed files).

        ``min_replicas`` lets durability-critical writers (the WAL) refuse
        a pipeline degraded below a floor: 'durable' on a single replica
        is one machine death away from silent loss.
        """
        nbytes = sum(n for _p, n in records)
        floor = max(1, min_replicas) if durable else 1
        last_error: Optional[Exception] = None
        for attempt in range(max_attempts):
            pipeline = yield from self._live_pipeline(path, refresh=attempt > 0)
            if len(pipeline) < floor:
                last_error = DfsError(
                    f"{path} has {len(pipeline)} reachable replicas, "
                    f"needs {floor}"
                )
                yield self._backoff(attempt + 1)
                continue
            try:
                length = yield self.host.call(
                    pipeline[0],
                    "append",
                    timeout=10.0,
                    path=path,
                    records=records,
                    pipeline=pipeline[1:],
                    durable=durable,
                    size=max(nbytes, 64),
                )
            except RpcError as exc:
                last_error = exc
                yield self._backoff(attempt + 1)
                continue
            self.host.cast(
                self.namenode, "report_length", path=path, length=length,
                nbytes=nbytes,
            )
            return length
        raise DfsError(f"append to {path!r} failed: {last_error!r}")

    def sync(self, path: str, max_attempts: int = 10, min_replicas: int = 1):
        """Durably persist any buffered records on every reachable replica."""
        floor = max(1, min_replicas)
        last_error: Optional[Exception] = None
        for attempt in range(max_attempts):
            pipeline = yield from self._live_pipeline(path, refresh=attempt > 0)
            if len(pipeline) < floor:
                last_error = DfsError(
                    f"{path} has {len(pipeline)} reachable replicas, "
                    f"needs {floor}"
                )
                yield self._backoff(attempt + 1)
                continue
            try:
                result = yield self.host.call(
                    pipeline[0], "sync", timeout=10.0, path=path,
                    pipeline=pipeline[1:],
                )
                return result
            except RpcError as exc:
                last_error = exc
                yield self._backoff(attempt + 1)
        raise DfsError(f"sync of {path!r} failed: {last_error!r}")

    def read(self, path: str, start: int = 0, count: Optional[int] = None):
        """Read records, trying each replica until one answers *verified*.

        A replica whose response contains torn/corrupt records is skipped
        (counted in ``corrupt_reads``); once a fully-verified response is
        found, the damaged replicas are repaired in the background from
        it.  Returns ``(payload, nbytes)`` pairs.
        """
        replicas = yield from self._replicas(path)
        last_error: Optional[Exception] = None
        damaged: List[Tuple[str, List[int]]] = []
        for dn in replicas:
            if not self.host.net.reachable(self.host.addr, dn):
                continue
            try:
                result = yield self.host.call(
                    dn, "read", timeout=5.0, path=path, start=start, count=count
                )
            except (RpcError, FileNotFound) as exc:
                last_error = exc
                continue
            bad = [i for i, (_p, _n, state) in enumerate(result) if state != "ok"]
            if not bad:
                self._repair(path, start, result, damaged)
                return [(p, n) for p, n, _state in result]
            self.corrupt_reads += 1
            damaged.append((dn, bad))
            last_error = CorruptRecord(
                f"{path!r}: {len(bad)} damaged record(s) on {dn}"
            )
        raise DfsError(f"no live replica could serve {path!r}: {last_error!r}")

    def _repair(
        self,
        path: str,
        start: int,
        clean: List[Tuple[Any, int, str]],
        damaged: List[Tuple[str, List[int]]],
    ) -> None:
        """Push verified copies at the replicas that answered damaged."""
        for dn, bad in damaged:
            for i in bad:
                if i >= len(clean):
                    continue
                payload, nbytes, _state = clean[i]
                self.host.cast(
                    dn, "repair_record", path=path, index=start + i,
                    payload=payload, nbytes=nbytes, size=max(nbytes, 64),
                )
                self.records_repaired += 1

    def read_region_salvaged(self, path: str, regions: List[str]):
        """Region-filtered salvaging read of one WAL segment.  (Generator API.)

        The fragment-fetch primitive of parallel recovery: each recipient
        of a recovery partition reads from the scattered backups only the
        records belonging to *its* regions, so per-recipient read cost
        shrinks as the plan fans out (datanodes charge bandwidth only for
        the records they return).

        Replica responses are sparse -- ``(index, payload, nbytes, state)``
        plus the replica's total record count -- and are merged into one
        entry per record index: an intact copy wins over a damaged one
        (:func:`_merge_rank`).  A record a replica verified but filtered
        out is an intact placeholder (the backup checked its checksum to
        read its region id), so filtering never weakens the salvage
        guarantee.  The merged stream goes through
        :func:`~repro.storage.salvage_prefix`, which cuts it at the first
        record *no* replica holds intact.  Damaged copies within the kept
        prefix are repaired in the background, in index order.  Returns
        ``(records, report)`` with records as ``(payload, nbytes)`` pairs
        for the requested regions (segment headers included, for writer
        validation upstream).
        """
        replicas = yield from self._replicas(path)
        responses: List[Tuple[str, int, Dict[int, Tuple[Any, int, str]]]] = []
        last_error: Optional[Exception] = None
        for dn in replicas:
            if not self.host.net.reachable(self.host.addr, dn):
                continue
            try:
                result = yield self.host.call(
                    dn, "read_filtered", timeout=5.0, path=path,
                    regions=list(regions),
                )
            except (RpcError, FileNotFound) as exc:
                last_error = exc
                continue
            entries = {
                index: (payload, nbytes, state)
                for index, payload, nbytes, state in result["entries"]
            }
            responses.append((dn, result["total"], entries))
        if not responses:
            raise DfsError(f"no live replica could serve {path!r}: {last_error!r}")
        total = max(count for _dn, count, _entries in responses)
        merged: List[Tuple[Any, int, str]] = []
        for index in range(total):
            copies = [
                entries.get(index, _VOUCHED_FOR)
                for _dn, count, entries in responses
                if index < count
            ]
            merged.append(min(copies, key=_merge_rank))
        _kept, report = salvage_prefix(path, merged)
        report.replicas_missing = len(replicas) - len(responses)
        records: List[WireRecord] = []
        for index, entry in enumerate(merged[: report.kept]):
            if entry is _VOUCHED_FOR:
                continue  # intact on a backup, but not one of our regions
            payload, nbytes, _state = entry
            records.append((payload, nbytes))
            damaged = [
                dn for dn, _count, entries in responses
                if entries.get(index, _VOUCHED_FOR)[2] != "ok"
            ]
            for dn in damaged:
                self.host.cast(
                    dn, "repair_record", path=path, index=index,
                    payload=payload, nbytes=nbytes, size=max(nbytes, 64),
                )
            self.records_repaired += len(damaged)
            report.repaired += bool(damaged)
        if not report.clean:
            self.salvages += 1
            self.salvage_reports.append(report)
        return records, report
