"""Distributed recovery logging.

Section 4.1 notes the TM's logging sub-component "can be distributed
across several nodes should one logging node not be sufficient".  This
module provides that scale-out path: dedicated :class:`LoggerShard` nodes,
each with its own stable storage, and a :class:`DistributedRecoveryLog`
facade at the TM that stripes commit records across shards with per-shard
group commit and merges them back (by commit timestamp) for recovery
fetches.

The same interface as the local :class:`~repro.txn.log.RecoveryLog`,
which is all the transaction manager uses of either: ``append`` returns
an event that fires at durability; ``fetch_gen`` / ``truncate_gen`` /
``stats_gen`` are the recovery-side operations; ``restart`` brings the
log back after its host revived; ``last_ts`` / ``truncated_below`` are
the retained range's two ends.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional

from repro.config import TxnSettings
from repro.metrics.registry import MetricsRegistry, status_envelope
from repro.metrics.spans import tracer_for
from repro.sim.disk import Disk
from repro.sim.events import Event, Interrupt
from repro.sim.kernel import Kernel
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.resource import SimQueue
from repro.txn.log import LogRecord, LogStats


class LoggerShard(Node):
    """One dedicated logging node with its own stable storage."""

    def __init__(
        self,
        kernel: Kernel,
        net: Network,
        addr: str,
        settings: Optional[TxnSettings] = None,
    ) -> None:
        super().__init__(kernel, net, addr)
        self.settings = settings or TxnSettings()
        disk_cfg = self.settings.log_disk
        self.disk = Disk(
            kernel,
            name=f"{addr}-disk",
            sync_latency=disk_cfg.sync_latency,
            bytes_per_second=disk_cfg.bytes_per_second,
            faults=disk_cfg.faults,
        )
        self._records: List[LogRecord] = []  # ascending commit_ts
        self._timestamps: List[int] = []
        self.stats = LogStats()
        #: Registry view of the shard counters (see ``metrics()``).
        self.registry = MetricsRegistry("logger_shard", addr)
        self._tracer = tracer_for(kernel)

    def metrics(self) -> dict:
        """Uniform registry snapshot (shard counters mirrored in)."""
        for name in ("appended", "syncs", "truncated", "truncated_bytes"):
            self.registry.counter(name).set(getattr(self.stats, name))
        self.registry.gauge("length").set(len(self._records))
        return self.registry.snapshot()

    def rpc_status(self, sender: str):
        """The uniform component status envelope."""
        return status_envelope("logger_shard", self.addr, self.metrics())

    def rpc_shard_append(self, sender: str, records: List[dict]):
        """Durably append a batch (one disk sync for the whole batch).

        A transient disk error surfaces to the TM's batcher as a remote
        failure; the batcher retries and the timestamp dedup below makes
        the repeat safe.
        """
        parsed = [LogRecord.from_wire(w) for w in records]
        nbytes = sum(max(r.nbytes, 96) for r in parsed)
        span = self._tracer.begin(
            "log.group_sync", shard=self.addr, batch=len(parsed)
        )
        yield from self.disk.sync_write(nbytes)
        span.end()
        for record in parsed:
            idx = bisect.bisect_left(self._timestamps, record.commit_ts)
            if idx < len(self._timestamps) and self._timestamps[idx] == record.commit_ts:
                continue  # duplicate delivery
            self._timestamps.insert(idx, record.commit_ts)
            self._records.insert(idx, record)
            self.stats.appended += 1
        self.stats.syncs += 1
        self.stats.group_sizes.append(len(parsed))
        return len(parsed)

    def rpc_shard_fetch(
        self, sender: str, after_ts: int, client_id: Optional[str] = None
    ) -> List[dict]:
        """Records with commit_ts > after_ts (optionally one client's)."""
        idx = bisect.bisect_right(self._timestamps, after_ts)
        records = self._records[idx:]
        if client_id is not None:
            records = [r for r in records if r.client_id == client_id]
        return [r.to_wire() for r in records]

    def rpc_shard_truncate(self, sender: str, up_to_ts: int) -> int:
        """Drop records with commit_ts < up_to_ts."""
        idx = bisect.bisect_left(self._timestamps, up_to_ts)
        if idx > 0:
            self.stats.truncated_bytes += sum(
                record.nbytes for record in self._records[:idx]
            )
            del self._records[:idx]
            del self._timestamps[:idx]
            self.stats.truncated += idx
        return idx

    def rpc_shard_stats(self, sender: str) -> dict:
        """Shard counters for aggregation at the TM."""
        return {
            "addr": self.addr,
            "length": len(self._records),
            "appended": self.stats.appended,
            "syncs": self.stats.syncs,
            "truncated": self.stats.truncated,
            "truncated_bytes": self.stats.truncated_bytes,
        }


class DistributedRecoveryLog:
    """TM-side facade striping commit records over logger shards."""

    def __init__(
        self, host: Node, shard_addrs: List[str], settings: Optional[TxnSettings] = None
    ) -> None:
        if not shard_addrs:
            raise ValueError("need at least one logger shard")
        self.host = host
        self.settings = settings or TxnSettings()
        self.shards = list(shard_addrs)
        self._queues: Dict[str, SimQueue] = {
            shard: SimQueue(host.kernel) for shard in self.shards
        }
        self.stats = LogStats()
        # The retained range's two ends, kept with the TM's other stable
        # metadata (prepare journal, decision registry).
        #: The newest commit timestamp known durable on a shard -- one a
        #: shard acknowledged or a fetch returned (truncation floor if none).
        self.last_ts = 0
        #: Everything below this timestamp has been discarded.
        self.truncated_below = 0
        host.crash_hooks.append(self.on_host_crash)
        self.restart()

    def restart(self) -> None:
        """Respawn the per-shard committers: at construction, and after
        the host node revived.  The records themselves live on the logger
        shards, so there is nothing to salvage here."""
        for shard, queue in self._queues.items():
            self.host.spawn(
                self._shard_committer(shard, queue), name=f"log-batcher:{shard}"
            )

    def on_host_crash(self) -> None:
        """Drop queued appends at crash time, not at restart: their
        waiters died with this crash, whereas an append enqueued between
        revive() and :meth:`restart` belongs to a live handler (the
        reasoning of :meth:`RecoveryLog.on_host_crash`)."""
        for queue in self._queues.values():
            queue.drain()

    # ------------------------------------------------------------------
    # append path
    # ------------------------------------------------------------------
    def append(self, record: LogRecord) -> Event:
        """Queue a commit record; the event fires once its shard has it
        durable.  Records stripe round-robin by commit timestamp."""
        done = Event(self.host.kernel)
        shard = self.shards[record.commit_ts % len(self.shards)]
        self._queues[shard].put((record, done))
        return done

    def _shard_committer(self, shard: str, queue: SimQueue):
        try:
            while True:
                first = yield queue.get()
                if self.settings.group_commit_interval > 0:
                    yield self.host.sleep(self.settings.group_commit_interval)
                batch = [first] + queue.drain()
                while batch:
                    chunk = batch[: self.settings.group_commit_max]
                    batch = batch[self.settings.group_commit_max :]
                    wire = [record.to_wire() for record, _done in chunk]
                    nbytes = sum(record.nbytes for record, _done in chunk)
                    span = tracer_for(self.host.kernel).begin(
                        "log.shard_append", shard=shard, batch=len(chunk)
                    )
                    while True:
                        try:
                            yield self.host.call(
                                shard,
                                "shard_append",
                                timeout=10.0,
                                size=max(nbytes, 96),
                                records=wire,
                            )
                            span.end()
                            break
                        except Exception:
                            # Logging nodes are reliable stable storage in
                            # the paper's model, but the *network* to them
                            # may hiccup; duplicates are deduplicated at
                            # the shard, so retrying is safe.
                            yield self.host.sleep(0.05)
                    self.stats.group_sizes.append(len(chunk))
                    for record, done in chunk:
                        self.stats.appended += 1
                        self.last_ts = max(self.last_ts, record.commit_ts)
                        if not done.triggered:
                            done.succeed(record.commit_ts)
        except Interrupt:
            return

    # ------------------------------------------------------------------
    # recovery-side operations (generator API)
    # ------------------------------------------------------------------
    def fetch_gen(self, after_ts: int, client_id: Optional[str] = None):
        """Fan out to every shard and merge by commit timestamp."""
        calls = [
            self.host.call(
                shard, "shard_fetch", timeout=10.0,
                after_ts=after_ts, client_id=client_id,
            )
            for shard in self.shards
        ]
        replies = yield self.host.kernel.all_of(calls)
        merged: List[LogRecord] = []
        for wire_records in replies:
            merged.extend(LogRecord.from_wire(w) for w in wire_records)
        merged.sort(key=lambda r: r.commit_ts)
        if merged:
            # A shard may hold an append whose acknowledgement died with
            # the previous incarnation of the host.
            self.last_ts = max(self.last_ts, merged[-1].commit_ts)
        return merged

    def truncate_gen(self, up_to_ts: int):
        """Broadcast truncation; returns the total records dropped."""
        calls = [
            self.host.call(shard, "shard_truncate", timeout=10.0, up_to_ts=up_to_ts)
            for shard in self.shards
        ]
        dropped = yield self.host.kernel.all_of(calls)
        total = sum(dropped)
        self.stats.truncated += total
        self.truncated_below = max(self.truncated_below, up_to_ts)
        self.last_ts = max(self.last_ts, up_to_ts)
        return total

    def stats_gen(self):
        """Aggregate shard statistics."""
        calls = [
            self.host.call(shard, "shard_stats", timeout=10.0)
            for shard in self.shards
        ]
        replies = yield self.host.kernel.all_of(calls)
        return {
            "shards": replies,
            "length": sum(r["length"] for r in replies),
            "appended": sum(r["appended"] for r in replies),
            "syncs": sum(r["syncs"] for r in replies),
            "truncated": sum(r["truncated"] for r in replies),
            "truncated_bytes": sum(r["truncated_bytes"] for r in replies),
        }
