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

from functools import partial
from typing import Dict, List, Optional

from repro.config import TxnSettings
from repro.metrics.registry import MetricsRegistry, status_envelope
from repro.metrics.spans import tracer_for
from repro.sim.events import Event
from repro.sim.kernel import Kernel
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.resource import SimQueue
from repro.txn.log import LogRecord, LogStats, LogStore, group_commit


class LoggerShard(Node):
    """One dedicated logging node hosting a :class:`LogStore` on its own
    stable storage."""

    def __init__(
        self,
        kernel: Kernel,
        net: Network,
        addr: str,
        settings: Optional[TxnSettings] = None,
    ) -> None:
        super().__init__(kernel, net, addr)
        self.settings = settings or TxnSettings()
        self.store = LogStore(kernel, f"{addr}-disk", self.settings.log_disk)
        #: Registry view of the shard counters (see ``metrics()``).
        self.registry = MetricsRegistry("logger_shard", addr)

    def on_crash(self) -> None:
        """The store's volatile tail takes the power cut."""
        self.store.power_cut()

    def on_revive(self) -> None:
        """Cut a torn tail off before anything is stored behind it."""
        self.store.verify()

    def metrics(self) -> dict:
        """Uniform registry snapshot (shard counters mirrored in)."""
        for name in ("appended", "syncs", "truncated", "truncated_bytes"):
            self.registry.counter(name).set(getattr(self.store.stats, name))
        self.registry.gauge("length").set(self.store.length)
        return self.registry.snapshot()

    def rpc_status(self, sender: str):
        """The uniform component status envelope."""
        return status_envelope("logger_shard", self.addr, self.metrics())

    def rpc_shard_append(self, sender: str, records: List[dict]):
        """Durably append a batch (one disk sync for the whole batch).

        A transient disk error surfaces to the TM's batcher as a remote
        failure; the batcher retries and the store's timestamp dedup
        makes the repeat safe.
        """
        parsed = [LogRecord.from_wire(w) for w in records]
        nbytes = sum(max(r.nbytes, 96) for r in parsed)
        yield from self.store.write(parsed, nbytes)
        return len(parsed)

    def rpc_shard_fetch(
        self, sender: str, after_ts: int, client_id: Optional[str] = None
    ) -> List[dict]:
        """Records with commit_ts > after_ts (optionally one client's)."""
        return [r.to_wire() for r in self.store.fetch(after_ts, client_id)]

    def rpc_shard_truncate(self, sender: str, up_to_ts: int) -> int:
        """Drop records with commit_ts < up_to_ts."""
        return self.store.truncate(up_to_ts)

    def rpc_shard_stats(self, sender: str) -> dict:
        """Shard counters for aggregation at the TM."""
        return dict(self.store.headline(), addr=self.addr)


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
                group_commit(queue, self.settings, partial(self._write_chunk, shard)),
                name=f"log-batcher:{shard}",
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

    def _write_chunk(self, shard: str, records: List[LogRecord], nbytes: int):
        span = tracer_for(self.host.kernel).begin(
            "log.shard_append", shard=shard, batch=len(records)
        )
        wire = [record.to_wire() for record in records]
        while True:
            try:
                yield self.host.call(
                    shard,
                    "shard_append",
                    timeout=10.0,
                    size=max(nbytes, 96),
                    records=wire,
                )
                break
            except Exception:
                # Logging nodes are reliable stable storage in the paper's
                # model, but the *network* to them may hiccup (and their
                # device may refuse a write); duplicates are deduplicated
                # at the shard, so retrying is safe.
                yield self.host.sleep(0.05)
        span.end()
        self.stats.group_sizes.append(len(records))
        self.stats.appended += len(records)
        self.last_ts = max(self.last_ts, *(r.commit_ts for r in records))

    # ------------------------------------------------------------------
    # recovery-side operations (generator API)
    # ------------------------------------------------------------------
    def _fan_out(self, method: str, **payload):
        """Call ``method`` on every shard; the replies in shard order."""
        calls = [
            self.host.call(shard, method, timeout=10.0, **payload)
            for shard in self.shards
        ]
        return (yield self.host.kernel.all_of(calls))

    def fetch_gen(self, after_ts: int, client_id: Optional[str] = None):
        """Fan out to every shard and merge by commit timestamp."""
        replies = yield from self._fan_out(
            "shard_fetch", after_ts=after_ts, client_id=client_id
        )
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
        total = sum((yield from self._fan_out("shard_truncate", up_to_ts=up_to_ts)))
        self.stats.truncated += total
        self.truncated_below = max(self.truncated_below, up_to_ts)
        self.last_ts = max(self.last_ts, up_to_ts)
        return total

    def stats_gen(self):
        """Every shard's :meth:`LogStore.headline`, and their sums."""
        replies = yield from self._fan_out("shard_stats")
        totals = {
            key: sum(r[key] for r in replies) for key in replies[0] if key != "addr"
        }
        return dict(totals, shards=replies)
