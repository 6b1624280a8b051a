"""Logger shards: the nodes that host a recovery log's remote members.

Section 4.1 notes the TM's logging sub-component "can be distributed
across several nodes should one logging node not be sufficient".  A
:class:`LoggerShard` is one such node: a :class:`~repro.txn.log.LogStore`
on its own stable storage, which the TM's
:class:`~repro.txn.log.RecoveryLog` reaches as a
:class:`~repro.txn.log.RemoteStore` member.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import TxnSettings
from repro.metrics.registry import MetricsRegistry
from repro.sim.kernel import Kernel
from repro.sim.network import Network
from repro.sim.node import Node
from repro.txn.log import LogRecord, LogStore, mirror_log_position


class LoggerShard(Node):
    """One dedicated logging node: a remote member's :class:`LogStore` on
    its own stable storage."""

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
        for name in ("syncs", "truncated", "truncated_bytes"):
            self.registry.counter(name).set(getattr(self.store.stats, name))
        mirror_log_position(self.registry, self.store)
        return self.registry.snapshot()

    def rpc_shard_append(self, sender: str, records: List[dict]):
        """Durably append a batch (one disk sync for the whole batch).

        A transient disk error surfaces to the TM's log as a remote
        failure; its write-retry loop repeats the append, and the store's
        timestamp dedup makes the repeat safe.
        """
        parsed = [LogRecord.from_wire(w) for w in records]
        yield from self.store.write(parsed, sum(r.nbytes for r in parsed))
        return len(parsed)

    def rpc_shard_fetch(
        self, sender: str, after_ts: int, client_id: Optional[str] = None
    ) -> List[dict]:
        """Records with commit_ts > after_ts (optionally one client's)."""
        return [r.to_wire() for r in self.store.fetch(after_ts, client_id)]

    def rpc_shard_truncate(self, sender: str, up_to_ts: int) -> int:
        """Drop records with commit_ts < up_to_ts."""
        return self.store.truncate(up_to_ts)
