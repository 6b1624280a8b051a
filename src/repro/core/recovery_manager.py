"""The recovery manager (Algorithms 2 and 4): the node around the book.

A middleware service associated with the transaction manager (the paper
co-hosts both on one VM, which the cluster builder reproduces by sharing a
CPU resource).  The thresholds, pins and failure rules are
:class:`~repro.core.tracking.ThresholdBook`'s; this node does their I/O:

* polls the heartbeat znodes on the CPU it shares with the TM, publishes
  the global T_F and T_P (servers read T_F on their own heartbeats) and
  truncates the TM's recovery log at the book's truncation point;
* replays a dead client's write-sets committed after T_F^r(c);
* on server failures (reported by the master's hook) replays, per affected
  region, the write-sets committed after T_P^r(s) that fall in the region,
  piggybacking T_P^r(s) so live servers inherit responsibility -- and only
  then lets the region go online;
* restarts from the state it keeps in the coordination service.

Transaction processing on the available servers continues throughout: the
recovery manager never stops the world.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.config import KvSettings, RecoverySettings
from repro.core.paths import (
    CLIENTS_DIR,
    GLOBAL_PATH,
    PENDING_DIR,
    SERVERS_DIR,
    pending_path,
)
from repro.core.recovery_client import RecoveryClient
from repro.core.tracking import ThresholdBook
from repro.errors import RpcError, RpcTimeout
from repro.kvstore.client import KvClient
from repro.metrics.registry import MetricsRegistry
from repro.metrics.spans import tracer_for
from repro.sim.events import Interrupt
from repro.sim.kernel import Kernel
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.resource import Resource
from repro.sim.retry import RetryPolicy
from repro.zk.client import ZkClient, ZkWatcherMixin

#: Replay log fetches must survive storms: a dead recovery process would
#: leave its client pinned RECOVERING -- and the global T_F frozen --
#: forever, so the fetch never gives up.
RECOVERY_FETCH_RETRY = RetryPolicy(
    base_delay=0.5, multiplier=2.0, max_delay=2.0, jitter=0.2, max_attempts=None
)


class RecoveryManager(ZkWatcherMixin, Node):
    """The failure-detection and recovery middleware service."""

    def __init__(
        self,
        kernel: Kernel,
        net: Network,
        addr: str = "rm",
        settings: Optional[RecoverySettings] = None,
        kv_settings: Optional[KvSettings] = None,
        tm_addrs: Sequence[str] = ("tm",),
        master: str = "master",
        zk_addr: str = "zk",
        shared_cpu: Optional[Resource] = None,
    ) -> None:
        super().__init__(kernel, net, addr)
        self.settings = settings or RecoverySettings()
        #: TM shard addresses: the fence / fetch / truncate fan-out
        #: targets, and all the recovery middleware knows of the topology.
        self.tm_addrs: List[str] = list(tm_addrs)
        self.zk = ZkClient(self, zk_addr=zk_addr)
        self.kv = KvClient(self, master=master, settings=kv_settings)
        self.recovery_client = RecoveryClient(self.kv)
        self.cpu = shared_cpu or Resource(kernel, capacity=2)
        self.book = ThresholdBook(self.settings)
        self._running = False
        #: Registry behind all RM statistics (see ``metrics()``).
        self.registry = MetricsRegistry("rm", addr)
        # Hot-path counters, held directly so increments skip the
        # registry lookup.  Read them via ``metrics()["counters"]``.
        (
            self._n_client_recoveries,
            self._n_server_region_recoveries,
            self._n_replayed_write_sets,
            self._n_replayed_fragments,
            self._n_truncation_requests,
        ) = self.registry.counters(
            "client_recoveries", "server_region_recoveries",
            "replayed_write_sets", "replayed_fragments",
            "truncation_requests",
        )
        self._tracer = tracer_for(kernel)
        #: Open detection spans per pending region: started when the
        #: master's failure hook pins the region, ended when its replay
        #: releases the pin -- the paper's detect-to-unblock window.
        self._detect_spans: Dict[str, object] = {}

    def metrics(self) -> dict:
        """Uniform registry snapshot for the recovery manager."""
        return self.registry.snapshot()

    # The book's state, readable where it always was.
    global_tf = property(lambda self: self.book.global_tf)
    global_tp = property(lambda self: self.book.global_tp)
    pending_regions = property(lambda self: self.book.pending_regions)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, recover: bool = False):
        """Boot the service.  (Generator API; run as a process.)

        With ``recover=True`` the manager first catches up from the state
        in the coordination service (Section 3.3): the published global
        thresholds, the registered clients/servers, and any pending region
        recoveries interrupted by our own failure.
        """
        yield from self.zk.start_session()
        if recover:
            yield from self._recover_own_state()
        else:
            try:
                yield from self.zk.create(
                    GLOBAL_PATH, data={"tf": self.global_tf, "tp": self.global_tp}
                )
            except Exception:
                pass  # already exists (e.g. a previous incarnation)
        self._running = True
        self.spawn(self._poll_loop(), name="rm-poll")
        return self

    def _recover_own_state(self):
        book = self.book
        try:
            node = yield from self.zk.get(GLOBAL_PATH)
            book.global_tf = node["data"].get("tf", 0)
            book.global_tp = node["data"].get("tp", 0)
        except Exception:
            yield from self.zk.create(GLOBAL_PATH, data={"tf": 0, "tp": 0})
        pending = yield from self.zk.get_children(PENDING_DIR)
        if pending:
            snapshots = yield from self.zk.multi_get(pending)
            book.restore_pins(snapshots, self.kernel.now)

    # ------------------------------------------------------------------
    # heartbeat polling (Algorithm 2 receive_heartbeat, both kinds)
    # ------------------------------------------------------------------
    @property
    def poll_interval(self) -> float:
        """How often heartbeats are ingested (half the shortest interval)."""
        shortest = min(
            self.settings.client_heartbeat_interval,
            self.settings.server_heartbeat_interval,
        )
        return max(0.02, min(shortest / 2.0, 0.5))

    def _poll_loop(self):
        try:
            while self._running:
                yield self.sleep(self.poll_interval)
                try:
                    yield from self._poll_once()
                except Interrupt:
                    raise
                except Exception:
                    continue  # transient zk/tm trouble; next tick retries
        except Interrupt:
            return

    def _poll_once(self):
        client_paths = yield from self.zk.get_children(CLIENTS_DIR)
        server_paths = yield from self.zk.get_children(SERVERS_DIR)
        snapshots = yield from self.zk.multi_get(client_paths + server_paths)

        # Heartbeat processing cost, on the CPU shared with the TM.
        yield from self.cpu.use(
            self.settings.heartbeat_fixed_cost
            + len(snapshots) * self.settings.heartbeat_entry_cost
        )

        book, now, n = self.book, self.kernel.now, len(client_paths)
        for client_id in book.ingest_clients(client_paths, snapshots[:n], now):
            # A brand-new registration can reuse a fenced id (drivers
            # re-create dead clients under the same name).  The old
            # incarnation's entry blocked this path until its recovery
            # completed, so the fence has served its purpose -- lift it
            # or the newcomer could never commit.
            for tm in self.tm_addrs:
                self.cast(tm, "unfence_client", client_id=client_id)
        book.ingest_servers(server_paths, snapshots[n:], now)
        for client_id in book.overdue_clients(now):
            self.spawn(
                self._recover_client(client_id), name=f"recover-client:{client_id}"
            )
        book.recompute_globals()
        yield from self.zk.set_data(
            GLOBAL_PATH, data={"tf": book.global_tf, "tp": book.global_tp}
        )
        if self.settings.truncate_log and book.truncation_point > 0:
            for tm in self.tm_addrs:
                self.cast(tm, "truncate_log", up_to_ts=book.truncation_point)
                self._n_truncation_requests.inc()

    # ------------------------------------------------------------------
    # client failure recovery (Algorithm 2 "On failure(c)")
    # ------------------------------------------------------------------
    def _fetch_all_logs(self, after_ts: int, client_id: Optional[str] = None,
                        retry_on=(RpcError,)):
        """Fetch replayable records from every TM shard, merged by commit
        timestamp.  Cross-shard transactions contribute one disjoint slice
        per owner shard that share a commit timestamp; replaying the
        slices back-to-back (stable shard order within a timestamp) is
        equivalent to replaying the whole write-set at once."""
        merged: List[dict] = []
        for tm in self.tm_addrs:
            records = yield from self.call_with_retry(
                tm,
                "fetch_logs",
                policy=RECOVERY_FETCH_RETRY,
                timeout=10.0,
                retry_on=retry_on,
                after_ts=after_ts,
                client_id=client_id,
            )
            merged.extend(records)
        merged.sort(key=lambda record: record["commit_ts"])
        return merged

    def _recover_client(self, client_id: str):
        entry = self.book.clients[client_id]
        span = self._tracer.begin("recovery.client_replay", client=client_id)
        # Fence before fetching: failure detection is by missed heartbeats,
        # so the "dead" client may still be running for a moment -- long
        # enough to commit once more *after* our log fetch, an acked
        # write-set that neither the client (about to self-terminate) nor
        # this replay would ever flush.  The fence makes the TM reject its
        # further commits and returns only once in-flight ones decide, so
        # the fetch below is complete by construction.  Under a sharded TM
        # every shard is fenced before any log is read: a straggler commit
        # racing the fences either decides before its coordinator shard's
        # fence lands (and is then visible to that shard's fetch) or is
        # rejected.
        for tm in self.tm_addrs:
            yield from self.call_with_retry(
                tm,
                "fence_client",
                policy=RECOVERY_FETCH_RETRY,
                timeout=10.0,
                retry_on=(RpcError,),
                client_id=client_id,
            )
        fetch_span = span.child("recovery.log_fetch", client=client_id)
        records = yield from self._fetch_all_logs(
            entry.threshold, client_id=client_id, retry_on=(RpcError,)
        )
        fetch_span.end(records=len(records))
        for record in records:  # ascending commit-timestamp order
            for table, cells in sorted(record["cells_by_table"].items()):
                yield from self.recovery_client.replay_write_set(
                    table, record["commit_ts"], cells
                )
            self._n_replayed_write_sets.inc()
        # Replay complete: the dead client no longer constrains T_F.
        self.book.clients.pop(client_id, None)
        try:
            yield from self.zk.delete(f"{CLIENTS_DIR}/{client_id}")
        except Exception:
            pass
        self._n_client_recoveries.inc()
        span.end(write_sets=len(records))

    # ------------------------------------------------------------------
    # server failure recovery (Algorithm 4)
    # ------------------------------------------------------------------
    def rpc_server_failed(
        self,
        sender: str,
        server: str,
        regions: List[str],
        failover_id: Optional[int] = None,
    ):
        """Master hook: a region server died; pin its T_P and queue its
        regions for transactional recovery.

        Idempotent: the master re-sends the hook when its failover was
        interrupted part-way, and ``failover_id`` names the master-side
        failover it belongs to (:meth:`ThresholdBook.server_failed`).
        """
        book = self.book
        pinned = book.server_failed(server, regions, failover_id, self.kernel.now)
        if pinned is None:  # a repeat of a failover already applied
            entry = book.servers.get(server)
            tp = entry.threshold if entry is not None else None
            return {"tp": tp, "regions": len(regions)}
        tp_failed, fresh, dropped = pinned
        for region in fresh:
            # Detection-to-unblock window; ends when the replay releases
            # the pin (or transfers it to a cascading death, which keeps
            # the original span running).
            if region not in self._detect_spans:
                self._detect_spans[region] = self._tracer.begin(
                    "recovery.detect", region=region, failed_server=server
                )
        for gone in dropped:
            self.spawn(self._forget_server_znode(gone), name=f"forget:{gone}")
        if server in book.servers:
            self.spawn(
                self._persist_pending_markers(server, regions),
                name=f"pending-markers:{server}",
            )
        return {"tp": tp_failed, "regions": len(regions)}

    def _persist_pending_markers(self, server: str, regions: List[str]):
        for region in regions:
            pin = self.book.pending_regions.get(region)
            if pin is None:
                continue  # recovered before we could persist the marker
            data = {"region": region, "failed_server": pin[0], "tp": pin[1]}
            try:
                yield from self.zk.create(pending_path(region), data=data)
            except Interrupt:
                return
            except Exception:
                # Marker already there (a re-sent hook or a cascading
                # failure): refresh it so the current pin -- server and
                # floor -- survives a restart of ours.
                try:
                    yield from self.zk.set_data(pending_path(region), data)
                except Exception:
                    pass

    def rpc_recover_region(
        self, sender: str, region: str, failed_server: str, hosting_server: str
    ):
        """Region-opening hook: replay this region's lost write-sets.

        Called by the server that is opening the region, *after* the
        store's internal recovery and *before* the region goes online; the
        reply releases the gate.
        """
        book = self.book
        info = book.pending_regions.get(region)
        if info is None:
            return {"replayed": 0}  # nothing pending (e.g. duplicate open)
        pinned_server, tp_failed = info

        table, start, end = yield from self._region_range(region)

        detect_span = self._detect_spans.get(region)
        fetch_span = self._tracer.begin(
            "recovery.log_fetch", parent=detect_span, region=region
        )
        with book.replay_floor(hosting_server, region, tp_failed):
            records = yield from self._fetch_all_logs(
                tp_failed, retry_on=(RpcTimeout,)
            )
            fetch_span.end(records=len(records))
            replay_span = self._tracer.begin(
                "recovery.replay", parent=detect_span, region=region
            )
            replayed = 0
            for record in records:  # ascending commit-timestamp order
                cells = record["cells_by_table"].get(table, [])
                in_region = [
                    c for c in cells if c[0] >= start and (end is None or c[0] < end)
                ]
                if not in_region:
                    continue
                yield from self.recovery_client.replay_fragment(
                    table, region, record["commit_ts"], in_region,
                    piggyback_tp=tp_failed,
                )
                replayed += 1
                self._n_replayed_fragments.inc()
            replay_span.end(fragments=replayed)

        if book.unpin(region, pinned_server):
            try:
                yield from self.zk.delete(pending_path(region))
            except Exception:
                pass
            if book.release(region, pinned_server):
                self.spawn(
                    self._forget_server_znode(pinned_server),
                    name=f"forget:{pinned_server}",
                )
            done_span = self._detect_spans.pop(region, None)
            if done_span is not None:
                done_span.end(replayed=replayed)
        self._n_server_region_recoveries.inc()
        return {"replayed": replayed}

    def _forget_server_znode(self, server: str):
        try:
            yield from self.zk.delete(f"{SERVERS_DIR}/{server}")
        except Exception:
            pass

    def _region_range(self, region: str):
        # Fetched from the master on every recovery: the RM keeps no copy
        # of the region map.  Boundaries are fixed at create_table, so a
        # cache would be sound, but this fetch is part of the failover
        # schedule every recovery measurement includes.
        table = region.split(",", 1)[0]
        # Retried: a master failing over mid-recovery must delay the
        # replay, not abort it (an aborted replay would leave the region
        # pinned and the global T_P frozen).
        entries = yield from self.call_with_retry(
            self.kv.master,
            "locate_table",
            policy=RECOVERY_FETCH_RETRY,
            timeout=10.0,
            retry_on=(RpcTimeout,),
            table=table,
        )
        ranges = {e["region"]: (table, e["start"], e["end"]) for e in entries}
        return ranges[region]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def rpc_rm_status(self, sender: str) -> dict:
        """Threshold and recovery snapshot for tests and tooling: the
        thresholds and pending regions beside the recovery counters."""
        return {**self.book.status(), **self.metrics()["counters"]}
