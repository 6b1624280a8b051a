"""The recovery manager (Algorithms 2 and 4).

A middleware service associated with the transaction manager (the paper
co-hosts both on one VM, which the cluster builder reproduces by sharing a
CPU resource).  It:

* tracks per-client flushed thresholds T_F(c) and per-server persisted
  thresholds T_P(s) from heartbeats exchanged via the coordination service;
* maintains the global thresholds T_F = min_c T_F(c) and
  T_P = min_s T_P(s), publishes them (servers read T_F on their own
  heartbeats; a restarted recovery manager reads everything back), and
  truncates the TM's recovery log at T_P;
* detects client failures by missed heartbeats and replays the dead
  client's write-sets committed after T_F^r(c);
* on server failures (reported by the master's hook) replays, per affected
  region, the write-sets committed after T_P^r(s) that fall in the region,
  piggybacking T_P^r(s) so live servers inherit responsibility -- and only
  then lets the region go online.

Transaction processing on the available servers continues throughout: the
recovery manager never stops the world.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import KvSettings, RecoverySettings
from repro.core.paths import (
    CLIENTS_DIR,
    GLOBAL_PATH,
    PENDING_DIR,
    SERVERS_DIR,
    pending_path,
)
from repro.core.recovery_client import RecoveryClient
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

LIVE = "live"
RECOVERING = "recovering"
FAILED = "failed"

#: Replay log fetches must survive storms: a dead recovery process would
#: leave its client pinned RECOVERING -- and the global T_F frozen --
#: forever, so the fetch never gives up.
RECOVERY_FETCH_RETRY = RetryPolicy(
    base_delay=0.5, multiplier=2.0, max_delay=2.0, jitter=0.2, max_attempts=None
)


class _Tracked:
    """Recovery-manager-side view of one client or server."""

    __slots__ = (
        "threshold",
        "heartbeat_time",
        "status",
        "pending_regions",
        "floors",
        "incarnation",
    )

    def __init__(
        self,
        threshold: int,
        heartbeat_time: float,
        incarnation: Optional[int] = None,
    ) -> None:
        self.threshold = threshold
        self.heartbeat_time = heartbeat_time
        self.incarnation = incarnation
        self.status = LIVE
        self.pending_regions = 0  # failed servers: regions awaiting replay
        #: Replay-in-flight floors (region -> failed server's T_P): while we
        #: are replaying onto this server, its effective threshold must not
        #: rise above the floor, or a crash mid-replay would lose the
        #: in-flight updates.  Removed once the replay is acknowledged (the
        #: server's own piggyback inheritance takes over from there).
        self.floors: Dict[str, int] = {}

    def effective(self) -> int:
        """The threshold to use in global minima (floor-capped)."""
        if self.floors:
            return min(self.threshold, min(self.floors.values()))
        return self.threshold


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
        self.clients: Dict[str, _Tracked] = {}
        self.servers: Dict[str, _Tracked] = {}
        #: region -> (failed server, T_P^r at failure time)
        self.pending_regions: Dict[str, Tuple[str, int]] = {}
        self.global_tf = 0
        self.global_tp = 0
        self._running = False
        #: (server, failover_id) hooks already processed; see
        #: :meth:`rpc_server_failed`.
        self._hooks_seen: set = set()
        #: Last-known T_P of incarnations that vanished before the master's
        #: failure hook arrived (the address may already be heartbeating
        #: again as a fresh incarnation by then); consumed by the hook.
        self._fallen: Dict[str, int] = {}
        self.alerts: List[dict] = []
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
        try:
            node = yield from self.zk.get(GLOBAL_PATH)
            self.global_tf = node["data"].get("tf", 0)
            self.global_tp = node["data"].get("tp", 0)
        except Exception:
            yield from self.zk.create(GLOBAL_PATH, data={"tf": 0, "tp": 0})
        pending = yield from self.zk.get_children(PENDING_DIR)
        if pending:
            snapshots = yield from self.zk.multi_get(pending)
            for snapshot in snapshots:
                if snapshot is None:
                    continue
                data = snapshot["data"]
                region = data["region"]
                self.pending_regions[region] = (data["failed_server"], data["tp"])
                entry = self.servers.setdefault(
                    data["failed_server"], _Tracked(data["tp"], self.kernel.now)
                )
                entry.status = FAILED
                entry.threshold = min(entry.threshold, data["tp"])
                entry.pending_regions += 1

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
        n = len(snapshots)
        yield from self.cpu.use(
            self.settings.heartbeat_fixed_cost
            + n * self.settings.heartbeat_entry_cost
        )

        self._ingest_clients(client_paths, snapshots[: len(client_paths)])
        self._ingest_servers(server_paths, snapshots[len(client_paths) :])
        self._detect_client_failures()
        self._recompute_globals()
        yield from self.zk.set_data(
            GLOBAL_PATH, data={"tf": self.global_tf, "tp": self.global_tp}
        )
        if self.settings.truncate_log and self.global_tp > 0:
            for tm in self.tm_addrs:
                self.cast(tm, "truncate_log", up_to_ts=self.global_tp)
                self._n_truncation_requests.inc()

    def _ingest_clients(self, paths: List[str], snapshots: List[Optional[dict]]) -> None:
        seen = set()
        for path, snapshot in zip(paths, snapshots):
            if snapshot is None:
                continue
            client_id = path.rsplit("/", 1)[1]
            seen.add(client_id)
            data = snapshot["data"]
            entry = self.clients.get(client_id)
            if entry is None:
                entry = _Tracked(data["tf"], data["t"])
                self.clients[client_id] = entry
                # A brand-new registration can reuse a fenced id (drivers
                # re-create dead clients under the same name).  The old
                # incarnation's entry blocked this path until its recovery
                # completed, so the fence has served its purpose -- lift it
                # or the newcomer could never commit.
                for tm in self.tm_addrs:
                    self.cast(tm, "unfence_client", client_id=client_id)
            elif entry.status == LIVE:
                entry.threshold = max(entry.threshold, data["tf"])
                entry.heartbeat_time = max(entry.heartbeat_time, data["t"])
            if "alert" in data:
                self.alerts.append(
                    {"component": client_id, "queue": data["alert"], "t": self.kernel.now}
                )
        # Znodes deleted -> clean unregistration (Algorithm 2 unregister).
        for client_id in [c for c in self.clients if c not in seen]:
            if self.clients[client_id].status == LIVE:
                del self.clients[client_id]

    def _ingest_servers(self, paths: List[str], snapshots: List[Optional[dict]]) -> None:
        seen = set()
        for path, snapshot in zip(paths, snapshots):
            if snapshot is None:
                continue
            server = path.rsplit("/", 1)[1]
            seen.add(server)
            data = snapshot["data"]
            inc = data.get("inc")
            entry = self.servers.get(server)
            if (
                entry is not None
                and entry.status == LIVE
                and entry.incarnation is not None
                and inc is not None
                and inc != entry.incarnation
            ):
                # The address reincarnated between polls: its previous life
                # died, and the master's failure hook for that death is
                # still on its way.  Remember the dead incarnation's T_P --
                # letting the fresh incarnation's reports overwrite it
                # would make the coming replay start too high and skip
                # write-sets the old life had applied but not persisted.
                self._note_fallen(server, entry.threshold)
                del self.servers[server]
                entry = None
            if entry is None:
                stale_deadline = self.kernel.now - (
                    self.settings.server_heartbeat_interval
                    * self.settings.missed_heartbeat_limit
                )
                if data["t"] < stale_deadline:
                    # A znode whose heartbeat stopped long ago is a corpse
                    # awaiting session expiry, not evidence of life.  Between
                    # the master's failure hook (which drops the dead entry
                    # once its pins release) and the expiry, a straggling
                    # read of that stale znode would resurrect a LIVE entry
                    # for the already-recovered incarnation -- and the next
                    # poll, seeing the restarted server's fresh incarnation,
                    # would note a fallen T_P no future hook will ever
                    # consume, freezing the global T_P forever.
                    continue
                self.servers[server] = _Tracked(data["tp"], data["t"], inc)
            elif entry.status == LIVE:
                # The znode read is a latest-state snapshot, so the report
                # is authoritative; it may be *lower* than what we hold
                # when the server inherited responsibility via a piggyback.
                entry.threshold = data["tp"]
                entry.heartbeat_time = max(entry.heartbeat_time, data["t"])
                if entry.incarnation is None:
                    entry.incarnation = inc
            if "alert" in data:
                self.alerts.append(
                    {"component": server, "queue": data["alert"], "t": self.kernel.now}
                )
        for server in [s for s in self.servers if s not in seen]:
            if self.servers[server].status == LIVE:
                # Vanished znode: the session died, so this incarnation is
                # (or is about to be) dead.  Same preservation as above.
                self._note_fallen(server, self.servers[server].threshold)
                del self.servers[server]

    def _note_fallen(self, server: str, threshold: int) -> None:
        prev = self._fallen.get(server)
        self._fallen[server] = threshold if prev is None else min(prev, threshold)

    def _detect_client_failures(self) -> None:
        deadline = self.kernel.now - (
            self.settings.client_heartbeat_interval
            * self.settings.missed_heartbeat_limit
        )
        for client_id, entry in self.clients.items():
            if entry.status == LIVE and entry.heartbeat_time < deadline:
                entry.status = RECOVERING
                self.spawn(
                    self._recover_client(client_id), name=f"recover-client:{client_id}"
                )

    def _recompute_globals(self) -> None:
        if self.clients:
            tf = min(entry.threshold for entry in self.clients.values())
            self.global_tf = max(self.global_tf, tf)
        # Fallen incarnations floor T_P until the master's failure hook
        # arrives and pins their regions: advancing past them in the gap
        # would let the TM truncate log records their replay still needs.
        candidates = [entry.effective() for entry in self.servers.values()]
        candidates.extend(self._fallen.values())
        if candidates:
            self.global_tp = max(self.global_tp, min(candidates))

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
            kwargs = {"after_ts": after_ts}
            if client_id is not None:
                kwargs["client_id"] = client_id
            records = yield from self.call_with_retry(
                tm,
                "fetch_logs",
                policy=RECOVERY_FETCH_RETRY,
                timeout=10.0,
                retry_on=retry_on,
                **kwargs,
            )
            merged.extend(records)
        merged.sort(key=lambda record: record["commit_ts"])
        return merged

    def _recover_client(self, client_id: str):
        entry = self.clients[client_id]
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
        self.clients.pop(client_id, None)
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
        interrupted part-way, so a region may arrive already pinned.  A
        repeat pin by the *same* server is counted once; a pin held by a
        *different* server is a cascading failure (the region failed over
        and its new host died before the replay finished) -- the pin
        transfers to the newly-dead server, keeping the older, lower T_P
        so the replay still covers the first loss.

        ``failover_id`` identifies the master-side failover this hook
        belongs to.  Retried and fabric-delayed copies can arrive *after*
        the recovery they triggered has completed; processing one then
        would re-pin regions with no replay coming, freezing the global
        T_P forever, so each failover is applied exactly once.
        """
        if failover_id is not None:
            key = (server, failover_id)
            if key in self._hooks_seen:
                entry = self.servers.get(server)
                tp = entry.threshold if entry is not None else None
                return {"tp": tp, "regions": len(regions)}
            self._hooks_seen.add(key)
        entry = self.servers.get(server)
        if entry is None:
            # Never heard a heartbeat from it: Algorithm 4's register rule
            # T_P(s) <- T_P makes the global threshold the right floor.
            entry = _Tracked(self.global_tp, self.kernel.now)
            self.servers[server] = entry
        entry.status = FAILED
        fallen = self._fallen.pop(server, None)
        if fallen is not None:
            # The hook may be late: the address can already be tracked as
            # a fresh, live incarnation.  The death being reported is the
            # *fallen* one's, so its (lower) T_P is the truth here.
            entry.threshold = min(entry.threshold, fallen)
        tp_failed = entry.threshold
        for region in regions:
            prev = self.pending_regions.get(region)
            if prev is None:
                self.pending_regions[region] = (server, tp_failed)
                entry.pending_regions += 1
                # Detection-to-unblock window; ends when the replay
                # releases the pin (or transfers it to a cascading death,
                # which keeps the original span running).
                if region not in self._detect_spans:
                    self._detect_spans[region] = self._tracer.begin(
                        "recovery.detect", region=region, failed_server=server
                    )
                continue
            prev_server, prev_tp = prev
            self.pending_regions[region] = (server, min(tp_failed, prev_tp))
            if prev_server != server:
                self._release_pin(prev_server)
                entry.pending_regions += 1
        if entry.pending_regions <= 0:
            # The dead server hosted nothing (e.g. a fresh restart that
            # died before any assignment): no replay will ever run for it,
            # so drop the entry now or it would pin the global T_P forever.
            self.servers.pop(server, None)
            self.spawn(
                self._forget_server_znode(server), name=f"forget:{server}"
            )
        else:
            self.spawn(
                self._persist_pending_markers(server, regions),
                name=f"pending-markers:{server}",
            )
        return {"tp": tp_failed, "regions": len(regions)}

    def _persist_pending_markers(self, server: str, regions: List[str]):
        for region in regions:
            pin = self.pending_regions.get(region)
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
        info = self.pending_regions.get(region)
        if info is None:
            return {"replayed": 0}  # nothing pending (e.g. duplicate open)
        pinned_server, tp_failed = info

        table, start, end = yield from self._region_range(region)

        # Soundness tightening beyond the paper's piggyback: floor our own
        # view of the hosting server's T_P for the duration of the replay,
        # so a crash of that server mid-replay still re-covers the
        # in-flight write-sets.  (After the replay is acknowledged, the
        # hosting server's own inheritance keeps its reports low until it
        # has persisted them.)
        host_entry = self.servers.get(hosting_server)
        if host_entry is not None:
            host_entry.floors[region] = tp_failed

        detect_span = self._detect_spans.get(region)
        fetch_span = self._tracer.begin(
            "recovery.log_fetch", parent=detect_span, region=region
        )
        try:
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
        finally:
            if host_entry is not None:
                host_entry.floors.pop(region, None)

        # Clear the pin -- unless it transferred while we were replaying
        # (the hosting server died mid-replay and the region was re-pinned
        # to it): then the region still needs a fresh recovery pass and
        # our pin was already released by the transfer.
        current = self.pending_regions.get(region)
        if current is not None and current[0] == pinned_server:
            self.pending_regions.pop(region, None)
            try:
                yield from self.zk.delete(pending_path(region))
            except Exception:
                pass
            self._release_pin(pinned_server)
            done_span = self._detect_spans.pop(region, None)
            if done_span is not None:
                done_span.end(replayed=replayed)
        self._n_server_region_recoveries.inc()
        return {"replayed": replayed}

    def _release_pin(self, pinned_server: str) -> None:
        """One of ``pinned_server``'s pending regions stopped pinning it."""
        pinned = self.servers.get(pinned_server)
        if pinned is None:
            return
        pinned.pending_regions -= 1
        if pinned.pending_regions <= 0 and pinned.status == FAILED:
            # All of the dead server's regions are recovered: it no
            # longer constrains the global T_P.
            self.servers.pop(pinned_server, None)
            self.spawn(
                self._forget_server_znode(pinned_server),
                name=f"forget:{pinned_server}",
            )

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
        return {
            "global_tf": self.global_tf,
            "global_tp": self.global_tp,
            "clients": {c: e.threshold for c, e in self.clients.items()},
            "servers": {s: e.threshold for s, e in self.servers.items()},
            "pending_regions": dict(self.pending_regions),
            "recovering": sorted(
                name
                for tracked in (self.clients, self.servers)
                for name, e in tracked.items()
                if e.status != LIVE
            ),
            "alerts": len(self.alerts),
            **self.metrics()["counters"],
        }
