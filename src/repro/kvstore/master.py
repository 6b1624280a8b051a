"""The master server: region assignment and server-failure handling.

On a region-server death (detected through the coordination service's
ephemeral znodes, as HBase does through ZooKeeper) the master:

1. notifies the recovery manager that the server failed and which regions
   are affected -- the paper's first hook;
2. computes a *recovery plan*: the dead server's durable WAL segment list
   (scattered across the cluster's datanodes at append time), partitioned
   by region across all live servers;
3. reassigns each affected region to its plan recipient, passing the
   segment list and the failed server's identity.  Each recipient fetches
   its region's records straight from the scattered backups and replays
   them concurrently -- fan-out recovery, no central log splitting -- then
   waits on the transactional recovery gate before going online.

Per the paper's assumptions the master itself is reliable.  Recovery as a
whole still survives failures of its own: a recipient dying mid-recovery
leaves its regions assigned to the corpse, so the liveness loop's failover
for *that* death re-partitions exactly the orphaned regions (deduplicated
by failover id at the recovery manager, with replay idempotent under
versioned cells); per-region log sources accumulate across failovers so a
re-partitioned region always replays every incarnation's segments.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.config import KvSettings
from repro.dfs.client import DfsClient
from repro.errors import KvError, RpcError
from repro.kvstore.region import RegionDescriptor
from repro.kvstore.regionserver import RS_ZNODE_DIR
from repro.kvstore.wal import wal_dir
from repro.metrics.registry import MetricsRegistry, status_envelope
from repro.metrics.spans import tracer_for
from repro.sim.events import Interrupt
from repro.sim.kernel import Kernel
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.retry import RetryPolicy, UNBOUNDED_RETRY
from repro.zk.client import ZkClient, ZkWatcherMixin

#: Pacing for region-open handoffs during failover.  The attempt bound
#: lives in ``_open_with_retry`` (it interleaves liveness checks between
#: attempts); the policy shapes the jittered backoff so retried opens from
#: concurrent failovers don't synchronise.
OPEN_RETRY = RetryPolicy(
    base_delay=0.5, multiplier=1.5, max_delay=3.0, jitter=0.2,
    max_attempts=None,
)


class Master(ZkWatcherMixin, Node):
    """Cluster coordinator for the key-value store."""

    def __init__(
        self,
        kernel: Kernel,
        net: Network,
        addr: str = "master",
        settings: Optional[KvSettings] = None,
        namenode: str = "namenode",
        zk_addr: str = "zk",
        recovery_manager: Optional[str] = None,
        replication: int = 2,
    ) -> None:
        super().__init__(kernel, net, addr)
        self.settings = settings or KvSettings()
        self.dfs = DfsClient(self, namenode=namenode, replication=replication)
        self.zk = ZkClient(self, zk_addr=zk_addr)
        #: Address of the recovery manager to notify on server failures
        #: (the paper's master hook); None disables the notification.
        self.recovery_manager = recovery_manager
        self.tables: Dict[str, List[RegionDescriptor]] = {}
        self.assignments: Dict[str, Optional[str]] = {}  # region -> server
        self.online: Dict[str, bool] = {}  # region -> online?
        self._live_servers: List[str] = []
        self._assign_cursor = itertools.count()
        self._epoch = itertools.count()
        self._splitting: set = set()
        #: Registry behind the coordination counters (see ``metrics()``).
        self.registry = MetricsRegistry("master", addr)
        (
            self._n_failures_handled,
            self._n_splits,
            self._n_merges,
        ) = self.registry.counters("failures_handled", "splits", "merges")
        #: Per-region recovery log sources: every WAL segment path a
        #: region's edits may live in, accumulated across failovers and
        #: never cleared while the run lasts (fan-out replay lands in
        #: recipients' memstores only, so if a recipient dies the next
        #: open must re-fetch from the original scattered segments --
        #: master-side memory is sound because the master is reliable
        #: per the paper).  Duplicate replay is idempotent.
        self._recovery_sources: Dict[str, List[str]] = {}
        self._tracer = tracer_for(kernel)

    def metrics(self) -> dict:
        """Uniform registry snapshot for the master."""
        return self.registry.snapshot()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Start liveness monitoring.  (Generator API; run as a process.)"""
        yield from self.zk.start_session()
        self.spawn(self._liveness_loop(), name="liveness")
        return self

    def _liveness_loop(self):
        # Failovers that raised part-way (e.g. the DFS timed out mid log
        # split) are retried on later ticks: ``_handle_server_failure``
        # recomputes the still-affected regions from the live assignment
        # table, and the recovery-manager hook tolerates repeats, so a
        # re-run finishes exactly the regions the first pass left behind.
        # Liveness monitoring itself must survive any of this.
        deferred: List[str] = []
        try:
            while True:
                yield self.sleep(self.settings.master_tick)
                try:
                    children = yield from self.zk.get_children(RS_ZNODE_DIR)
                except Interrupt:
                    raise
                except Exception:
                    continue  # coordination service unreachable; next tick
                servers = [path.rsplit("/", 1)[1] for path in children]
                known = set(self._live_servers)
                current = set(servers)
                self._live_servers = servers
                pending = deferred + sorted((known - current) - set(deferred))
                deferred = []
                for dead in pending:
                    try:
                        yield from self._handle_server_failure(dead)
                    except Interrupt:
                        raise
                    except Exception:
                        deferred.append(dead)
        except Interrupt:
            return

    def live_servers(self) -> List[str]:
        """The servers currently considered alive."""
        return list(self._live_servers)

    # ------------------------------------------------------------------
    # table / region management
    # ------------------------------------------------------------------
    def rpc_create_table(self, sender: str, table: str, split_points: List[str]):
        """Create a table with regions at the given split points and assign
        them round-robin across live servers."""
        if table in self.tables:
            raise KvError(f"table {table!r} already exists")
        bounds = ["" ] + sorted(split_points)
        regions: List[RegionDescriptor] = []
        for i, start in enumerate(bounds):
            end = bounds[i + 1] if i + 1 < len(bounds) else None
            regions.append(RegionDescriptor(table=table, start=start, end=end))
        self.tables[table] = regions

        servers = yield from self._wait_for_servers()
        for descriptor in regions:
            server = servers[next(self._assign_cursor) % len(servers)]
            self.assignments[descriptor.region_id] = server
            self.online[descriptor.region_id] = False
            yield self.call(
                server,
                "open_region",
                timeout=30.0,
                descriptor=descriptor.to_wire(),
            )
        return [d.region_id for d in regions]

    def _wait_for_servers(self):
        while True:
            children = yield from self.zk.get_children(RS_ZNODE_DIR)
            if children:
                self._live_servers = [p.rsplit("/", 1)[1] for p in children]
                return list(self._live_servers)
            yield self.sleep(self.settings.master_tick)

    def rpc_locate_table(self, sender: str, table: str):
        """Full region map for ``table``: list of (start, end, region, server)."""
        regions = self.tables.get(table)
        if regions is None:
            raise KvError(f"no such table {table!r}")
        return [
            {
                "start": d.start,
                "end": d.end,
                "region": d.region_id,
                "server": self.assignments.get(d.region_id),
            }
            for d in regions
        ]

    def rpc_region_online(self, sender: str, region: str, server: str) -> None:
        """Region-server notification that a region came online."""
        self.online[region] = True

    def rpc_status(self, sender: str) -> dict:
        """The uniform component status envelope (component/addr/metrics),
        with the live-server list as an extra field."""
        return status_envelope(
            "master",
            self.addr,
            self.metrics(),
            live_servers=len(self._live_servers),
            regions_online=sum(1 for v in self.online.values() if v),
        )

    def rpc_cluster_status(self, sender: str) -> dict:
        """Assignment snapshot for tooling and tests: the assignment and
        online tables (only here) beside the coordination counters (also
        in ``rpc_status``, the uniform envelope).
        """
        return {
            "live_servers": list(self._live_servers),
            "assignments": dict(self.assignments),
            "online": dict(self.online),
            "failures_handled": self._n_failures_handled.value,
            "splits": self._n_splits.value,
            "merges": self._n_merges.value,
            "recovery_sources": {
                region: list(paths)
                for region, paths in sorted(self._recovery_sources.items())
            },
        }

    # ------------------------------------------------------------------
    # region moves and balancing (elastic scale-out, Section 2.1)
    # ------------------------------------------------------------------
    def rpc_move_region(self, sender: str, region: str, target: str):
        """Move one region to ``target``: clean close (memstore flushed to
        a store file), then a normal open on the target -- no log replay,
        no recovery gate.  Clients retry through the brief offline window."""
        source = self.assignments.get(region)
        if source is None:
            raise KvError(f"region {region!r} is unassigned")
        if target not in self._live_servers:
            raise KvError(f"target server {target!r} is not live")
        if source == target:
            return {"region": region, "server": target, "moved": False}
        descriptors = {d.region_id: d for ds in self.tables.values() for d in ds}
        descriptor = descriptors.get(region)
        if descriptor is None:
            raise KvError(f"unknown region {region!r}")
        self.online[region] = False
        yield self.call(source, "close_region", timeout=60.0, region_id=region)
        self.assignments[region] = target
        yield self.call(
            target, "open_region", timeout=60.0, descriptor=descriptor.to_wire()
        )
        return {"region": region, "server": target, "moved": True}

    def rpc_balance(self, sender: str):
        """Even region counts across live servers (e.g. after scale-out).

        Greedy: repeatedly move a region from the most- to the least-loaded
        server until the spread is at most one.  Returns the moves made.
        """
        moves = []
        while True:
            loads: Dict[str, List[str]] = {s: [] for s in self._live_servers}
            for region, server in self.assignments.items():
                if server in loads:
                    loads[server].append(region)
            if not loads:
                break
            busiest = max(loads, key=lambda s: len(loads[s]))
            idlest = min(loads, key=lambda s: len(loads[s]))
            if len(loads[busiest]) - len(loads[idlest]) <= 1:
                break
            region = sorted(loads[busiest])[0]
            yield from self._move_region_inline(region, busiest, idlest)
            moves.append({"region": region, "from": busiest, "to": idlest})
        return moves

    def _move_region_inline(self, region: str, source: str, target: str):
        descriptors = {d.region_id: d for ds in self.tables.values() for d in ds}
        self.online[region] = False
        yield self.call(source, "close_region", timeout=60.0, region_id=region)
        self.assignments[region] = target
        yield self.call(
            target, "open_region", timeout=60.0,
            descriptor=descriptors[region].to_wire(),
        )

    # ------------------------------------------------------------------
    # region splits
    # ------------------------------------------------------------------
    def rpc_request_split(self, sender: str, region: str, midpoint: str, server: str):
        """A region server reports a region over its size budget.

        The master closes the region (memstore flushed), replaces it with
        two children that inherit the parent's store-file directories, and
        opens both on the same server.  Clients see the brief offline
        window as routing errors and re-group their flushes against the
        fresh region map.
        """
        holder = self.assignments.get(region)
        if holder != server or region in self._splitting:
            return {"split": False, "reason": "stale or in progress"}
        descriptors = {d.region_id: d for ds in self.tables.values() for d in ds}
        parent = descriptors.get(region)
        if parent is None or not parent.key_range.contains(midpoint):
            return {"split": False, "reason": "bad midpoint"}
        if midpoint == parent.start:
            return {"split": False, "reason": "degenerate midpoint"}
        self._splitting.add(region)
        try:
            self.online[region] = False
            yield self.call(holder, "close_region", timeout=60.0, region_id=region)

            inherited = parent.all_dirs()
            low = RegionDescriptor(
                table=parent.table, start=parent.start, end=midpoint,
                extra_dirs=inherited, gen=parent.gen + 1,
            )
            high = RegionDescriptor(
                table=parent.table, start=midpoint, end=parent.end,
                extra_dirs=inherited, gen=parent.gen + 1,
            )
            regions = self.tables[parent.table]
            idx = regions.index(parent)
            self.tables[parent.table] = regions[:idx] + [low, high] + regions[idx + 1:]
            self.assignments.pop(region, None)
            self.online.pop(region, None)
            self._n_splits.inc()
            for child in (low, high):
                self.assignments[child.region_id] = holder
                self.online[child.region_id] = False
                yield self.call(
                    holder, "open_region", timeout=60.0,
                    descriptor=child.to_wire(),
                )
            return {
                "split": True,
                "children": [low.region_id, high.region_id],
            }
        finally:
            self._splitting.discard(region)

    def rpc_merge_regions(self, sender: str, region_low: str, region_high: str):
        """Merge two adjacent regions into one (an administrative action,
        e.g. after deletions leave neighbours cold).

        Both are closed cleanly (memstores flushed), then a single region
        spanning their union opens on the low region's server, inheriting
        both store directories.
        """
        descriptors = {d.region_id: d for ds in self.tables.values() for d in ds}
        low = descriptors.get(region_low)
        high = descriptors.get(region_high)
        if low is None or high is None:
            raise KvError("unknown region(s)")
        if low.table != high.table or low.end != high.start:
            raise KvError(f"{region_low!r} and {region_high!r} are not adjacent")
        if region_low in self._splitting or region_high in self._splitting:
            raise KvError("region operation already in progress")
        self._splitting.update((region_low, region_high))
        try:
            target = self.assignments.get(region_low)
            if target is None:
                raise KvError(f"{region_low!r} is unassigned")
            for region in (region_low, region_high):
                self.online[region] = False
                holder = self.assignments[region]
                yield self.call(holder, "close_region", timeout=60.0, region_id=region)

            inherited = sorted(set(low.all_dirs()) | set(high.all_dirs()))
            merged = RegionDescriptor(
                table=low.table, start=low.start, end=high.end,
                extra_dirs=inherited, gen=max(low.gen, high.gen) + 1,
            )
            regions = self.tables[low.table]
            idx = regions.index(low)
            regions = [r for r in regions if r not in (low, high)]
            regions.insert(idx, merged)
            self.tables[low.table] = regions
            for region in (region_low, region_high):
                self.assignments.pop(region, None)
                self.online.pop(region, None)
            self.assignments[merged.region_id] = target
            self.online[merged.region_id] = False
            yield self.call(
                target, "open_region", timeout=60.0, descriptor=merged.to_wire()
            )
            self._n_merges.inc()
            return {"merged": merged.region_id, "server": target}
        finally:
            self._splitting.discard(region_low)
            self._splitting.discard(region_high)

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def _handle_server_failure(self, dead: str):
        """Recover every region the dead server hosted (Section 3.2).

        Fan-out recovery: instead of splitting the dead server's WAL
        centrally, the master computes a plan -- the segment list plus a
        partition of the affected regions across all live servers -- and
        each recipient fetches its own regions' records from the scattered
        backups and replays them in parallel.
        """
        affected = sorted(
            region for region, server in self.assignments.items() if server == dead
        )
        self._n_failures_handled.inc()
        for region in affected:
            self.online[region] = False

        epoch = next(self._epoch)
        failover_span = self._tracer.begin(
            "recovery.failover", server=dead, regions=len(affected), epoch=epoch
        )
        try:
            yield from self._failover(dead, affected, epoch)
        except Interrupt:
            raise  # master interrupted: leave the span open (truncated)
        except BaseException:
            failover_span.end(outcome="error")
            raise
        failover_span.end()

    def _failover(self, dead: str, affected: List[str], epoch: int):
        """The body of one failover attempt.  (Generator API.)"""
        # Hook 1: tell the recovery manager which server died and which
        # regions are affected, before any region comes back.  Delivered
        # reliably: if the recovery manager is down, the affected regions
        # must stay offline until it returns (they are gated on its replay
        # anyway), so we retry rather than reassign with a lost hook.
        # The failover id lets the recovery manager deduplicate: retries
        # and fabric-delayed copies of this hook can arrive *after* the
        # recovery it triggered completed, and re-pinning the regions then
        # would freeze T_P forever.
        if self.recovery_manager is not None:
            yield from self.call_with_retry(
                self.recovery_manager,
                "server_failed",
                policy=UNBOUNDED_RETRY,
                timeout=2.0,
                retry_on=(RpcError,),
                server=dead,
                regions=affected,
                failover_id=epoch,
            )

        # Recovery plan: list the dead server's durable WAL segments (left
        # in place on the scattered backups) and accumulate them into each
        # affected region's log-source set.  Accumulated, never replaced:
        # an orphaned region re-partitioned by a later failover must still
        # replay the segments of every incarnation that ever hosted it.
        plan_span = self._tracer.begin(
            "recovery.plan", server=dead, regions=len(affected), epoch=epoch
        )
        wal_paths = yield from self.dfs.list_dir(wal_dir(dead))
        for region in affected:
            sources = self._recovery_sources.setdefault(region, [])
            for path in wal_paths:
                if path not in sources:
                    sources.append(path)

        # Partition the affected regions across all live servers: regions
        # recover in parallel, each recipient fetching only its own
        # partition's records from the backups ("different regions can be
        # assigned to different servers leading to parallel recovery").
        servers = [s for s in self._live_servers if s != dead]
        while not servers:
            # ``self._live_servers`` is maintained by the liveness loop,
            # which is blocked behind this very failover -- poll the
            # coordination service directly.  An ephemeral re-appearing
            # under the dead server's own address is a *new* incarnation
            # (it can only come back through a new session), so it is a
            # legitimate assignment target.
            yield self.sleep(self.settings.master_tick)
            try:
                children = yield from self.zk.get_children(RS_ZNODE_DIR)
            except Interrupt:
                raise
            except Exception:
                continue
            servers = [path.rsplit("/", 1)[1] for path in children]
        descriptors = {d.region_id: d for ds in self.tables.values() for d in ds}
        opens = []
        recipients = set()
        for region in affected:
            server = servers[next(self._assign_cursor) % len(servers)]
            self.assignments[region] = server
            recipients.add(server)
            proc = self.spawn(
                self._open_with_retry(
                    server,
                    region,
                    descriptors[region].to_wire(),
                    dead,
                ),
                name=f"open:{region}",
            )
            proc.defuse()
            opens.append(proc)
        plan_span.end(segments=len(wal_paths), recipients=len(recipients))
        # Wait for the opens so consecutive failures are handled with a
        # consistent view -- but the per-region retry loops never raise, so
        # a permanently-unrecoverable region (e.g. store files lost beyond
        # the replication factor) cannot wedge liveness monitoring: its
        # loop gives up after a bound and the region stays visibly offline
        # for operator intervention (Section 3.2's administrator case).
        if opens:
            yield self.kernel.all_of(opens)

    def _open_with_retry(
        self,
        server: str,
        region: str,
        descriptor: dict,
        failed_server: str,
        attempts: int = 10,
    ):
        """Open ``region`` on ``server``, surviving the assignee's death.

        Attempts are deliberately short-fused: the server's duplicate-open
        guard makes a retried open cheap (it waits on the in-flight one),
        so a long recovery gate is ridden out across several attempts
        instead of one long timeout that would also be paid, uselessly, on
        a dead assignee.  Between attempts the target's ephemeral is
        checked; if it is gone, the open gives up with the region still
        assigned to the corpse, so the liveness loop's failover for *that*
        death re-covers it.
        """
        for attempt in range(attempts):
            try:
                yield self.call(
                    server,
                    "open_region",
                    timeout=15.0,
                    descriptor=descriptor,
                    failed_server=failed_server,
                    log_sources=list(self._recovery_sources.get(region, [])),
                )
                return True
            except (RpcError, KvError):
                # e.g. DFS re-replication in progress; jittered backoff so
                # concurrent failovers' retries don't synchronise.
                yield self.sleep(OPEN_RETRY.backoff(attempt + 1, self.retry_rng))
            try:
                children = yield from self.zk.get_children(RS_ZNODE_DIR)
            except Interrupt:
                raise
            except Exception:
                continue  # coordination unreachable; retry the same target
            live = {path.rsplit("/", 1)[1] for path in children}
            if server not in live:
                # The assignee vanished mid-open.  An open timeout is
                # indistinguishable from a lost reply: the region may be
                # online on the dead server and have taken writes since,
                # so handing it straight to another live server would skip
                # the dead assignee's failover -- no WAL split, no
                # transactional replay, acknowledged commits silently
                # lost.  Give up with the assignment still pointing at
                # the corpse: the liveness loop fails that server over
                # with this region in its affected set, and the region's
                # accumulated log sources persist in the plan for any
                # later open to replay.
                return False
        return False
