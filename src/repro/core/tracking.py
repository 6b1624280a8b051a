"""Threshold tracking: the rules of Algorithms 1-4, free of the simulator.

Client side -- :class:`FlushTracker` maintains the threshold timestamp
T_F(c) with two priority queues: ``FQ`` receives every commit timestamp in
commit order, ``FQ'`` receives timestamps whose write-sets have been fully
flushed.  T_F(c) advances only while the heads of both queues agree, which
is exactly what makes it respect the *local commit order* even when flushes
complete out of order (the paper's T_i < T_j example).

Server side -- :class:`PersistTracker` maintains T_P(s).  A server cannot
deduce persistence gaps on its own (the "received 20, 22, 23 but not 21"
problem), so T_P(s) only ever advances to the global flushed threshold T_F
read from the recovery manager, and only after everything received has been
synced.  Replayed updates from a failed server's recovery carry that
server's T_P as a piggyback, which lowers the local report -- the
responsibility-inheritance rule.

Recovery manager -- :class:`ThresholdBook` holds what the recovery
manager knows of every client and server and applies Algorithms 2 and 4
to it: the global minima, failure detection, the pins on a failed
server's T_P^r until its regions are replayed.  The recovery manager does
the I/O around it.

Nothing here touches the simulator: the hosts charge the locks and CPU
whose contention Figure 2(b) measures.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.config import RecoverySettings


class FlushTracker:
    """Client-side T_F(c) bookkeeping (Algorithm 1)."""

    def __init__(self, initial_tf: int = 0) -> None:
        self.tf = initial_tf
        self._fq: List[int] = []  # committed txns, commit order
        self._fq_flushed: List[int] = []  # flushed txns
        #: Commit attempts in flight, token -> floor (:meth:`note_attempt`).
        self._attempts: Dict[int, int] = {}
        self._attempt_tokens = 0
        self._last_ts = initial_tf
        self.commits_tracked = 0
        #: Times advance() would have moved T_F(c) backwards (must stay 0:
        #: Algorithm 1 only ever advances in local commit order).
        self.order_violations = 0

    def note_attempt(self) -> int:
        """A commit request is about to be sent; returns its token.

        Algorithm 1 assumes commit timestamps arrive in commit order.
        With several sessions on one client they need not (a cross-shard
        commit is stamped at tm0 but answered by its coordinator), so
        until :meth:`note_commit` or :meth:`drop_attempt` releases the
        token, :meth:`advance` stops at the attempt's floor: the highest
        commit timestamp received so far.  The oracle is monotone, so the
        attempt's own stamp -- minted after every stamp already received
        -- can only be above it.
        """
        self._attempt_tokens += 1
        self._attempts[self._attempt_tokens] = self._last_ts
        return self._attempt_tokens

    def drop_attempt(self, token: int) -> None:
        """The attempt got no timestamp to track (abort, read-only, error)."""
        self._attempts.pop(token, None)

    def note_commit(self, commit_ts: int, token: Optional[int] = None) -> None:
        """Algorithm 1, "On receiving commit timestamp T"."""
        heapq.heappush(self._fq, commit_ts)
        self._attempts.pop(token, None)
        self._last_ts = max(self._last_ts, commit_ts)
        self.commits_tracked += 1

    def note_flushed(self, commit_ts: int) -> None:
        """Algorithm 1, "On post-flush of transaction T"."""
        heapq.heappush(self._fq_flushed, commit_ts)

    def advance(self) -> int:
        """Algorithm 1's heartbeat drain: pop matched heads, advance T_F --
        up to the lowest floor of the commit attempts still in flight.

        Returns how many transactions were retired.
        """
        advanced = 0
        limit = min(self._attempts.values(), default=float("inf"))
        while (
            self._fq
            and self._fq_flushed
            and self._fq[0] == self._fq_flushed[0]
            and self._fq[0] <= limit
        ):
            retired = heapq.heappop(self._fq)
            heapq.heappop(self._fq_flushed)
            if retired < self.tf:
                self.order_violations += 1
            self.tf = retired
            advanced += 1
        return advanced

    @property
    def pending_head(self) -> Optional[int]:
        """The lowest unretired commit timestamp (None when drained).

        Invariant fodder: T_F(c) < pending_head whenever a commit is in
        flight, since T_F only advances past a timestamp by retiring it.
        """
        return self._fq[0] if self._fq else None

    @property
    def in_flight(self) -> int:
        """Committed transactions whose flush has not been retired yet.

        This is the queue whose size triggers the stuck-region alert.
        """
        return len(self._fq)

    @property
    def drainable(self) -> int:
        """Entries the next heartbeat will have to process."""
        return len(self._fq) + len(self._fq_flushed)


class PersistTracker:
    """Server-side T_P(s) bookkeeping (Algorithm 3)."""

    def __init__(self) -> None:
        self.tp = 0
        #: The last global T_F this server read from the recovery manager
        #: (Algorithm 3's invariant: T_P(s) never exceeds it).  A restarted
        #: server seeds it with the recovered T_P, which by construction
        #: was below some earlier global T_F.
        self.last_tf_seen = 0
        #: Lowest piggybacked T_P(failed) received since the last completed
        #: sync (responsibility inheritance); cleared once everything
        #: received is durable again.
        self._inherited: Optional[int] = None
        #: Fragments received since the last heartbeat drain (the PQ size).
        self.pending = 0

    def note_fragment(self) -> None:
        """A write-set fragment was applied (queued for persistence)."""
        self.pending += 1

    def note_piggyback(self, tp_failed: int) -> None:
        """Algorithm 3's inheritance: a replayed update carried T_P(s')."""
        if self._inherited is None or tp_failed < self._inherited:
            self._inherited = tp_failed

    def begin_sync(self) -> Optional[int]:
        """Capture and clear the inherited floor before syncing.

        Piggybacks noted *during* the sync are not covered by it and stay
        pending for the next round.
        """
        inherited, self._inherited = self._inherited, None
        return inherited

    def complete_sync(self, tf_global: int) -> None:
        """Everything received is durable: advance T_P to the global T_F."""
        self.pending = 0
        if tf_global > self.last_tf_seen:
            self.last_tf_seen = tf_global
        if tf_global > self.tp:
            self.tp = tf_global

    def report_value(self) -> int:
        """The T_P(s) to put on the next heartbeat (inheritance-capped)."""
        if self._inherited is not None:
            return min(self.tp, self._inherited)
        return self.tp


LIVE = "live"
RECOVERING = "recovering"
FAILED = "failed"


@dataclass
class Tracked:
    """The recovery manager's view of one client or server."""

    threshold: int
    heartbeat_time: float
    incarnation: Optional[int] = None
    status: str = LIVE
    #: Replay-in-flight floors (region -> failed server's T_P): while a
    #: replay runs onto this server, its effective threshold must not rise
    #: above the floor, or a crash mid-replay would lose the in-flight
    #: updates.  Removed once the replay is acknowledged (the server's own
    #: piggyback inheritance takes over from there).
    floors: Dict[str, int] = field(default_factory=dict)

    def effective(self) -> int:
        """The threshold to use in global minima (floor-capped)."""
        if self.floors:
            return min(self.threshold, min(self.floors.values()))
        return self.threshold


class ThresholdBook:
    """The recovery manager's state and rules (Algorithms 2 and 4).

    Every method is a step over plain data -- heartbeat snapshots and hook
    arguments in, the names the host must act on out -- and the host passes
    the instant where a rule reads the clock.
    """

    def __init__(self, settings: RecoverySettings) -> None:
        self.settings = settings
        self.clients: Dict[str, Tracked] = {}
        self.servers: Dict[str, Tracked] = {}
        #: region -> (failed server, T_P^r at failure time): the pins.
        self.pending_regions: Dict[str, Tuple[str, int]] = {}
        #: (region, server) of replayed pins whose marker delete is still in
        #: flight: the server stays in the book until these are released.
        self.releasing: List[Tuple[str, str]] = []
        self.global_tf = 0
        self.global_tp = 0
        #: (server, failover_id) hooks already applied.
        self.hooks_seen: set = set()
        #: Last-known T_P of incarnations that vanished before the master's
        #: failure hook arrived (the address may already be heartbeating
        #: again as a fresh incarnation by then); consumed by the hook.
        self.fallen: Dict[str, int] = {}
        self.alerts: List[dict] = []

    # -- heartbeats (Algorithm 2 receive_heartbeat, both kinds) ----------
    def ingest_clients(
        self, paths: Sequence[str], snapshots: Sequence[Optional[dict]], now: float
    ) -> List[str]:
        """Apply one poll's client znodes; returns the newly registered ids."""
        seen = set()
        registered = []
        for path, snapshot in zip(paths, snapshots):
            if snapshot is None:
                continue
            client_id = path.rsplit("/", 1)[1]
            seen.add(client_id)
            data = snapshot["data"]
            entry = self.clients.get(client_id)
            if entry is None:
                self.clients[client_id] = Tracked(data["tf"], data["t"])
                registered.append(client_id)
            elif entry.status == LIVE:
                entry.threshold = max(entry.threshold, data["tf"])
                entry.heartbeat_time = max(entry.heartbeat_time, data["t"])
            self._note_alert(client_id, data, now)
        # Znodes deleted -> clean unregistration (Algorithm 2 unregister).
        for client_id in [c for c in self.clients if c not in seen]:
            if self.clients[client_id].status == LIVE:
                del self.clients[client_id]
        return registered

    def ingest_servers(
        self, paths: Sequence[str], snapshots: Sequence[Optional[dict]], now: float
    ) -> None:
        """Apply one poll's server znodes."""
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
                self._note_fallen(server)
                entry = None
            if entry is None:
                stale_deadline = now - (
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
                self.servers[server] = Tracked(data["tp"], data["t"], inc)
            elif entry.status == LIVE:
                # The znode read is a latest-state snapshot, so the report
                # is authoritative; it may be *lower* than what we hold
                # when the server inherited responsibility via a piggyback.
                entry.threshold = data["tp"]
                if entry.incarnation is None:
                    entry.incarnation = inc
            self._note_alert(server, data, now)
        for server in [s for s in self.servers if s not in seen]:
            if self.servers[server].status == LIVE:
                # Vanished znode: the session died, so this incarnation is
                # (or is about to be) dead.  Same preservation as above.
                self._note_fallen(server)

    def _note_alert(self, component: str, data: dict, now: float) -> None:
        if "alert" in data:
            self.alerts.append({"component": component, "queue": data["alert"], "t": now})

    def _note_fallen(self, server: str) -> None:
        """Drop a dead live incarnation, keeping its T_P as a fallen floor."""
        threshold = self.servers.pop(server).threshold
        prev = self.fallen.get(server)
        self.fallen[server] = threshold if prev is None else min(prev, threshold)

    def overdue_clients(self, now: float) -> List[str]:
        """Mark the clients whose heartbeats stopped RECOVERING; returns them."""
        deadline = now - (
            self.settings.client_heartbeat_interval
            * self.settings.missed_heartbeat_limit
        )
        overdue = [
            client_id
            for client_id, entry in self.clients.items()
            if entry.status == LIVE and entry.heartbeat_time < deadline
        ]
        for client_id in overdue:
            self.clients[client_id].status = RECOVERING
        return overdue

    def recompute_globals(self) -> None:
        """T_F = min_c T_F(c) and T_P = min_s T_P(s), neither ever falling."""
        if self.clients:
            tf = min(entry.threshold for entry in self.clients.values())
            self.global_tf = max(self.global_tf, tf)
        # Fallen incarnations floor T_P until the master's failure hook
        # arrives and pins their regions: advancing past them in the gap
        # would let the TM truncate log records their replay still needs.
        candidates = [entry.effective() for entry in self.servers.values()]
        candidates.extend(self.fallen.values())
        if candidates:
            self.global_tp = max(self.global_tp, min(candidates))

    @property
    def truncation_point(self) -> int:
        """Where the TM log may be cut: T_P, never T_F."""
        return self.global_tp

    # -- server failures (Algorithm 4) -----------------------------------
    def restore_pins(self, snapshots: Sequence[Optional[dict]], now: float) -> None:
        """Re-pin the regions whose markers a previous recovery manager left."""
        for snapshot in snapshots:
            if snapshot is None:
                continue
            data = snapshot["data"]
            server, tp = data["failed_server"], data["tp"]
            self.pending_regions[data["region"]] = (server, tp)
            entry = self.servers.setdefault(server, Tracked(tp, now))
            entry.status = FAILED
            entry.threshold = min(entry.threshold, tp)

    def server_failed(
        self, server: str, regions: Sequence[str], failover_id: Optional[int], now: float
    ) -> Optional[Tuple[int, List[str], List[str]]]:
        """Pin ``server``'s T_P on ``regions``.

        A region already pinned by the *same* server stays as it is; one
        pinned by a *different* server is a cascading failure (the region
        failed over and its new host died before the replay finished) --
        the pin transfers to the newly-dead server, keeping the older,
        lower T_P so the replay still covers the first loss.

        Each ``failover_id`` is applied once: retried and fabric-delayed
        copies of a hook can arrive *after* the recovery they triggered has
        completed, and re-pinning then, with no replay coming, would freeze
        the global T_P forever.  A repeat returns ``None``; otherwise
        ``(tp, fresh, dropped)``: the pinned T_P, the regions not pinned
        before, and the failed servers that left the book (``server``
        itself last, when it pins nothing).
        """
        if failover_id is not None:
            if (server, failover_id) in self.hooks_seen:
                return None
            self.hooks_seen.add((server, failover_id))
        entry = self.servers.get(server)
        if entry is None:
            # Never heard a heartbeat from it: Algorithm 4's register rule
            # T_P(s) <- T_P makes the global threshold the right floor.
            entry = self.servers[server] = Tracked(self.global_tp, now)
        entry.status = FAILED
        fallen = self.fallen.pop(server, None)
        if fallen is not None:
            # The hook may be late: the address can already be tracked as
            # a fresh, live incarnation.  The death being reported is the
            # *fallen* one's, so its (lower) T_P is the truth here.
            entry.threshold = min(entry.threshold, fallen)
        tp_failed = entry.threshold
        fresh: List[str] = []
        dropped: List[str] = []
        for region in regions:
            prev = self.pending_regions.get(region)
            if prev is None:
                self.pending_regions[region] = (server, tp_failed)
                fresh.append(region)
                continue
            prev_server, prev_tp = prev
            self.pending_regions[region] = (server, min(tp_failed, prev_tp))
            if prev_server != server and self._drop_if_done(prev_server):
                dropped.append(prev_server)
        # The dead server may have hosted nothing (e.g. a fresh restart that
        # died before any assignment): no replay will ever run for it.
        if self._drop_if_done(server):
            dropped.append(server)
        return tp_failed, fresh, dropped

    @contextmanager
    def replay_floor(self, server: str, region: str, tp: int) -> Iterator[None]:
        """Floor ``server``'s T_P at ``tp`` while ``region`` replays onto it.

        Soundness tightening beyond the paper's piggyback: a crash of the
        hosting server mid-replay still re-covers the in-flight write-sets.
        (After the replay is acknowledged, the hosting server's own
        inheritance keeps its reports low until it has persisted them.)
        """
        entry = self.servers.get(server)
        if entry is not None:
            entry.floors[region] = tp
        try:
            yield
        finally:
            if entry is not None:
                entry.floors.pop(region, None)

    def unpin(self, region: str, server: str) -> bool:
        """``region``'s replay is done: clear its pin if ``server`` still
        holds it, pending :meth:`release` once its marker is deleted.

        It may not: the region's new host may have died mid-replay and the
        pin transferred to it; then the region needs a fresh recovery pass.
        """
        current = self.pending_regions.get(region)
        if current is None or current[0] != server:
            return False
        del self.pending_regions[region]
        self.releasing.append((region, server))
        return True

    def release(self, region: str, server: str) -> bool:
        """The marker of an :meth:`unpin` is deleted; returns whether
        ``server`` left the book -- it then no longer constrains T_P."""
        self.releasing.remove((region, server))
        return self._drop_if_done(server)

    def _drop_if_done(self, server: str) -> bool:
        """Drop a failed server that no longer pins any region."""
        entry = self.servers.get(server)
        if entry is None or entry.status != FAILED:
            return False
        if any(s == server for s, _tp in self.pending_regions.values()) or any(
            s == server for _region, s in self.releasing
        ):
            return False
        del self.servers[server]
        return True

    # -- introspection ---------------------------------------------------
    def live_clients(self) -> List[str]:
        """The clients whose heartbeats count, sorted."""
        return sorted(c for c, e in self.clients.items() if e.status == LIVE)

    def status(self) -> dict:
        """Thresholds, pins and who is being recovered, as plain data."""
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
        }
