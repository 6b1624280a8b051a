"""Server-side recovery agent (Algorithm 3).

Attaches to a :class:`~repro.kvstore.regionserver.RegionServer` through its
minimal extension surface and implements:

* heartbeat: read the latest global T_F from the published state, persist
  everything received (WAL sync to the DFS), advance T_P(s) to that T_F,
  publish it;
* fragment tracking: count received write-set fragments (the PQ) and, on
  replayed updates, inherit the failed server's piggybacked T_P with an
  immediate heartbeat (Algorithm 3's receive-with-T_P path);
* the region-opening gate: between the store's internal region recovery
  and the region going online, call the recovery manager and wait for the
  transactional replay to finish.
"""

from __future__ import annotations

from typing import Optional

from repro.config import RecoverySettings
from repro.core.paths import GLOBAL_PATH, server_path
from repro.core.tracking import PersistTracker
from repro.errors import NoNode, RemoteError, RpcError
from repro.kvstore.regionserver import RegionServer
from repro.sim.events import Interrupt
from repro.sim.resource import Resource
from repro.sim.retry import RetryPolicy

#: The region-opening gate must outlive a recovery-manager restart, so it
#: never gives up; backoff caps quickly because the blocked region is
#: unavailable for reads the whole time.
REGION_GATE_RETRY = RetryPolicy(
    base_delay=0.5, multiplier=1.5, max_delay=2.0, jitter=0.2, max_attempts=None
)


class ServerRecoveryAgent:
    """Recovery bookkeeping for one region server."""

    def __init__(
        self,
        server: RegionServer,
        settings: Optional[RecoverySettings] = None,
        rm_addr: str = "rm",
    ) -> None:
        self.server = server
        self.settings = settings or RecoverySettings()
        self.rm_addr = rm_addr
        self.tracker = PersistTracker(server.kernel)
        #: Which server incarnation the tracker state belongs to.  Set by
        #: :meth:`_start` once the recovered T_P is seeded; observers (the
        #: invariant monitor) skip samples whose epoch does not match the
        #: server's current incarnation -- the window between a restart and
        #: the agent's re-seed, where the tracker still holds a past life's
        #: numbers.
        self.tracker_incarnation: Optional[int] = None
        self._hb_lock = Resource(server.kernel, capacity=1)
        self._running = False
        self.heartbeats_sent = 0
        self.alerts_raised = 0
        server.extension = self

    # ------------------------------------------------------------------
    # RegionServer extension surface
    # ------------------------------------------------------------------
    def on_server_started(self) -> None:
        """Register and start heartbeating (spawned on the server node)."""
        self.server.spawn(self._start(), name="recovery-agent-start")

    def on_fragment_applied(
        self,
        region_id: str,
        txn_ts: int,
        n_cells: int,
        wal_seq: int,
        piggyback_tp: Optional[int],
    ) -> None:
        """Track one received fragment; handle recovery piggybacks."""
        self.tracker.note_fragment()
        if piggyback_tp is not None:
            # Responsibility inheritance -- and, per Algorithm 3 line 26, an
            # immediate heartbeat so the lowered T_P(s) reaches the recovery
            # manager (after persisting) without waiting a full interval.
            self.tracker.note_piggyback(piggyback_tp)
            self.server.spawn(self._safe_heartbeat(), name="inherit-heartbeat")

    def region_gate(self, region_id: str, failed_server: str):
        """Block the opening region until transactional recovery completes.

        Retries indefinitely: the recovery manager may itself be down and
        restarting, and the region must not come online without it.
        """
        result = yield from self.server.call_with_retry(
            self.rm_addr,
            "recover_region",
            policy=REGION_GATE_RETRY,
            timeout=20.0,
            retry_on=(RpcError,),
            region=region_id,
            failed_server=failed_server,
            hosting_server=self.server.addr,
        )
        return result

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _start(self):
        initial_tp = 0
        try:
            node = yield from self.server.zk.get(GLOBAL_PATH)
            initial_tp = node["data"].get("tp", 0)
        except Exception:
            pass  # no global state yet
        self.tracker.tp = initial_tp
        # The published global T_P is itself capped by a global T_F some
        # server read earlier, so it is a sound last-seen seed: the
        # T_P(s) <= last-read-T_F invariant holds from the first report.
        self.tracker.last_tf_seen = initial_tp
        self.tracker.pending = 0
        self.tracker_incarnation = self.server.incarnation
        # Registration must survive a lossy fabric.  A failed create may
        # mean "already registered" (a restart before the recovery
        # manager cleaned up the previous incarnation) -- but a *timed
        # out* create leaves the node's existence unknown, so the
        # set_data fallback can itself hit NoNode.  Alternate the two
        # until one lands; the region server must not come up
        # unregistered.
        while True:
            try:
                yield from self.server.zk.create(
                    server_path(self.server.addr), data=self._payload()
                )
                break
            except Exception:
                pass
            try:
                yield from self.server.zk.set_data(
                    server_path(self.server.addr), self._payload()
                )
                break
            except Exception:
                yield self.server.sleep(0.2)
        self._running = True
        self.server.spawn(self._heartbeat_loop(), name="server-heartbeat")

    def shutdown(self):
        """Clean shutdown: final heartbeat, then unregister."""
        self._running = False
        yield from self.heartbeat_once()
        yield from self.server.zk.delete(server_path(self.server.addr))

    # ------------------------------------------------------------------
    # heartbeats
    # ------------------------------------------------------------------
    def heartbeat_once(self):
        """Algorithm 3's heartbeat: read T_F, persist PQ, advance T_P."""
        grant = self._hb_lock.request()
        try:
            yield grant
        except BaseException:
            self._hb_lock.cancel(grant)
            raise
        try:
            tf_global = None
            try:
                node = yield from self.server.zk.get(GLOBAL_PATH, retry=False)
                tf_global = node["data"].get("tf", 0)
            except Exception:
                tf_global = None  # recovery manager state not published yet

            # Drain cost: the synchronized PQ processing happens on the
            # server's request-handling CPU.
            cost = (
                self.settings.heartbeat_fixed_cost
                + self.tracker.pending * self.settings.heartbeat_entry_cost
            )
            yield from self.server.cpu.use(cost)

            self.tracker.begin_sync()
            yield from self.server.wal.sync_through(self.server.wal.appended_seq)
            if tf_global is not None:
                self.tracker.complete_sync(tf_global)
            else:
                self.tracker.pending = 0

            payload = self._payload()
            if self.tracker.pending > self.settings.queue_alert_threshold:
                payload["alert"] = self.tracker.pending
                self.alerts_raised += 1
            # Heartbeats are the liveness probe; publish without retries so
            # a partition surfaces on the first timeout.
            try:
                yield from self.server.zk.set_data(
                    server_path(self.server.addr), payload, retry=False
                )
            except RemoteError as exc:
                if not exc.carries(NoNode):
                    raise
                # The recovery manager garbage-collects the znode once a
                # previous incarnation's regions are all recovered; we are
                # the next incarnation, so re-register.
                yield from self.server.zk.create(
                    server_path(self.server.addr), data=payload
                )
            self.heartbeats_sent += 1
        finally:
            self._hb_lock.release()

    def _safe_heartbeat(self):
        try:
            yield from self.heartbeat_once()
        except Interrupt:
            raise
        except Exception:
            pass  # transient zk trouble; the loop retries

    def _heartbeat_loop(self):
        try:
            while self._running:
                yield self.server.sleep(self.settings.server_heartbeat_interval)
                if not self._running:
                    return
                yield from self._safe_heartbeat()
        except Interrupt:
            return

    def _payload(self) -> dict:
        # ``inc`` distinguishes incarnations of a reused address: the
        # recovery manager must not let a restarted server's fresh
        # heartbeats overwrite the T_P its previous life died with.
        return {
            "tp": self.tracker.report_value(),
            "t": self.server.kernel.now,
            "inc": self.server.incarnation,
        }
