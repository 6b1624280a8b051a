"""Client-side recovery agent (Algorithm 1).

Owns the client's :class:`~repro.core.tracking.FlushTracker`, registers the
client with the recovery manager (by creating its heartbeat znode), and
periodically advances T_F(c) and publishes it.  The transactional client
calls :meth:`note_commit` / :meth:`note_flushed`; everything else is
background work.

Heartbeat processing cost is modelled explicitly: the drain holds the
tracker lock for ``fixed + entries * per_entry`` seconds, stalling any
transaction that needs the lock meanwhile -- the contention Figure 2(b)
sweeps.
"""

from __future__ import annotations

from typing import Optional

from repro.config import RecoverySettings
from repro.core.paths import GLOBAL_PATH, client_path
from repro.core.tracking import FlushTracker
from repro.errors import ZkError
from repro.sim.events import Interrupt
from repro.sim.node import Node
from repro.zk.client import ZkClient


class ClientRecoveryAgent:
    """Recovery bookkeeping for one key-value client process."""

    def __init__(
        self,
        host: Node,
        zk: ZkClient,
        client_id: Optional[str] = None,
        settings: Optional[RecoverySettings] = None,
    ) -> None:
        self.host = host
        self.zk = zk
        self.client_id = client_id or host.addr
        self.settings = settings or RecoverySettings()
        self.tracker: Optional[FlushTracker] = None
        self._running = False
        self.heartbeats_sent = 0
        self.alerts_raised = 0
        self._consecutive_failures = 0
        #: Set when the agent terminated its host after losing contact with
        #: the recovery manager (Section 3.1's partition rule).
        self.self_terminated = False

    # ------------------------------------------------------------------
    # lifecycle (generator API)
    # ------------------------------------------------------------------
    def start(self):
        """Register with the recovery manager and start heartbeating.

        Algorithm 2 "On register(c)": the new client's T_F(c) starts at the
        current global T_F, which we read from the published state.
        """
        initial_tf = 0
        try:
            node = yield from self.zk.get(GLOBAL_PATH)
            initial_tf = node["data"].get("tf", 0)
        except ZkError:
            pass
        except Exception:
            pass  # RemoteError(NoNode): no global state published yet
        self.tracker = FlushTracker(self.host.kernel, initial_tf=initial_tf)
        yield from self.zk.create(
            client_path(self.client_id), data=self._payload()
        )
        self._running = True
        self.host.spawn(self._heartbeat_loop(), name="client-heartbeat")
        return self

    def shutdown(self):
        """Clean shutdown: pre-shutdown heartbeat, then unregister."""
        self._running = False
        yield from self.heartbeat_once()
        yield from self.zk.delete(client_path(self.client_id))

    # ------------------------------------------------------------------
    # hooks called by the transactional client
    # ------------------------------------------------------------------
    def note_attempt(self) -> int:
        """A commit request is about to be sent; returns its token."""
        return self.tracker.note_attempt()

    def drop_attempt(self, token: int) -> None:
        """The attempt ended without a commit timestamp to track."""
        self.tracker.drop_attempt(token)

    def note_commit(self, commit_ts: int, token: Optional[int] = None):
        """A commit timestamp was received (FQ.enqueue)."""
        yield from self.tracker.note_commit(commit_ts, token)

    def note_flushed(self, commit_ts: int):
        """A write-set finished flushing (FQ'.enqueue)."""
        yield from self.tracker.note_flushed(commit_ts)

    @property
    def tf(self) -> int:
        """The current local flushed threshold T_F(c)."""
        return self.tracker.tf if self.tracker is not None else 0

    # ------------------------------------------------------------------
    # heartbeats
    # ------------------------------------------------------------------
    def heartbeat_once(self):
        """Drain the tracking queues, advance T_F(c), publish it."""
        tracker = self.tracker
        cost = (
            self.settings.heartbeat_fixed_cost
            + tracker.drainable * self.settings.heartbeat_entry_cost
        )
        # Lock contention: while the queues drain, the client's regular
        # operations on them stall (synchronized queues).
        yield from tracker.lock.use(cost)
        tracker.advance()
        payload = self._payload()
        if tracker.in_flight > self.settings.queue_alert_threshold:
            payload["alert"] = tracker.in_flight
            self.alerts_raised += 1
        # No transport retries here: the heartbeat loop counts failed
        # publications toward self-termination, so a partition must show
        # up as a miss on the first timeout, not after backoff.
        yield from self.zk.set_data(
            client_path(self.client_id), payload, retry=False
        )
        self.heartbeats_sent += 1

    def _heartbeat_loop(self):
        try:
            while self._running:
                yield self.host.sleep(self.settings.client_heartbeat_interval)
                if not self._running:
                    return
                try:
                    yield from self.heartbeat_once()
                    self._consecutive_failures = 0
                except Interrupt:
                    raise
                except Exception:
                    # Transient trouble retries; *persistent* failure means
                    # we are partitioned from the coordination service.  By
                    # then the recovery manager has declared us dead and is
                    # replaying our commits, so we must stop issuing
                    # flushes: the paper's rule is that the partitioned
                    # client terminates itself (Section 3.1).
                    self._consecutive_failures += 1
                    if (
                        self._consecutive_failures
                        >= self.settings.missed_heartbeat_limit
                    ):
                        self.self_terminated = True
                        self.host.crash()
                        return
        except Interrupt:
            return

    def _payload(self) -> dict:
        return {"tf": self.tf, "t": self.host.kernel.now}
