"""Flush/persist progress tracking (the heart of Algorithms 1 and 3).

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

Both trackers expose a capacity-1 lock modelling the synchronized data
structures whose contention Figure 2(b) measures.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from repro.sim.kernel import Kernel
from repro.sim.resource import Resource


class FlushTracker:
    """Client-side T_F(c) bookkeeping (Algorithm 1)."""

    def __init__(self, kernel: Kernel, initial_tf: int = 0) -> None:
        self.tf = initial_tf
        self._fq: List[int] = []  # committed txns, commit order
        self._fq_flushed: List[int] = []  # flushed txns
        #: Commit attempts in flight, token -> floor (:meth:`note_attempt`).
        self._attempts: Dict[int, int] = {}
        self._attempt_tokens = 0
        self._last_ts = initial_tf
        self.lock = Resource(kernel, capacity=1)
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

    def note_commit(self, commit_ts: int, token: Optional[int] = None):
        """Algorithm 1, "On receiving commit timestamp T".  (Generator API:
        touches the synchronized queue under the tracker lock.)"""
        yield from self.lock.use(0.0)
        heapq.heappush(self._fq, commit_ts)
        self._attempts.pop(token, None)
        self._last_ts = max(self._last_ts, commit_ts)
        self.commits_tracked += 1

    def note_flushed(self, commit_ts: int):
        """Algorithm 1, "On post-flush of transaction T"."""
        yield from self.lock.use(0.0)
        heapq.heappush(self._fq_flushed, commit_ts)

    def advance(self) -> int:
        """Algorithm 1's heartbeat drain: pop matched heads, advance T_F --
        up to the lowest floor of the commit attempts still in flight.

        Returns how many transactions were retired.  Must be called while
        holding (or logically owning) the tracker lock.
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

    def __init__(
        self,
        kernel: Kernel,
        initial_tp: int = 0,
        last_tf_seen: Optional[int] = None,
    ) -> None:
        self.tp = initial_tp
        #: The last global T_F this server read from the recovery manager
        #: (Algorithm 3's invariant: T_P(s) never exceeds it).  A restarted
        #: server seeds it with the recovered T_P, which by construction
        #: was below some earlier global T_F.
        self.last_tf_seen = initial_tp if last_tf_seen is None else last_tf_seen
        #: Lowest piggybacked T_P(failed) received since the last completed
        #: sync (responsibility inheritance); cleared once everything
        #: received is durable again.
        self._inherited: Optional[int] = None
        #: Fragments received since the last heartbeat drain (the PQ size).
        self.pending = 0
        self.lock = Resource(kernel, capacity=1)

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
