"""Online threshold-invariant monitoring (Algorithms 1-4 as assertions).

The :class:`InvariantMonitor` runs on the cluster's observer node and, on
every sampling tick, snapshots the live threshold state -- the recovery
manager's global T_F/T_P, every client's FlushTracker, every server
agent's PersistTracker, and every live TM shard's log-truncation
watermark -- into a plain-data ``state`` dict, then feeds it to the pure
function :func:`evaluate_invariants`.  Keeping the evaluation pure means
fixture tests can hand it hand-written states and assert exactly which
invariant trips.

Invariants checked (each one is a safety property of the paper's design;
a single violation means the reproduction broke the algorithms, not that
the workload got unlucky):

* ``tp_le_tf`` -- the global thresholds obey T_P <= T_F: log truncation
  (at T_P) must never outrun flushing (T_F), or recovery could need
  records that are gone;
* ``global_monotone`` -- the published global T_F and T_P never move
  backwards within one recovery-manager incarnation;
* ``tf_le_pending`` -- T_F <= min(pending commit ts) over the clients
  the recovery manager tracks as live: the global flushed threshold can
  never pass a commit whose flush is still in flight (Algorithm 2's
  safety condition for client replay);
* ``tf_monotone`` / ``tf_order`` -- per-client T_F(c) is monotone and
  advanced only in local commit order (Algorithm 1: the FQ/FQ' matched
  heads; ``order_violations`` counts any out-of-order retirement);
* ``tp_le_last_tf`` -- per-server T_P(s) never exceeds the global T_F
  that server last read (Algorithm 3: a server may not claim
  persistence beyond what the flush threshold covered);
* ``tp_monotone`` -- per-(server, incarnation) T_P(s) never moves
  backwards (a restarted incarnation legitimately starts lower, which is
  why the key includes the incarnation);
* ``server_tf_view`` -- a server's last-read global T_F never exceeds
  the recovery manager's current one (reads lag the publisher);
* ``truncation_le_tp`` -- no live TM shard's recovery log is truncated
  past the global T_P (Algorithm 4's whole point); the violation's
  subject names the shard.  There is one pair of thresholds however many
  TM shards there are (docs/SHARDED_TM.md).

Sampling is in-memory on the observer node (no RPC traffic), so the
monitor never perturbs the workload it is judging.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.metrics.registry import MetricsRegistry

#: How many violations the monitor keeps verbatim (counters keep counting).
MAX_VIOLATIONS = 200


def evaluate_invariants(state: dict, memory: Optional[dict] = None) -> List[dict]:
    """Check one threshold-state sample; returns the violations found.

    ``state`` is plain data (see :meth:`InvariantMonitor.sample`)::

        {
          "t": <sim time>,
          "rm": {"epoch": ..., "global_tf": int, "global_tp": int,
                 "live_clients": [client_id, ...]} | None,
          "clients": {cid: {"epoch": ..., "tf": int,
                            "pending_head": int | None,
                            "order_violations": int}},
          "servers": {addr: {"incarnation": ..., "tp": int,
                             "last_tf_seen": int}},
          "tm": {"truncated_below": {tm_addr: int}},
        }

    ``memory`` carries watermarks between calls (pass the same dict every
    tick); with ``memory=None`` only the memoryless invariants run.
    """
    violations: List[dict] = []
    t = state.get("t", 0.0)

    def flag(kind: str, subject: str, detail: str) -> None:
        violations.append({"kind": kind, "subject": subject, "detail": detail, "t": t})

    rm = state.get("rm")
    clients = state.get("clients", {})
    servers = state.get("servers", {})
    tm = state.get("tm", {})

    if rm is not None:
        tf, tp = rm["global_tf"], rm["global_tp"]
        if tp > tf:
            flag("tp_le_tf", "rm", f"global T_P {tp} > global T_F {tf}")
        if memory is not None:
            if memory.get("rm_epoch") != rm.get("epoch"):
                # A restarted recovery manager re-publishes recovered
                # state; watermarks from the previous incarnation no
                # longer apply.
                memory["rm_epoch"] = rm.get("epoch")
                memory.pop("global_tf", None)
                memory.pop("global_tp", None)
            if tf < memory.get("global_tf", tf):
                flag(
                    "global_monotone", "rm",
                    f"global T_F moved back {memory['global_tf']} -> {tf}",
                )
            if tp < memory.get("global_tp", tp):
                flag(
                    "global_monotone", "rm",
                    f"global T_P moved back {memory['global_tp']} -> {tp}",
                )
            memory["global_tf"] = max(tf, memory.get("global_tf", tf))
            memory["global_tp"] = max(tp, memory.get("global_tp", tp))
        for cid in rm.get("live_clients", []):
            entry = clients.get(cid)
            if entry is None:
                continue
            head = entry.get("pending_head")
            if head is not None and tf > head:
                flag(
                    "tf_le_pending", cid,
                    f"global T_F {tf} > pending commit ts {head}",
                )
        for tm_addr, trunc in sorted(tm.get("truncated_below", {}).items()):
            if trunc > tp:
                flag(
                    "truncation_le_tp", tm_addr,
                    f"log truncated below {trunc} > global T_P {tp}",
                )

    for cid in sorted(clients):
        entry = clients[cid]
        if entry.get("order_violations", 0) > 0:
            flag(
                "tf_order", cid,
                f"T_F(c) advanced out of local commit order "
                f"({entry['order_violations']} times)",
            )
        if memory is not None:
            key = ("client", cid, entry.get("epoch"))
            last = memory.get(key)
            if last is not None and entry["tf"] < last:
                flag(
                    "tf_monotone", cid,
                    f"T_F(c) moved back {last} -> {entry['tf']}",
                )
            memory[key] = max(entry["tf"], memory.get(key, entry["tf"]))

    for addr in sorted(servers):
        entry = servers[addr]
        tp_s, seen = entry["tp"], entry["last_tf_seen"]
        if tp_s > seen:
            flag(
                "tp_le_last_tf", addr,
                f"T_P(s) {tp_s} > last-read global T_F {seen}",
            )
        if rm is not None and seen > rm["global_tf"]:
            flag(
                "server_tf_view", addr,
                f"last-read global T_F {seen} > recovery manager's "
                f"{rm['global_tf']}",
            )
        if memory is not None:
            key = ("server", addr, entry.get("incarnation"))
            last = memory.get(key)
            if last is not None and tp_s < last:
                flag(
                    "tp_monotone", addr,
                    f"T_P(s) moved back {last} -> {tp_s}",
                )
            memory[key] = max(tp_s, memory.get(key, tp_s))

    return violations


class InvariantMonitor:
    """Periodic, in-memory sampler of the live cluster's threshold state."""

    def __init__(self, cluster, interval: float = 0.25) -> None:
        self.cluster = cluster
        self.interval = interval
        self.violations: List[dict] = []
        self.samples = 0
        self.memory: Dict = {}
        #: Oracle counters (folded into the cluster metrics snapshot).
        self.registry = MetricsRegistry("oracle", "monitor")

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample(self) -> dict:
        """Snapshot the live threshold state into plain data."""
        cluster = self.cluster
        state: dict = {
            "t": round(cluster.kernel.now, 9),
            "rm": None,
            "clients": {},
            "servers": {},
            "tm": {
                "truncated_below": {
                    tm.addr: tm.log.truncated_below
                    for tm in cluster.tms
                    if tm.alive
                }
            },
        }
        rm = cluster.rm
        # A restarting recovery manager holds zeros until it has recovered
        # its published state (start(recover=True)); judging those would
        # manufacture violations, so wait for _running.
        if rm is not None and rm._running:
            from repro.core.recovery_manager import LIVE

            state["rm"] = {
                "epoch": id(rm),
                "global_tf": rm.global_tf,
                "global_tp": rm.global_tp,
                "live_clients": sorted(
                    cid for cid, e in rm.clients.items() if e.status == LIVE
                ),
            }
        for handle in cluster.clients:
            agent = handle.agent
            if agent is None or agent.tracker is None:
                continue
            tracker = agent.tracker
            state["clients"][handle.client_id] = {
                "epoch": id(tracker),
                "tf": tracker.tf,
                "pending_head": tracker.pending_head,
                "order_violations": tracker.order_violations,
            }
        for rs, agent in zip(cluster.servers, cluster.server_agents):
            if agent is None or not rs.alive:
                continue
            if agent.tracker_incarnation != rs.incarnation:
                # Restart window: the agent has not re-seeded its tracker
                # for this incarnation yet -- the numbers are a past life's.
                continue
            state["servers"][rs.addr] = {
                "incarnation": rs.incarnation,
                "tp": agent.tracker.tp,
                "last_tf_seen": agent.tracker.last_tf_seen,
            }
        return state

    def check_once(self) -> List[dict]:
        """Sample and evaluate; records (and returns) new violations."""
        found = evaluate_invariants(self.sample(), self.memory)
        self.samples += 1
        self.registry.counter("samples").inc()
        for violation in found:
            self.registry.counter("violations").inc()
            self.registry.counter("violations_by_kind", kind=violation["kind"]).inc()
            if len(self.violations) < MAX_VIOLATIONS:
                self.violations.append(violation)
        return found

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the sampling loop on the cluster's observer node."""
        proc = self.cluster.observer.spawn(self._loop(), name="invariant-monitor")
        proc.defuse()

    def _loop(self):
        while True:
            yield self.cluster.observer.sleep(self.interval)
            self.check_once()

    @property
    def ok(self) -> bool:
        """Whether every sample so far upheld every invariant."""
        return not self.violations

    def metrics(self) -> dict:
        """Uniform registry snapshot for the monitor."""
        return self.registry.snapshot()
