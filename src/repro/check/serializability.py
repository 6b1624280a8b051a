"""Offline serializability checker: the direct serialization graph.

Builds Adya's DSG over the *committed* transactions of a recorded
history and hunts for cycles -- a pass over the same
:class:`~repro.check.history.HistoryView` the SI checker reads: its
transactions, its version order and its read stream.  Nodes are
committed transactions (read-only ones included); edges come in three
flavours, all derived mechanically from the multi-versioned store's
property that a version *is* its writer's commit timestamp:

* **ww** (version order) -- the writer of a key's version to the writer
  of that key's direct successor version;
* **wr** (reads-from) -- the writer of a version to every committed
  transaction that read exactly that version;
* **rw** (antidependency) -- a transaction that read a version to the
  writer of that version's direct successor: the reader observed state
  the successor destroyed, so the reader serializes *before* a writer
  that committed *after* it.  A read miss (version ``None``) counts as
  reading the state before the key's first version, so its rw edge
  points at the first committed writer.

A serial order exists iff the DSG is acyclic, so every cycle is a
serializability violation -- reported as a ``serializability_cycle``
anomaly carrying the witnessing transaction cycle, edge labels included.

Two audit modes, matching the TM's isolation levels:

* ``mode="ssi"`` -- the history claims serializability; *any* cycle is
  an anomaly.
* ``mode="si"`` -- the history only claims snapshot isolation, which
  permits non-serializable executions (write skew).  By Fekete's
  theorem every cycle a *correct* SI implementation can produce
  contains at least two rw antidependency edges; a cycle with zero or
  one rw edge therefore means SI itself was broken, and only those are
  anomalies.  Cycles with >= 2 rw edges are counted
  (``permitted_si_cycles``) but tolerated.  One carve-out: under the
  store's default "latest" snapshot visibility a read may legally miss
  a committed version whose asynchronous flush is still in flight,
  which fractures the snapshot and can close a single-rw cycle without
  any implementation bug.  A single-rw cycle is therefore flagged only
  when its rw edge is *inexcusable*: the missed version was concurrent
  with the reader's snapshot, or its flush had already completed when
  the read was issued (the view's ``flushed_before``, the gate the SI
  checker's ``stale_read`` uses, so it reports one too).

Scope: reads attributed to committed transactions only (unacknowledged
replayed write-sets are audited by :class:`~repro.check.sichecker.SIChecker`),
and scans contribute only the rows they returned -- predicate
anti-dependencies (phantoms) are outside the recorded read model.  Both
restrictions drop nodes/edges, never invent them, so a reported cycle
is always real.

The checker is pure: same history in, byte-identical report out.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.check.history import HistoryView, Key, TxnView
from repro.check.sichecker import Anomaly, CheckReport


class SerializabilityChecker:
    """Cycle detection over one recorded history's serialization graph."""

    def __init__(self, events: List[dict], mode: str = "ssi") -> None:
        if mode not in ("si", "ssi"):
            raise ValueError(f"unknown audit mode {mode!r}")
        self.events = events
        self.mode = mode

    # ------------------------------------------------------------------
    # the pass
    # ------------------------------------------------------------------
    def check(self) -> CheckReport:
        """Run the audit; returns the (deterministic) report."""
        report = CheckReport()
        view = HistoryView(self.events)
        committed = {k: t for k, t in view.txns.items() if t.committed}
        edges, label_counts, rw_excused = self._build_graph(view, committed)
        nodes = list(committed)  # the view keeps key order

        report.counters["txns"] = len(view.txns)
        report.counters["committed"] = len(committed)
        report.counters["read_only"] = sum(
            1 for t in committed.values() if t.read_only
        )
        for label in ("ww", "wr", "rw"):
            report.counters[f"edges_{label}"] = label_counts[label]

        sccs = _tarjan(nodes, edges)
        cyclic = [sorted(scc) for scc in sccs if len(scc) > 1]
        cyclic.sort()
        report.counters["cycles"] = len(cyclic)

        if self.mode == "ssi":
            for scc in cyclic:
                detail = self._witness_in(scc, edges, set(scc))
                report.anomalies.append(
                    Anomaly("serializability_cycle", scc[0], detail)
                )
            return report

        # mode == "si": flag only cycles a correct SI implementation
        # cannot produce -- those with fewer than two rw edges.
        flagged: Set[str] = set()
        nonrw = {
            u: {v for v, labels in adj.items() if labels - {"rw"}}
            for u, adj in edges.items()
        }
        # (a) zero rw edges: a cycle in the ww/wr-only subgraph.
        for scc in sorted(
            sorted(s) for s in _tarjan(nodes, nonrw) if len(s) > 1
        ):
            detail = self._witness_in(scc, edges, set(scc), nonrw_only=True)
            report.anomalies.append(
                Anomaly("serializability_cycle", scc[0], detail)
            )
            flagged.update(scc)
        # (b) exactly one rw edge u->v, closed by a ww/wr-only path back.
        for u in nodes:
            for v in sorted(edges.get(u, ())):
                if "rw" not in edges[u][v]:
                    continue
                if rw_excused.get((u, v), False):
                    # Legal flush-lag miss (see _build_graph): tolerated
                    # under an SI-only claim.
                    continue
                path = _bfs_path(v, u, nonrw)
                if path is None:
                    continue
                # path is v..u inclusive; u closes the cycle via its rw edge.
                detail = self._format_cycle([u] + path[:-1], edges)
                report.anomalies.append(
                    Anomaly("serializability_cycle", min(u, *path), detail)
                )
                flagged.update([u] + path)
        report.counters["permitted_si_cycles"] = sum(
            1 for scc in cyclic if not flagged.intersection(scc)
        )
        return report

    # ------------------------------------------------------------------
    # graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _build_graph(view: HistoryView, committed: Dict[str, TxnView]):
        """Adjacency ``u -> v -> {labels}``, per-label edge counts, and
        the set-like map of rw edges that are *excused* in si mode: every
        read behind the edge missed a version inside its snapshot whose
        flush was still in flight when the read was issued (legal lag
        under "latest" visibility, not a broken snapshot)."""
        edges: Dict[str, Dict[str, Set[str]]] = {}

        def add(u: str, v: str, label: str) -> None:
            if u != v:
                edges.setdefault(u, {}).setdefault(v, set()).add(label)

        stamps: Dict[Key, List[int]] = {}
        for key, ordered in view.versions.items():
            stamps[key] = [ts for ts, _writer, _value in ordered]
            for (_ts1, w1, _v1), (_ts2, w2, _v2) in zip(ordered, ordered[1:]):
                add(w1, w2, "ww")

        #: Committed txns' non-own reads: (reader, key, version read) ->
        #: latest issue time, which decides the si-mode excusal.
        reads: Dict[Tuple[str, Key, Optional[int]], float] = {}
        for txn, key, _start, t0, version, _value, own, _where in view.reads:
            if not own and txn.key in committed:
                read = (txn.key, key, version)
                latest = reads.get(read)
                if latest is None or t0 > latest:
                    reads[read] = t0

        rw_excused: Dict[Tuple[str, str], bool] = {}
        for (tkey, rkey, version), issued_at in reads.items():
            ordered = view.versions.get(rkey)
            if not ordered:
                continue
            if version is not None:
                index = bisect_right(stamps[rkey], version) - 1
                if index >= 0 and stamps[rkey][index] == version:
                    add(ordered[index][1], tkey, "wr")
            # The direct successor of the read version (miss = before
            # everything, so the successor is the first version).
            base = -1 if version is None else version
            succ = bisect_right(stamps[rkey], base)
            if succ < len(ordered):
                succ_ts, succ_writer, _value = ordered[succ]
                if succ_writer != tkey:
                    add(tkey, succ_writer, "rw")
                    # Excusable miss: the successor sat inside the reader's
                    # snapshot but its flush had not completed when the
                    # read went out.
                    start_ts = committed[tkey].start_ts
                    excusable = (
                        start_ts is not None
                        and succ_ts <= start_ts
                        and not view.flushed_before(succ_ts, issued_at)
                    )
                    edge = (tkey, succ_writer)
                    rw_excused[edge] = rw_excused.get(edge, True) and excusable

        counts = {"ww": 0, "wr": 0, "rw": 0}
        for adj in edges.values():
            for labels in adj.values():
                for label in labels:
                    counts[label] += 1
        return edges, counts, rw_excused

    # ------------------------------------------------------------------
    # witnesses
    # ------------------------------------------------------------------
    def _witness_in(
        self,
        scc: List[str],
        edges: Dict[str, Dict[str, Set[str]]],
        members: Set[str],
        nonrw_only: bool = False,
    ) -> str:
        """A concrete cycle through ``scc[0]``, formatted with labels."""
        start = scc[0]

        def out(u: str):
            for v in sorted(edges.get(u, ())):
                if v not in members:
                    continue
                if nonrw_only and not (edges[u][v] - {"rw"}):
                    continue
                yield v

        # BFS to the nearest member with an edge back to start.
        parents: Dict[str, Optional[str]] = {start: None}
        queue = deque([start])
        closer = None
        while queue:
            u = queue.popleft()
            if start in edges.get(u, {}) and (
                not nonrw_only or edges[u][start] - {"rw"}
            ) and u != start:
                closer = u
                break
            for v in out(u):
                if v not in parents:
                    parents[v] = u
                    queue.append(v)
        if closer is None:
            # Only a 2-cycle start <-> x remains possible: take the first
            # successor that points back (guaranteed in a non-trivial SCC).
            for v in out(start):
                if start in edges.get(v, {}):
                    closer = v
                    parents[v] = start
                    break
        path = []
        node: Optional[str] = closer
        while node is not None:
            path.append(node)
            node = parents[node]
        path.reverse()  # start ... closer
        return self._format_cycle(path, edges, nonrw_only=nonrw_only)

    def _format_cycle(
        self,
        path: List[str],
        edges: Dict[str, Dict[str, Set[str]]],
        nonrw_only: bool = False,
    ) -> str:
        """``t1 -rw-> t2 -ww-> t1`` for the closed walk ``path``."""
        parts = []
        cycle = path + [path[0]]
        for u, v in zip(cycle, cycle[1:]):
            labels = set(edges[u][v])
            if nonrw_only:
                labels -= {"rw"}
            parts.append(f"{u} -{'/'.join(sorted(labels))}-> ")
        return "cycle " + "".join(parts) + path[0]


def graph_summary(report: CheckReport) -> str:
    """One line for CLI output, shaped for the graph counters."""
    c = report.counters
    return (
        f"{c.get('committed', 0)} committed txns "
        f"({c.get('read_only', 0)} read-only), edges "
        f"ww={c.get('edges_ww', 0)} wr={c.get('edges_wr', 0)} "
        f"rw={c.get('edges_rw', 0)}, {c.get('cycles', 0)} cycles: "
        f"{len(report.anomalies)} anomalies"
    )


def _tarjan(
    nodes: List[str], edges: Dict[str, "Dict[str, object]"]
) -> List[List[str]]:
    """Iterative Tarjan strongly-connected components (deterministic:
    nodes and successors visited in sorted order)."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(sorted(edges.get(root, ()))))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(edges.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)
    return sccs


def _bfs_path(
    source: str, target: str, edges: Dict[str, Set[str]]
) -> Optional[List[str]]:
    """Shortest ``source -> ... -> target`` node path (inclusive), or
    None.  Deterministic: successors explored in sorted order."""
    if source == target:
        return [source]
    parents: Dict[str, Optional[str]] = {source: None}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in sorted(edges.get(u, ())):
            if v in parents:
                continue
            parents[v] = u
            if v == target:
                path = [v]
                while parents[path[-1]] is not None:
                    path.append(parents[path[-1]])
                path.reverse()
                return path
            queue.append(v)
    return None
