"""The recovery client c_R.

A client used only by the recovery manager to replay write-sets from the
transaction manager's log.  It differs from a regular client in exactly the
paper's three ways:

1. it replays updates under the **original commit timestamp** (versioned
   puts make the replay idempotent), never requesting a fresh one;
2. during *server* recovery it replays only the updates that fall within
   the affected region (the caller has already filtered them);
3. during *server* recovery it **piggybacks the failed server's T_P** on
   every replayed update so the receiving live server inherits
   responsibility for them.
"""

from __future__ import annotations

from typing import List, Optional

from repro.kvstore.client import KvClient
from repro.kvstore.keys import WireCell
from repro.metrics.registry import MetricsRegistry


class RecoveryClient:
    """Replay-only client owned by the recovery manager."""

    def __init__(self, kv: KvClient, tm_addr: str = "tm") -> None:
        self.kv = kv
        self.tm_addr = tm_addr
        #: Registry behind the replay counters (see ``metrics()``).
        self.registry = MetricsRegistry("recovery_client", kv.host.addr)
        # Whole write-sets replayed (client failures), region fragments
        # replayed (server failures), individual cells either way.
        (
            self._n_write_sets,
            self._n_fragments,
            self._n_cells,
        ) = self.registry.counters(
            "replayed_write_sets", "replayed_fragments", "replayed_cells"
        )

    def metrics(self) -> dict:
        """Uniform registry snapshot for the recovery client."""
        return self.registry.snapshot()

    def replay_write_set(self, table: str, commit_ts: int, cells: List[WireCell]):
        """Client-failure replay: deliver a whole write-set.  (Generator.)"""
        self._n_write_sets.inc()
        self._n_cells.inc(len(cells))
        result = yield from self.kv.flush_write_set(
            table, commit_ts, cells, from_recovery=True
        )
        # The dead client can no longer report its flush; we inherit that
        # duty so flushed-prefix snapshot visibility keeps advancing.
        self.kv.host.cast(self.tm_addr, "flushed", commit_ts=commit_ts)
        return result

    def replay_fragment(
        self,
        table: str,
        region_id: str,
        commit_ts: int,
        cells: List[WireCell],
        piggyback_tp: Optional[int],
    ):
        """Server-failure replay: one region's updates of one write-set."""
        self._n_fragments.inc()
        self._n_cells.inc(len(cells))
        result = yield from self.kv.flush_fragment(
            table,
            region_id,
            commit_ts,
            cells,
            piggyback_tp=piggyback_tp,
            from_recovery=True,
        )
        return result
