"""Embedded key-value client (the HBase-client analogue).

Caches the region map per table, routes single-row reads and per-region
write-set fragments to the right server, and retries around region moves
and server failures.  Flush retries are unbounded by default: Section 3.2
removes the retry/timeout limits because a permanently-failed flush would
block the client's flushed-threshold T_F -- and with it the global
thresholds -- forever.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from repro.config import KvSettings
from repro.errors import KvError, ReproError, RpcError
from repro.kvstore.keys import WireCell
from repro.metrics.registry import MetricsRegistry
from repro.metrics.spans import tracer_for
from repro.sim.node import Node
from repro.sim.retry import RetryPolicy

#: Region map entry: (start, end, region_id, server).
MapEntry = Tuple[str, Optional[str], str, Optional[str]]


class KvClient:
    """Key-value store access from a host node."""

    def __init__(
        self,
        host: Node,
        master: str = "master",
        settings: Optional[KvSettings] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.host = host
        self.master = master
        self.settings = settings or KvSettings()
        #: Backoff pacing for the routing/retry loops below.  The loops
        #: themselves own the give-up rules (their ``max_retries``
        #: arguments), so the policy here is unbounded and only shapes
        #: the delays: exponential from the configured retry delay, with
        #: jitter so concurrent clients do not retry in lockstep.
        self.retry_policy = retry_policy or RetryPolicy(
            base_delay=self.settings.client_retry_delay,
            multiplier=2.0,
            max_delay=self.settings.client_retry_delay * 4,
            jitter=0.2,
            max_attempts=None,
        )
        self._region_maps: Dict[str, List[MapEntry]] = {}
        # Cached bisect keys (region start rows) per table, rebuilt with
        # the region map instead of on every locate().
        self._region_starts: Dict[str, List[str]] = {}
        #: Registry behind all client statistics (see ``metrics()``).
        self.registry = MetricsRegistry("kv_client", host.addr)
        # Hot-path counters, held directly so increments skip the
        # registry lookup.  Read them via ``metrics()["counters"]``.
        (
            self._n_gets,
            self._n_flush_fragments,
            self._n_retries,
        ) = self.registry.counters("gets", "flush_fragments", "retries")
        self._tracer = tracer_for(host.kernel)

    def metrics(self) -> dict:
        """Uniform registry snapshot for this key-value client."""
        return self.registry.snapshot()

    def _backoff(self, attempt: int):
        """Timeout event for the pause after ``attempt`` failed tries."""
        self._n_retries.inc()
        self.host.net.rpc_retries += 1
        return self.host.sleep(
            self.retry_policy.backoff(attempt, self.host.retry_rng)
        )

    # ------------------------------------------------------------------
    # region map
    # ------------------------------------------------------------------
    def _load_region_map(self, table: str):
        entries = yield self.host.call(
            self.master, "locate_table", timeout=10.0, table=table
        )
        region_map = [
            (e["start"], e["end"], e["region"], e["server"]) for e in entries
        ]
        region_map.sort()
        self._region_maps[table] = region_map
        self._region_starts[table] = [entry[0] for entry in region_map]
        return region_map

    def locate(self, table: str, row: str):
        """(region_id, server) for ``row``.  (Generator API.)"""
        if table not in self._region_maps:
            yield from self._load_region_map(table)
        _start, _end, region_id, server = self._map_entry(table, row)
        return region_id, server

    def _map_entry(self, table: str, row: str) -> MapEntry:
        """The entry of ``table``'s loaded region map that holds ``row``."""
        idx = bisect.bisect_right(self._region_starts[table], row) - 1
        if idx < 0:
            raise KvError(f"row {row!r} precedes the first region of {table!r}")
        entry = self._region_maps[table][idx]
        if entry[1] is not None and row >= entry[1]:
            raise KvError(f"region map hole for {row!r} in {table!r}")
        return entry

    def invalidate(self, table: str) -> None:
        """Drop the cached region map (after a routing error)."""
        self._region_maps.pop(table, None)
        self._region_starts.pop(table, None)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(
        self,
        table: str,
        row: str,
        column: str,
        max_version: int,
        max_retries: Optional[int] = None,
    ):
        """Newest (version, value) <= max_version, or None.  (Generator API.)

        Retries around stale region maps, offline regions, and server
        failures; unbounded when ``max_retries`` is None.
        """
        self._n_gets.inc()
        attempt = 0
        while True:
            attempt += 1
            try:
                region_id, server = yield from self.locate(table, row)
                if server is None:
                    raise KvError(f"region for {row!r} unassigned")
                result = yield self.host.call(
                    server,
                    "get",
                    timeout=self.settings.client_op_timeout,
                    region_id=region_id,
                    row=row,
                    column=column,
                    max_version=max_version,
                )
                if result is None:
                    return None
                return tuple(result)
            except (RpcError, KvError) as exc:
                if max_retries is not None and attempt > max_retries:
                    raise KvError(f"get({row!r}) failed after {attempt} tries: {exc!r}")
                self.invalidate(table)
                yield self._backoff(attempt)

    def scan(
        self,
        table: str,
        start_row: str,
        end_row: Optional[str],
        max_version: int,
        limit: int = 1000,
        max_retries: Optional[int] = None,
        column: Optional[str] = None,
    ):
        """Range scan across regions.  (Generator API.)

        Returns up to ``limit`` rows' worth of (row, column, version,
        value) tuples, rows ascending, newest version <= max_version.
        With ``column`` set, only that column's cells are returned and only
        rows live in it count toward ``limit``.  Retries per region like
        :meth:`get`.
        """
        out: List[WireCell] = []
        n_rows = 0
        last_row = None
        cursor = start_row
        while True:
            if end_row is not None and cursor >= end_row:
                break
            if n_rows >= limit:
                break
            attempt = 0
            while True:
                attempt += 1
                try:
                    if table not in self._region_maps:
                        yield from self._load_region_map(table)
                    _start, region_end, region_id, server = self._map_entry(
                        table, cursor
                    )
                    if server is None:
                        raise KvError(f"region {region_id!r} unassigned")
                    scan_end = region_end
                    if end_row is not None and (scan_end is None or end_row < scan_end):
                        scan_end = end_row
                    reply = yield self.host.call(
                        server,
                        "scan",
                        timeout=self.settings.client_op_timeout * 2,
                        region_id=region_id,
                        start_row=cursor,
                        end_row=scan_end,
                        max_version=max_version,
                        limit=limit - n_rows,
                        column=column,
                    )
                    break
                except (RpcError, KvError) as exc:
                    if max_retries is not None and attempt > max_retries:
                        raise KvError(f"scan failed after {attempt} tries: {exc!r}")
                    self.invalidate(table)
                    yield self._backoff(attempt)
            cells = reply["cells"]
            out.extend(cells)
            # Rows arrive ascending, so a new row is a change of row.
            for cell in cells:
                if cell[0] != last_row:
                    last_row = cell[0]
                    n_rows += 1
            if reply["more"] and cells:
                cursor = last_row + "\x00"  # resume just past the last row
            elif region_end is None:
                break
            else:
                cursor = region_end
        return out

    # ------------------------------------------------------------------
    # transactional flush path
    # ------------------------------------------------------------------
    def group_by_region(self, table: str, cells: List[WireCell]):
        """Partition wire cells by destination region.  (Generator API.)"""
        groups: Dict[str, List[WireCell]] = {}
        for cell in cells:
            region_id, _server = yield from self.locate(table, cell[0])
            groups.setdefault(region_id, []).append(cell)
        return groups

    def flush_fragment(
        self,
        table: str,
        region_id: str,
        txn_ts: int,
        cells: List[WireCell],
        piggyback_tp: Optional[int] = None,
        from_recovery: bool = False,
        max_retries: Optional[int] = None,
        txn: Optional[str] = None,
    ):
        """Deliver one region's share of a write-set.  (Generator API.)

        Retries (unbounded by default) until the hosting server applies it.
        Returns the server's ack dict.  ``txn`` is the span txn key of the
        owning transaction, if any.
        """
        self._n_flush_fragments.inc()
        span = self._tracer.begin("flush.region", txn=txn, region=region_id)
        attempt = 0
        row = cells[0][0]
        while True:
            attempt += 1
            try:
                _region, server = yield from self.locate(table, row)
                if server is None:
                    raise KvError(f"region {region_id!r} unassigned")
                result = yield self.host.call(
                    server,
                    "txn_flush",
                    timeout=self.settings.client_op_timeout,
                    size=max(64 * len(cells), 64),
                    region_id=region_id,
                    txn_ts=txn_ts,
                    cells=cells,
                    piggyback_tp=piggyback_tp,
                    from_recovery=from_recovery,
                )
                span.end(attempts=attempt)
                return result
            except (RpcError, KvError) as exc:
                if max_retries is not None and attempt > max_retries:
                    # Abandon (rather than close) the span: the caller
                    # re-groups and retries under a fresh span, so timing
                    # this failed attempt would double-count the work.
                    span.abandon()
                    raise KvError(
                        f"flush({region_id!r}, ts={txn_ts}) failed "
                        f"after {attempt} tries: {exc!r}"
                    )
                self.invalidate(table)
                yield self._backoff(attempt)

    def flush_write_set(
        self,
        table: str,
        txn_ts: int,
        cells: List[WireCell],
        piggyback_tp: Optional[int] = None,
        from_recovery: bool = False,
        max_retries: Optional[int] = None,
        txn: Optional[str] = None,
    ):
        """Flush a whole write-set, fragment per region, concurrently.

        (Generator API.)  Completes when every participating region server
        has acknowledged its fragment -- the paper's *flushed* state.

        Fragments retry with a per-round bound; cells whose fragment fails
        a round (typically because a region moved or failed over under
        us) are **re-grouped** against the fresh map and retried,
        indefinitely unless ``max_retries`` is given.
        """
        remaining = list(cells)
        acks: Dict[str, object] = {}
        round_retries = 20 if max_retries is None else max_retries
        rounds = 0
        while remaining:
            rounds += 1
            try:
                groups = yield from self.group_by_region(table, remaining)
            except (RpcError, KvError):
                # Region-map refresh failed (master unreachable or the map
                # mid-change): this flush must outlive that, so back off
                # and re-group rather than letting the round die.
                if max_retries is not None and rounds > max_retries:
                    raise
                self.invalidate(table)
                yield self._backoff(rounds)
                continue
            # One child per region, started here: a fork inside this
            # flush's own causal chain is no place a queue can form.
            procs = []
            for region_id, fragment in groups.items():
                proc = self.host.fork(
                    self.flush_fragment(
                        table,
                        region_id,
                        txn_ts,
                        fragment,
                        piggyback_tp=piggyback_tp,
                        from_recovery=from_recovery,
                        max_retries=round_retries,
                        txn=txn,
                    ),
                    name=("flush:", txn_ts, ":", region_id),
                )
                # We collect each fragment's outcome below, but a fragment
                # that gives up while we are still awaiting a sibling must
                # not be escalated as an unhandled death by the kernel.
                proc.defuse()
                procs.append((fragment, proc, region_id))
            failed: List[WireCell] = []
            for fragment, proc, region_id in procs:
                try:
                    acks[region_id] = yield proc
                except ReproError:
                    failed.extend(fragment)
            if failed and max_retries is not None:
                raise KvError(
                    f"flush of txn {txn_ts} gave up with "
                    f"{len(failed)} cells undelivered"
                )
            if failed:
                self.invalidate(table)
                yield self._backoff(rounds)
            remaining = failed
        return acks
