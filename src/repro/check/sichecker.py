"""Offline snapshot-isolation checker over a recorded history.

A pass over :class:`~repro.check.history.HistoryView`, which parses the
events: it takes the view's version order (the store is multi-versioned
by commit timestamp, the property the paper leans on for idempotent
replay) and audits every read and scan row of the view's read stream,
and every commit, against the transactional contract:

* **non_snapshot_read** -- a read returned a version newer than the
  transaction's snapshot timestamp (the store's ``max_version`` bound,
  and SI's "no reads from the future", was violated);
* **stale_read** -- a read missed a committed version that was inside
  its snapshot *and* whose write-set flush had completed before the read
  was issued.  Under the paper's deferred-update commit ("latest"
  snapshot visibility) a snapshot may legitimately miss a
  committed-but-unflushed write-set, so staleness is an anomaly only
  once the newer version was observably in the store;
* **aborted_read** -- a read returned a value only ever written by a
  transaction the history records as aborted (aborted write-sets must
  never reach the store: they are neither logged nor flushed);
* **phantom_version** -- a read returned a version/value no recorded
  transaction produced (corruption, or a replay inventing data);
* **value_mismatch** -- the version exists but the durable value differs
  from what the TM certified (write-set divergence);
* **lost_update** -- two committed transactions with overlapping
  execution intervals both wrote the same key: first-committer-wins
  certification (Algorithm: the TM's SI certifier) failed;
* **own_read_mismatch** -- read-your-own-writes returned something other
  than the transaction's latest buffered write;
* **duplicate_commit_ts** / **commit_order** -- commit-timestamp
  uniqueness and ``start_ts < commit_ts`` sanity;
* **inconsistent_replay** -- reads attribute the same unacknowledged
  transaction (client crashed before learning the verdict; Algorithm 2
  replays it) to two different commit timestamps, i.e. a non-idempotent
  replay materialized the write-set twice;
* **cross_shard_atomicity** -- sharded-TM histories only (commit
  attempts carry per-write ``owners``): a committed transaction whose
  write-set spans several TM shards must become visible atomically.
  Once its flush completed, a read inside a snapshot that covers its
  commit timestamp must not return an *older* version for any of its
  keys -- doing so means one shard's slice materialized while another's
  was lost (a torn cross-shard commit).  The rule is flush-gated exactly
  like ``stale_read`` (:meth:`~repro.check.history.HistoryView.flushed_before`),
  so deferred visibility never trips it.

The checker is pure: same history in, byte-identical report out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.check.history import HistoryView, Key, TxnView


@dataclass(frozen=True)
class Anomaly:
    """One detected violation of the transactional contract."""

    kind: str
    txn: str  # the observing (or offending) transaction key
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} [{self.txn}]: {self.detail}"


@dataclass
class CheckReport:
    """Everything one checker pass produced; equality is bit-for-bit."""

    anomalies: List[Anomaly] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether the history upheld the transactional contract."""
        return not self.anomalies

    def summary(self) -> str:
        """One line for sweep output."""
        c = self.counters
        return (
            f"checked {c.get('txns', 0)} txns "
            f"({c.get('committed', 0)} committed, {c.get('aborted', 0)} aborted, "
            f"{c.get('unacked', 0)} unacked), {c.get('reads_checked', 0)} reads: "
            f"{len(self.anomalies)} anomalies"
        )

    def to_json(self) -> str:
        """Canonical JSON (sorted keys), byte-stable for a given history."""
        import json

        doc = {
            "ok": self.ok,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "anomalies": [
                {"kind": a.kind, "txn": a.txn, "detail": a.detail}
                for a in self.anomalies
            ],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class SIChecker:
    """Offline consistency oracle over one recorded history.

    ``initial_value`` (optional) validates reads of the preloaded
    dataset: a callable ``(table, row, column) -> value`` returning the
    expected version-0 value, or None if the row was not preloaded.
    Without it, any version-0 read is accepted as initial data.
    """

    INITIAL_VERSION = 0

    def __init__(
        self,
        events: List[dict],
        initial_value: Optional[Callable[[str, str, str], Any]] = None,
    ) -> None:
        self.events = events
        self.initial_value = initial_value

    # ------------------------------------------------------------------
    # the pass
    # ------------------------------------------------------------------
    def check(self) -> CheckReport:
        """Run every check; returns the (deterministic) report."""
        report = CheckReport()
        view = HistoryView(self.events)
        versions = self._version_order(view, report)
        aborted_values, unacked_values = self._index_uncommitted(view)
        bindings: Dict[str, int] = {}  # unacked txn -> inferred commit ts

        reads_checked = scan_rows = 0
        for txn, key, start_ts, t0, version, value, own, where in view.reads:
            if where == "read":
                reads_checked += 1
            else:
                scan_rows += 1
            self._check_read(
                view, txn, key, start_ts, t0, version, value, own, where,
                versions, aborted_values, unacked_values, bindings, report,
            )

        self._check_lost_updates(view, bindings, report)
        n_cross_shard = self._check_cross_shard_atomicity(view, bindings, report)

        txns = view.txns.values()
        report.counters = {
            "events": len(self.events),
            "txns": len(txns),
            "committed": sum(1 for t in txns if t.committed),
            "aborted": sum(1 for t in txns if t.aborted),
            "unacked": sum(1 for t in txns if t.unacked),
            "bound_unacked": len(bindings),
            "reads_checked": reads_checked,
            "scan_rows_checked": scan_rows,
            "versions": sum(len(v) for v in versions.values()),
            "anomalies": len(report.anomalies),
        }
        if n_cross_shard is not None:
            report.counters["cross_shard_txns"] = n_cross_shard
        return report

    # ------------------------------------------------------------------
    # version order
    # ------------------------------------------------------------------
    @staticmethod
    def _version_order(
        view: HistoryView, report: CheckReport
    ) -> Dict[Key, Dict[int, Tuple[Any, str]]]:
        """Version map (key -> commit_ts -> (value, txn)); of writers
        sharing a stamp the last in key order holds it.  Audits commit
        timestamps on the way."""
        seen_ts: Dict[int, str] = {}
        for txn in view.txns.values():
            if not txn.committed or txn.read_only:
                continue
            ts = txn.commit_ts
            if txn.start_ts is not None and ts <= txn.start_ts:
                report.anomalies.append(Anomaly(
                    "commit_order", txn.key,
                    f"commit_ts {ts} <= start_ts {txn.start_ts}",
                ))
            prev = seen_ts.get(ts)
            if prev is not None:
                report.anomalies.append(Anomaly(
                    "duplicate_commit_ts", txn.key,
                    f"commit_ts {ts} already used by {prev}",
                ))
            seen_ts[ts] = txn.key
        return {
            key: {ts: (value, writer) for ts, writer, value in entries}
            for key, entries in view.versions.items()
        }

    @staticmethod
    def _index_uncommitted(
        view: HistoryView,
    ) -> Tuple[Dict[Key, Dict[str, List[str]]], Dict[Key, Dict[str, List[str]]]]:
        """Value indexes for aborted and unacknowledged write-sets.

        Values are compared as ``repr`` strings so histories loaded back
        from JSON behave identically to in-memory ones.
        """
        aborted: Dict[Key, Dict[str, List[str]]] = {}
        unacked: Dict[Key, Dict[str, List[str]]] = {}
        for txn in view.txns.values():
            if txn.aborted:
                target = aborted
            elif txn.unacked:
                target = unacked
            else:
                continue
            for table, row, column, value in txn.certified_writes():
                bucket = target.setdefault((table, row, column), {})
                bucket.setdefault(_vkey(value), []).append(txn.key)
        return aborted, unacked

    # ------------------------------------------------------------------
    # read validation
    # ------------------------------------------------------------------
    def _check_read(
        self,
        view: HistoryView,
        txn: TxnView,
        key: Key,
        start_ts: int,
        issued_at: float,
        version: Optional[int],
        value: Any,
        own: Any,
        where: str,
        versions: Dict[Key, Dict[int, Tuple[Any, str]]],
        aborted_values: Dict[Key, Dict[str, List[str]]],
        unacked_values: Dict[Key, Dict[str, List[str]]],
        bindings: Dict[str, int],
        report: CheckReport,
    ) -> None:
        loc = "/".join(key)
        if own:
            (expected,) = own  # buffered as of the read's stream position
            if _vkey(expected) != _vkey(value):
                report.anomalies.append(Anomaly(
                    "own_read_mismatch", txn.key,
                    f"{where} of {loc} returned {value!r}, "
                    f"buffered write was {expected!r}",
                ))
            return

        if version is not None and version > start_ts:
            report.anomalies.append(Anomaly(
                "non_snapshot_read", txn.key,
                f"{where} of {loc} returned version {version} > "
                f"snapshot {start_ts}",
            ))
            return

        if version is not None:
            self._check_version_value(
                txn.key, key, loc, version, value, versions, aborted_values,
                unacked_values, bindings, report, where,
            )

        # Staleness: the newest committed version inside the snapshot
        # whose flush had completed before the read was issued must not
        # be newer than what the read returned.
        visible = versions.get(key, {})
        returned = version if version is not None else self.INITIAL_VERSION - 1
        newest_flushed = None
        for ts in visible:
            if not returned < ts <= start_ts:
                continue  # not newer than the read, or outside the snapshot
            if newest_flushed is not None and ts <= newest_flushed:
                continue
            if view.flushed_before(ts, issued_at):
                newest_flushed = ts
        if newest_flushed is not None:
            missed_value, missed_txn = visible[newest_flushed]
            if version is None and missed_value is None:
                return  # a miss correctly reflecting a flushed delete
            report.anomalies.append(Anomaly(
                "stale_read", txn.key,
                f"{where} of {loc} at snapshot {start_ts} returned "
                f"version {version} but {missed_txn} committed "
                f"{newest_flushed} (flushed before the read)",
            ))

    def _check_version_value(
        self,
        txn_key: str,
        key: Key,
        loc: str,
        version: int,
        value: Any,
        versions: Dict[Key, Dict[int, Tuple[Any, str]]],
        aborted_values: Dict[Key, Dict[str, List[str]]],
        unacked_values: Dict[Key, Dict[str, List[str]]],
        bindings: Dict[str, int],
        report: CheckReport,
        where: str,
    ) -> None:
        known = versions.get(key, {}).get(version)
        if known is not None:
            expected, writer = known
            if _vkey(expected) != _vkey(value):
                report.anomalies.append(Anomaly(
                    "value_mismatch", txn_key,
                    f"{where} of {loc}@{version} returned {value!r}, "
                    f"{writer} certified {expected!r}",
                ))
            return
        if version == self.INITIAL_VERSION:
            if self.initial_value is not None:
                expected = self.initial_value(*key)
                if _vkey(expected) != _vkey(value):
                    report.anomalies.append(Anomaly(
                        "value_mismatch", txn_key,
                        f"{where} of {loc}@{version} returned {value!r}, "
                        f"preload holds {expected!r}",
                    ))
            return
        # Unknown version: an unacknowledged transaction the recovery
        # manager replayed (the client never learned its commit ts)?
        candidates = unacked_values.get(key, {}).get(_vkey(value), [])
        if len(candidates) == 1:
            unacked_txn = candidates[0]
            bound = bindings.get(unacked_txn)
            if bound is None:
                bindings[unacked_txn] = version
            elif bound != version:
                report.anomalies.append(Anomaly(
                    "inconsistent_replay", unacked_txn,
                    f"unacked write-set observed at both commit ts "
                    f"{bound} and {version} (via {where} of {loc})",
                ))
            return
        if candidates:
            return  # several unacked candidates: plausibly replayed
        aborted_writers = aborted_values.get(key, {}).get(_vkey(value), [])
        if aborted_writers:
            report.anomalies.append(Anomaly(
                "aborted_read", txn_key,
                f"{where} of {loc}@{version} returned {value!r}, only "
                f"ever written by aborted {aborted_writers[0]}",
            ))
            return
        report.anomalies.append(Anomaly(
            "phantom_version", txn_key,
            f"{where} of {loc}@{version} returned {value!r}: no recorded "
            f"transaction produced this version",
        ))

    # ------------------------------------------------------------------
    # write-write certification audit
    # ------------------------------------------------------------------
    @staticmethod
    def _check_lost_updates(
        view: HistoryView, bindings: Dict[str, int], report: CheckReport
    ) -> None:
        """First-committer-wins: committed writers of one key must not have
        overlapping [start_ts, commit_ts] execution intervals."""
        writers: Dict[Key, List[Tuple[int, int, str]]] = {}
        for txn in view.txns.values():
            ts = _stamp(txn, bindings)
            if ts is None or txn.start_ts is None:
                continue
            for wkey in {(t, r, c) for t, r, c, _v in txn.certified_writes()}:
                writers.setdefault(wkey, []).append((ts, txn.start_ts, txn.key))
        for wkey in sorted(writers):
            entries = sorted(writers[wkey])
            for (c1, _s1, t1), (c2, s2, t2) in zip(entries, entries[1:]):
                if s2 < c1 and t1 != t2:
                    report.anomalies.append(Anomaly(
                        "lost_update", t2,
                        f"{t2} [start {s2}, commit {c2}] and {t1} "
                        f"[commit {c1}] both wrote "
                        f"{wkey[0]}/{wkey[1]}/{wkey[2]} with overlapping "
                        f"intervals",
                    ))

    # ------------------------------------------------------------------
    # cross-shard atomicity audit (sharded-TM histories)
    # ------------------------------------------------------------------
    def _check_cross_shard_atomicity(
        self, view: HistoryView, bindings: Dict[str, int], report: CheckReport
    ) -> Optional[int]:
        """All-or-nothing visibility of multi-shard write-sets.

        Returns the number of cross-shard transactions audited, or None
        when the history carries no ``owners`` metadata at all (an
        unsharded run) -- the report then stays byte-identical to the
        pre-sharding checker's.
        """
        if not view.sharded:
            return None
        #: key -> [(commit_ts, value, writer, owner_shard)], cross-shard only.
        cross: Dict[Key, List[Tuple[int, Any, str, int]]] = {}
        n_cross = 0
        for txn in view.txns.values():
            if txn.owners is None or len(set(txn.owners)) < 2:
                continue
            ts = _stamp(txn, bindings)
            if ts is None:
                continue
            n_cross += 1
            for (table, row, column, value), owner in zip(txn.attempt, txn.owners):
                cross.setdefault((table, row, column), []).append(
                    (ts, value, txn.key, owner)
                )
        if not cross:
            return n_cross
        for reader, key, start_ts, t0, version, _value, own, where in view.reads:
            if own:
                continue
            returned = version if version is not None else self.INITIAL_VERSION - 1
            for ts, value, writer, owner in cross.get(key, ()):
                if ts > start_ts or returned >= ts:
                    continue  # outside the snapshot, or the slice was seen
                if version is None and value is None:
                    continue  # a miss correctly reflecting a delete
                if not view.flushed_before(ts, t0):
                    continue  # not observably in the store yet
                report.anomalies.append(Anomaly(
                    "cross_shard_atomicity", reader.key,
                    f"{where} of {'/'.join(key)} at snapshot "
                    f"{start_ts} returned version {version} but "
                    f"cross-shard {writer} committed {ts} (shard {owner} "
                    f"slice, flushed before the read): torn write-set",
                ))
        return n_cross


def _stamp(txn: TxnView, bindings: Dict[str, int]) -> Optional[int]:
    """A writing transaction's commit ts -- inferred for a replayed unacked
    one -- or None if it is aborted, read-only or never stamped."""
    if txn.aborted or txn.read_only:
        return None
    return txn.commit_ts if txn.commit_ts is not None else bindings.get(txn.key)

def _vkey(value: Any) -> str:
    """Comparison key tolerant of JSON round-trips (tuples become lists)."""
    if isinstance(value, (list, tuple)):
        return repr([_vkey(v) for v in value])
    return repr(value)
