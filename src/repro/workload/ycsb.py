"""The standard YCSB core workload mixes, transactionalised.

The paper extends YCSB with "a simple type of update transaction that
executes 10 random row operations, with a 50/50 ratio of reads/updates"
(``paper`` here, the default everywhere).  For a usable library we also
ship the six core YCSB workloads, wrapped in the same transaction envelope:

========  ===========================================  ==================
workload  operation mix                                request distribution
========  ===========================================  ==================
A         50% read / 50% update                        zipfian
B         95% read / 5% update                         zipfian
C         100% read                                    zipfian
D         95% read / 5% insert                         latest
E         95% scan (short ranges) / 5% insert          zipfian
F         50% read / 50% read-modify-write             zipfian
paper     50% read / 50% update (the paper's mix)      uniform
========  ===========================================  ==================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import WorkloadSettings
from repro.kvstore.keys import row_key
from repro.sim.rng import SeededRng, zipfian_sampler

READ = "read"
UPDATE = "update"
INSERT = "insert"
SCAN = "scan"
RMW = "rmw"  # read-modify-write

#: One operation: (kind, row, scan_length) -- scan_length is 0 except for SCAN.
YcsbOp = Tuple[str, str, int]


@dataclass(frozen=True)
class YcsbMix:
    """Operation proportions and request distribution of one workload."""

    name: str
    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    scan: float = 0.0
    rmw: float = 0.0
    distribution: str = "zipfian"  # "zipfian" | "uniform" | "latest"
    max_scan_length: int = 100

    def validate(self) -> None:
        """Reject mixes whose proportions do not sum to one or whose
        request distribution is unknown."""
        total = self.read + self.update + self.insert + self.scan + self.rmw
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"workload {self.name!r} proportions sum to {total}")
        if self.distribution not in ("zipfian", "uniform", "latest"):
            raise ValueError(f"unknown distribution {self.distribution!r}")


WORKLOADS: Dict[str, YcsbMix] = {
    "A": YcsbMix("A", read=0.5, update=0.5),
    "B": YcsbMix("B", read=0.95, update=0.05),
    "C": YcsbMix("C", read=1.0),
    "D": YcsbMix("D", read=0.95, insert=0.05, distribution="latest"),
    "E": YcsbMix("E", scan=0.95, insert=0.05),
    "F": YcsbMix("F", read=0.5, rmw=0.5),
    "paper": YcsbMix("paper", read=0.5, update=0.5, distribution="uniform"),
}


@dataclass
class KeySpace:
    """The growing key population (inserts extend it).

    Shared by every thread of a run so "latest" sampling and inserts see
    one consistent frontier, as in YCSB's shared key sequence.
    """

    initial: int
    inserted: int = 0

    @property
    def size(self) -> int:
        """Current key-space cardinality (initial rows + inserts)."""
        return self.initial + self.inserted

    def next_insert(self) -> str:
        """Allocate the next fresh row key (collision-free by counter)."""
        key = row_key(self.size)
        self.inserted += 1
        return key


class YcsbGenerator:
    """Generates transactions for one YCSB core workload."""

    def __init__(
        self,
        mix: YcsbMix,
        settings: WorkloadSettings,
        rng: SeededRng,
        key_space: Optional[KeySpace] = None,
    ) -> None:
        mix.validate()
        if settings.ops_per_txn > settings.n_rows:
            raise ValueError(f"ops_per_txn {settings.ops_per_txn} > n_rows")
        self.mix = mix
        self.settings = settings
        self.rng = rng
        self.key_space = key_space or KeySpace(initial=settings.n_rows)
        if mix.distribution != "uniform":  # setup sums zeta over the table
            self._zipf = zipfian_sampler(settings.n_rows, settings.zipf_theta, rng)
        self._op_cdf = self._build_cdf()

    def _build_cdf(self) -> List[Tuple[float, str]]:
        cdf = []
        total = 0.0
        for kind, p in (
            (READ, self.mix.read),
            (UPDATE, self.mix.update),
            (INSERT, self.mix.insert),
            (SCAN, self.mix.scan),
            (RMW, self.mix.rmw),
        ):
            if p > 0:
                total += p
                cdf.append((total, kind))
        return cdf

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def _choose_kind(self) -> str:
        u = self.rng.random()
        for bound, kind in self._op_cdf:
            if u < bound:
                return kind
        return self._op_cdf[-1][1]

    def _choose_key(self) -> str:
        dist = self.mix.distribution
        n = self.key_space.size
        if dist == "uniform":
            return row_key(self.rng.randrange(n))
        if dist == "latest":
            # Hot on the most recently inserted keys.
            offset = self._zipf()
            return row_key(max(0, n - 1 - offset))
        # Zipfian, scrambled across the key space so hot keys spread over
        # regions (YCSB's scrambled zipfian).
        return row_key((self._zipf() * 2654435761) % n)

    def next_txn(self) -> List[YcsbOp]:
        """One transaction's ops_per_txn operations, on distinct rows: each
        draws its row (again if an earlier op has it), then its kind; an
        insert takes a fresh key instead, and a scan then draws its length.
        Every mix can reach at least n_rows rows, so the draw ends."""
        ops: List[YcsbOp] = []
        seen = set()
        while len(ops) < self.settings.ops_per_txn:
            row = self._choose_key()
            if row in seen:
                continue
            kind = self._choose_kind()
            if kind == INSERT:
                row = self.key_space.next_insert()
            seen.add(row)
            length = 0
            if kind == SCAN:
                length = 1 + self.rng.randrange(self.mix.max_scan_length)
            ops.append((kind, row, length))
        return ops
