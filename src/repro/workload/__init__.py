"""Extended-YCSB transactional workload (Section 4.1): generators for the
paper's 10-operation 50/50 read/update transactions and the YCSB core mixes,
and a multi-threaded closed/throttled-loop driver with time-series metrics."""

from repro.workload.driver import WorkloadDriver, WorkloadResult
from repro.workload.verify import AcknowledgedCommit, CommitLedger, Violation
from repro.workload.ycsb import (
    READ,
    UPDATE,
    WORKLOADS,
    KeySpace,
    YcsbGenerator,
    YcsbMix,
)

__all__ = [
    "AcknowledgedCommit",
    "CommitLedger",
    "KeySpace",
    "Violation",
    "READ",
    "WORKLOADS",
    "YcsbGenerator",
    "YcsbMix",
    "UPDATE",
    "WorkloadDriver",
    "WorkloadResult",
]
