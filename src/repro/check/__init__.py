"""History-based consistency oracle (the checking subsystem).

Four cooperating pieces turn the paper's guarantees into mechanically
checked properties:

* :class:`HistoryRecorder` -- a low-overhead, sim-time-stamped log of
  every operation outcome (begin/read/write/scan/commit/abort/flush)
  observed by the transactional clients, serializable to a deterministic
  JSON history file; :class:`~repro.check.history.HistoryView`, in the
  same module, is the one reader of that format, and both checkers below
  are passes over it;
* :class:`SIChecker` -- an offline checker that rebuilds the version
  order from commit timestamps and detects snapshot-isolation anomalies
  over a recorded history;
* :class:`SerializabilityChecker` -- an offline checker that builds the
  direct serialization graph (ww/wr/rw edges) over committed
  transactions and reports ``serializability_cycle`` anomalies; SSI
  histories must be fully acyclic, SI histories are only audited for
  cycles snapshot isolation itself forbids (fewer than two rw edges);
* :class:`InvariantMonitor` -- online assertions over the live cluster's
  threshold state (Algorithms 1-4): ``T_P <= T_F``, monotonicity,
  ``T_P(s)`` never above the global ``T_F`` it last read, and no log
  truncation past ``T_P``.

See ``docs/CHECKING.md`` for the history format and the anomaly
catalogue mapped to the paper's algorithms.
"""

from repro.check.history import HistoryRecorder, load_history, load_history_doc
from repro.check.monitor import InvariantMonitor, evaluate_invariants
from repro.check.serializability import SerializabilityChecker
from repro.check.sichecker import Anomaly, CheckReport, SIChecker

__all__ = [
    "Anomaly",
    "CheckReport",
    "HistoryRecorder",
    "InvariantMonitor",
    "SIChecker",
    "SerializabilityChecker",
    "evaluate_invariants",
    "load_history",
    "load_history_doc",
]
