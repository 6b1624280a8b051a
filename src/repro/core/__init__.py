"""The paper's contribution: transactional failure-recovery middleware.

* :class:`FlushTracker` / :class:`PersistTracker` / :class:`ThresholdBook`
  -- the threshold rules of Algorithms 1-4, free of the simulator;
* :class:`ClientRecoveryAgent` / :class:`ServerRecoveryAgent` -- the
  minimal client/server extensions that heartbeat those thresholds via the
  coordination service and gate region opening on transactional recovery;
* :class:`RecoveryManager` -- the I/O of Algorithms 2 and 4: heartbeat
  polls, client and per-region server replay, log truncation, and restart
  from coordination-service state;
* :class:`RecoveryClient` -- the replay client c_R.
"""

from repro.core.client_agent import ClientRecoveryAgent
from repro.core.paths import (
    CLIENTS_DIR,
    GLOBAL_PATH,
    PENDING_DIR,
    SERVERS_DIR,
    client_path,
    pending_path,
    server_path,
)
from repro.core.recovery_client import RecoveryClient
from repro.core.recovery_manager import RecoveryManager
from repro.core.server_agent import ServerRecoveryAgent
from repro.core.tracking import FlushTracker, PersistTracker, ThresholdBook

__all__ = [
    "CLIENTS_DIR",
    "ClientRecoveryAgent",
    "FlushTracker",
    "GLOBAL_PATH",
    "PENDING_DIR",
    "PersistTracker",
    "RecoveryClient",
    "RecoveryManager",
    "SERVERS_DIR",
    "ServerRecoveryAgent",
    "ThresholdBook",
    "client_path",
    "pending_path",
    "server_path",
]
