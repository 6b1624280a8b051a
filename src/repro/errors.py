"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
applications can catch library failures with a single ``except`` clause while
still being able to discriminate on the specific subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """A problem inside the discrete-event simulation substrate."""


class ScheduleError(SimulationError):
    """An event was scheduled or triggered in an invalid way."""


class RpcError(ReproError):
    """Base class for RPC-level failures."""


class RpcTimeout(RpcError):
    """An RPC did not receive a response within its deadline."""

    def __init__(self, dst: str, method: str, timeout: float) -> None:
        super().__init__(f"rpc {method!r} to {dst!r} timed out after {timeout}s")
        self.dst = dst
        self.method = method
        self.timeout = timeout


class RemoteError(RpcError):
    """The remote handler raised an exception; carries its description."""

    def __init__(self, dst: str, method: str, description: str) -> None:
        super().__init__(f"rpc {method!r} to {dst!r} failed remotely: {description}")
        self.dst = dst
        self.method = method
        self.description = description

    def carries(self, exc_type: type) -> bool:
        """Whether the remote exception was of ``exc_type``.

        Only the remote exception's repr crosses the wire, so this
        matches on its type name -- the way callers discriminate remote
        error kinds (e.g. a remote SessionExpired from a remote NoNode).
        """
        return self.description.startswith(exc_type.__name__ + "(")


class NodeDown(RpcError):
    """An operation was attempted on (or by) a crashed node."""


class StorageError(ReproError):
    """Base class for stable-storage (disk-level) failures."""


class DiskWriteError(StorageError):
    """A synchronous write failed with a transient device error."""

    def __init__(self, device: str) -> None:
        super().__init__(f"transient write error on disk {device!r}")
        self.device = device


class CorruptRecord(StorageError):
    """A stored record failed its checksum and no replica could serve it."""


class DfsError(ReproError):
    """Base class for distributed-filesystem errors."""


class FileNotFound(DfsError):
    """The requested DFS path does not exist."""


class FileAlreadyExists(DfsError):
    """A DFS path was created twice."""


class NotEnoughReplicas(DfsError):
    """Fewer live datanodes than the requested replication factor."""


class ZkError(ReproError):
    """Base class for coordination-service errors."""


class NoNode(ZkError):
    """The requested znode does not exist."""


class NodeExists(ZkError):
    """A znode was created twice."""


class BadVersion(ZkError):
    """A conditional znode update lost a compare-and-swap race."""


class SessionExpired(ZkError):
    """The client session is no longer valid."""


class KvError(ReproError):
    """Base class for key-value store errors."""


class RegionOffline(KvError):
    """The target region is not currently online on any server."""

    def __init__(self, region: str) -> None:
        super().__init__(f"region {region!r} is offline")
        self.region = region


class WrongRegionServer(KvError):
    """The contacted server does not host the target region (stale cache)."""

    def __init__(self, region: str, server: str) -> None:
        super().__init__(f"server {server!r} does not host region {region!r}")
        self.region = region
        self.server = server


class TxnError(ReproError):
    """Base class for transaction-management errors."""


class TxnAborted(TxnError):
    """The transaction was aborted (by the application or the TM)."""

    def __init__(self, txn_id: int, reason: str) -> None:
        super().__init__(f"transaction {txn_id} aborted: {reason}")
        self.txn_id = txn_id
        self.reason = reason


class TxnConflict(TxnAborted):
    """Snapshot-isolation certification failed (first-committer-wins)."""

    def __init__(self, txn_id: int, key: object) -> None:
        super().__init__(txn_id, f"write-write conflict on {key!r}")
        self.key = key


class InvalidTxnState(TxnError):
    """An operation was invoked in a transaction state that forbids it."""
