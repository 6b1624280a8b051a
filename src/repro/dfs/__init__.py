"""HDFS-like distributed filesystem substrate.

A namenode tracks metadata and replica placement (local-first, matching the
paper's datanode/region-server co-location); datanodes store record streams
with an explicit durable prefix and run the chained append pipeline whose
latency is what makes synchronous persistence expensive.
"""

from repro.dfs.client import DfsClient
from repro.dfs.datanode import DataNode
from repro.dfs.files import FileMeta
from repro.dfs.namenode import NameNode

__all__ = ["DataNode", "DfsClient", "FileMeta", "NameNode"]
