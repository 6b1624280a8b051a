"""Keyspace partitioning for the sharded transaction manager.

The certification keyspace is split into ``txn.tm_shards = N`` hash
slices; shard ``i`` owns slice ``i`` (a lone TM owns the one slice).  Both
the client (to route single-shard commits and to partition cross-shard
write-sets) and the shards themselves (to validate ownership) use the
same pure function, so ownership is a property of the key alone and never
needs coordination.

Columns of one row always co-locate: the hash covers ``table|row`` only,
so a row's cells can never straddle shards and per-row read-modify-write
transactions stay single-shard.
"""

from __future__ import annotations

import zlib
from typing import List


def shard_addr(index: int) -> str:
    """Wire address of TM shard ``index`` (``tm0``, ``tm1``, ...)."""
    return f"tm{index}"


def shard_addrs(n_shards: int) -> List[str]:
    """Addresses of all ``n_shards`` TM shards, authority first: ``tm0``,
    ``tm1``, ... -- or plain ``tm`` for a lone transaction manager."""
    if n_shards <= 1:
        return ["tm"]
    return [shard_addr(i) for i in range(n_shards)]


def shard_of(table: str, row: str, n_shards: int) -> int:
    """The shard index owning ``(table, row)`` -- deterministic, seedless."""
    if n_shards <= 1:
        return 0
    return zlib.crc32(f"{table}|{row}".encode()) % n_shards
