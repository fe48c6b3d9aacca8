"""Sharded multi-process matching service.

A :class:`ShardedMatching` router hash-partitions the vertex universe
across K shards — each hosting its own batch-dynamic matching, per-shard
write-ahead journal, and metrics — settles shard-local edges in parallel
shard processes, and resolves cross-shard edges with a deterministic
incremental handoff that re-decides only the cross edges each batch
touches, producing a certified maximal matching of the whole graph.
See ``docs/sharding.md``.
"""

from repro.sharding.partition import (
    CROSS,
    BatchSplit,
    merge_split,
    owner_shard,
    shard_of_edge,
    shard_of_vertex,
    shard_rng,
    split_delete,
    split_insert,
)
from repro.sharding.handoff import (
    CrossState,
    Decisions,
    Frontier,
    HandoffResult,
    derive,
    proposal_vertices,
    resolve,
)
from repro.sharding.shard import Shard, ShardConfig
from repro.sharding.transport import (
    TRANSPORTS,
    InlineShardHost,
    ProcessShardHost,
    ShardCrashError,
    ShardRemoteError,
    make_host,
)
from repro.sharding.router import (
    MANIFEST_FILE,
    MergedLedger,
    ShardBatchStats,
    ShardedMatching,
    shard_dir,
)
from repro.sharding.recovery import (
    ShardedRecoveryError,
    ShardedRecoveryResult,
    is_sharded_root,
    read_manifest,
    recover_sharded,
    replay_splits,
)

__all__ = [
    "CROSS",
    "BatchSplit",
    "CrossState",
    "Decisions",
    "Frontier",
    "HandoffResult",
    "InlineShardHost",
    "MANIFEST_FILE",
    "MergedLedger",
    "ProcessShardHost",
    "Shard",
    "ShardBatchStats",
    "ShardConfig",
    "ShardCrashError",
    "ShardRemoteError",
    "ShardedMatching",
    "ShardedRecoveryError",
    "ShardedRecoveryResult",
    "TRANSPORTS",
    "derive",
    "is_sharded_root",
    "make_host",
    "merge_split",
    "owner_shard",
    "proposal_vertices",
    "read_manifest",
    "recover_sharded",
    "replay_splits",
    "resolve",
    "shard_dir",
    "shard_of_edge",
    "shard_of_vertex",
    "shard_rng",
    "split_delete",
    "split_insert",
]
