"""Pebble-based filter-and-verify join framework (Section 3 of the paper)."""

from .aufilter import (
    FilterOutcome,
    JoinBatch,
    JoinResult,
    JoinStatistics,
    MultiFilterOutcome,
    PebbleJoin,
    dual_index_filter_candidates,
    probe_single,
)
from .framework import UnifiedJoin
from .global_order import GlobalOrder
from .inverted_index import InvertedIndex
from .parallel import (
    ShardPlan,
    ShardResult,
    build_shard_plan,
    plan_payload_bytes,
    process_join,
    process_join_batches,
)
from .partition_bound import greedy_cover_size, min_partition_size
from .pebbles import Pebble, PebbleKey, generate_pebbles
from .pool import WarmJoinPool
from .prepared import PreparedCollection, PreparedRecord, build_shared_order
from .signatures import SignatureMethod, SignedRecord, select_signature_prefix, sign_record
from .supervision import (
    ExecutionReport,
    ShardSupervisor,
    ShardTransportError,
    SupervisorPolicy,
)
from .ufilter import UFilterJoin
from .verification import UnifiedVerifier, VerificationStats, VerifiedPair, Verifier

__all__ = [
    "ExecutionReport",
    "FilterOutcome",
    "GlobalOrder",
    "InvertedIndex",
    "JoinBatch",
    "JoinResult",
    "JoinStatistics",
    "MultiFilterOutcome",
    "Pebble",
    "PebbleKey",
    "PebbleJoin",
    "PreparedCollection",
    "PreparedRecord",
    "ShardPlan",
    "ShardResult",
    "ShardSupervisor",
    "ShardTransportError",
    "SignatureMethod",
    "SignedRecord",
    "SupervisorPolicy",
    "UFilterJoin",
    "UnifiedJoin",
    "UnifiedVerifier",
    "VerificationStats",
    "VerifiedPair",
    "Verifier",
    "WarmJoinPool",
    "build_shard_plan",
    "build_shared_order",
    "dual_index_filter_candidates",
    "generate_pebbles",
    "greedy_cover_size",
    "min_partition_size",
    "plan_payload_bytes",
    "probe_single",
    "process_join",
    "process_join_batches",
    "select_signature_prefix",
    "sign_record",
]
