"""Online similarity search: the incrementally maintained serving layer.

See :mod:`repro.search.index` for the :class:`SimilarityIndex` — threshold
and top-k single-record queries, batched (optionally multi-core) querying,
in-place add/remove under a frozen order (re-ordered only by an explicit
``rebuild()``), and store-backed snapshots.
"""

from .index import (
    BatchQueryResult,
    ConcurrentMutationError,
    QueryMatch,
    QueryResult,
    SimilarityIndex,
)

__all__ = [
    "BatchQueryResult",
    "ConcurrentMutationError",
    "QueryMatch",
    "QueryResult",
    "SimilarityIndex",
]
