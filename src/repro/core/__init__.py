"""Core of the unified similarity framework.

This subpackage contains the paper's primary contribution: the unified
similarity measure (Section 2), its exact and approximate computation, and
the substrates they rely on (tokenisation, q-grams, segments, bipartite
matching, conflict graphs, and weighted maximum independent set search).
"""

from .aggregation import MatchedPair, SimilarityBreakdown, partition_similarity
from .approximation import ApproximationResult, approximate_usim
from .exact import ExactBudgetExceeded, exact_usim
from .graph import (
    ConflictGraph,
    GraphSide,
    PairVertex,
    build_conflict_graph,
    build_conflict_graph_from_sides,
)
from .grams import DEFAULT_Q, jaccard, qgram_set, qgrams
from .matching import maximum_weight_matching
from .measures import Measure, MeasureConfig
from .mis import exact_wmis, greedy_mask, squareimp_mask
from .segments import Segment, enumerate_partitions, enumerate_segments
from .tokenizer import Tokenizer, TokenSpan, default_tokenizer
from .topk import bounded_top_k
from .unified import UnifiedSimilarity

__all__ = [
    "ApproximationResult",
    "ConflictGraph",
    "DEFAULT_Q",
    "ExactBudgetExceeded",
    "GraphSide",
    "MatchedPair",
    "Measure",
    "MeasureConfig",
    "PairVertex",
    "Segment",
    "SimilarityBreakdown",
    "TokenSpan",
    "Tokenizer",
    "UnifiedSimilarity",
    "approximate_usim",
    "bounded_top_k",
    "build_conflict_graph",
    "build_conflict_graph_from_sides",
    "default_tokenizer",
    "enumerate_partitions",
    "enumerate_segments",
    "exact_usim",
    "exact_wmis",
    "greedy_mask",
    "jaccard",
    "maximum_weight_matching",
    "partition_similarity",
    "qgram_set",
    "qgrams",
    "squareimp_mask",
]
