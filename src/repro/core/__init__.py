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
    prepare_graph_side,
    usim_upper_bound,
)
from .grams import DEFAULT_Q, jaccard, qgram_set, qgrams
from .matching import (
    greedy_matching,
    hungarian_matching,
    matching_weight_upper_bound,
    maximum_weight_matching,
)
from .measures import Measure, MeasureConfig
from .mis import exact_wmis, greedy_wmis, squareimp_wmis
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
    "greedy_matching",
    "greedy_wmis",
    "hungarian_matching",
    "jaccard",
    "matching_weight_upper_bound",
    "maximum_weight_matching",
    "partition_similarity",
    "prepare_graph_side",
    "qgram_set",
    "qgrams",
    "squareimp_wmis",
    "usim_upper_bound",
]
