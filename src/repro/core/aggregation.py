"""Aggregating per-segment similarities into the unified similarity.

Both the exact algorithm and the approximation share the same aggregation
step (Equation 6 of the paper): given a pair of well-defined partitions,
compute the maximum-weight bipartite matching of their segments under
``msim`` and divide by the larger partition size.  This module hosts that
shared logic together with the bridge from an independent set of conflict
graph vertices to a pair of partitions (``GetSim`` in Algorithm 1).

:func:`partition_similarity` computes each ``msim`` afresh;
:func:`table_similarity` reads it from a table over all segment pairs of
the two strings, found by span.  ``GetSim`` reads the conflict graph's
table, and the exact solver fills one table per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .graph import ConflictGraph
from .matching import maximum_weight_matching
from .measures import MeasureConfig
from .segments import Segment, singleton_partition
from .tokenizer import TokenSpan

__all__ = [
    "MatchedPair",
    "SimilarityBreakdown",
    "partition_similarity",
    "partitions_from_selection",
    "selection_similarity",
    "table_similarity",
]


@dataclass(frozen=True)
class MatchedPair:
    """One matched segment pair contributing to the unified similarity."""

    left: Segment
    right: Segment
    similarity: float


@dataclass(frozen=True)
class SimilarityBreakdown:
    """The unified similarity of a string pair together with its evidence.

    Attributes
    ----------
    value:
        The aggregated similarity in [0, 1].
    left_partition, right_partition:
        The well-defined partitions that realise the value.
    matches:
        The segment pairs selected by the bipartite matching, with their
        individual ``msim`` values.
    """

    value: float
    left_partition: Tuple[Segment, ...]
    right_partition: Tuple[Segment, ...]
    matches: Tuple[MatchedPair, ...]


def _matched(
    left_partition: Sequence[Segment],
    right_partition: Sequence[Segment],
    weights: List[List[float]],
) -> SimilarityBreakdown:
    """Equation 6 over the partitions' ``msim`` matrix ``weights``."""
    total, pairs = maximum_weight_matching(weights)
    denominator = max(len(left_partition), len(right_partition))
    matches = tuple(
        MatchedPair(left_partition[i], right_partition[j], weights[i][j]) for i, j in pairs
    )
    return SimilarityBreakdown(
        value=total / denominator,
        left_partition=tuple(left_partition),
        right_partition=tuple(right_partition),
        matches=matches,
    )


def partition_similarity(
    left_partition: Sequence[Segment],
    right_partition: Sequence[Segment],
    config: MeasureConfig,
) -> SimilarityBreakdown:
    """Equation 6: maximum matching over ``msim`` divided by the larger size."""
    if not left_partition or not right_partition:
        return SimilarityBreakdown(0.0, tuple(left_partition), tuple(right_partition), ())
    weights: List[List[float]] = [
        [config.msim(left.tokens, right.tokens) for right in right_partition]
        for left in left_partition
    ]
    return _matched(left_partition, right_partition, weights)


def table_similarity(
    left_partition: Sequence[Segment],
    right_partition: Sequence[Segment],
    table: Sequence[Sequence[float]],
    left_rows: Dict[TokenSpan, int],
    right_rows: Dict[TokenSpan, int],
) -> SimilarityBreakdown:
    """:func:`partition_similarity` with ``msim`` read from ``table``.

    ``table[i][j]`` is ``msim`` of the left string's segment ``i`` and the
    right string's segment ``j``; ``left_rows`` and ``right_rows`` give each
    segment's index by its span.
    """
    if not left_partition or not right_partition:
        return SimilarityBreakdown(0.0, tuple(left_partition), tuple(right_partition), ())
    columns = [right_rows[segment.span] for segment in right_partition]
    weights = [
        [row[j] for j in columns]
        for row in (table[left_rows[segment.span]] for segment in left_partition)
    ]
    return _matched(left_partition, right_partition, weights)


def _fill_with_singletons(
    tokens: Sequence[str], chosen: Iterable[Segment]
) -> List[Segment]:
    """Complete a set of disjoint segments into a full partition of ``tokens``.

    Token positions not covered by any chosen segment become single-token
    segments, which are always well-defined (Definition 1, condition iii).
    """
    chosen_list = sorted(chosen, key=lambda segment: segment.span.start)
    covered = [False] * len(tokens)
    for segment in chosen_list:
        for position in segment.span.positions():
            if covered[position]:
                raise ValueError("chosen segments overlap; cannot build a partition")
            covered[position] = True
    partition: List[Segment] = list(chosen_list)
    for position, is_covered in enumerate(covered):
        if not is_covered:
            partition.append(
                Segment(span=TokenSpan(position, position + 1), tokens=(tokens[position],))
            )
    partition.sort(key=lambda segment: segment.span.start)
    return partition


def partitions_from_selection(
    graph: ConflictGraph, selection: Iterable[int]
) -> Tuple[List[Segment], List[Segment]]:
    """Build the partitions of S and T induced by an independent vertex set.

    The segments named by the selected vertices are kept as-is; uncovered
    tokens become singleton segments.  This mirrors Line 7 of Algorithm 1.
    """
    ends = [graph.ends[index] for index in selection]
    left_segments = graph.left_side.segments
    right_segments = graph.right_side.segments
    left_partition = _fill_with_singletons(
        graph.left_tokens, {left_segments[i] for i, _ in ends}
    )
    right_partition = _fill_with_singletons(
        graph.right_tokens, {right_segments[j] for _, j in ends}
    )
    return left_partition, right_partition


def selection_similarity(
    graph: ConflictGraph, selection: Iterable[int]
) -> SimilarityBreakdown:
    """``GetSim`` of Algorithm 1: similarity realised by a vertex selection.

    The matching weights come from the graph's weight table, so no measure
    is computed.
    """
    selection_list = list(selection)
    if not graph.left_tokens or not graph.right_tokens:
        return SimilarityBreakdown(0.0, (), (), ())
    if selection_list:
        left, right = partitions_from_selection(graph, selection_list)
    else:
        left = singleton_partition(graph.left_tokens)
        right = singleton_partition(graph.right_tokens)
    return table_similarity(left, right, graph.table, *graph.segment_rows)
